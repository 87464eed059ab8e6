package h2

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"slices"
	"strconv"
	"sync"

	"dohcost/internal/hpack"
)

// Request is an HTTP/2 request. Header carries only regular fields; the
// pseudo-headers travel in the dedicated struct fields.
//
// A Request a client sends owns the storage its response is received into:
// the Response RoundTrip returns for it is valid until the same *Request is
// passed to RoundTrip again, which reuses that storage. A copy of a Request
// gets storage of its own. One *Request carries one round trip at a time.
type Request struct {
	Method    string
	Scheme    string
	Authority string
	Path      string
	Header    []hpack.HeaderField
	Body      []byte

	resp *Response // the response storage, when resp.owner is this Request
}

// Response is a complete HTTP/2 response. One a client received belongs to
// its Request: valid until that Request's next round trip.
type Response struct {
	Status int
	Header []hpack.HeaderField
	Body   []byte

	// few backs Header for a response the client received with no more
	// fields than a DoH answer has, so they cost no allocation of their own.
	few   [2]hpack.HeaderField
	owner *Request
}

// HeaderValue returns the first value of a regular header field, or "".
func (r *Response) HeaderValue(name string) string {
	for _, f := range r.Header {
		if f.Name == name {
			return f.Value
		}
	}
	return ""
}

// ErrConnClosed reports the connection is no longer usable for new streams.
var ErrConnClosed = errors.New("h2: connection closed")

// clientStream tracks one in-flight request. The response is its
// Request's storage; the rest is pooled.
type clientStream struct {
	stream
	resp *Response
	err  error
	done chan struct{} // buffered: whoever takes the stream out of streams sends once

	hasStatus bool
}

// clientStreams recycles the streams of requests that completed. One that
// failed is left to the collector: whatever failed it — a reset, the
// connection's end, the caller's cancellation — may run beside a read loop
// that still holds it.
var clientStreams = sync.Pool{New: func() any { return &clientStream{done: make(chan struct{}, 1)} }}

// ClientConn is an HTTP/2 client connection multiplexing concurrent
// requests over one transport connection. Safe for concurrent use.
type ClientConn struct {
	link
	conn net.Conn

	streams map[uint32]*clientStream // under mu
	nextID  uint32                   // under encMu: ids ascend in emission order
}

// NewClientConn performs the client side of connection setup (preface and
// SETTINGS) on conn and starts the read loop. model is the study's
// Emission parameter (see the package comment); omitted, it is
// MessagePerFlight.
func NewClientConn(conn net.Conn, model ...Emission) (*ClientConn, error) {
	cc := &ClientConn{
		conn:    conn,
		streams: make(map[uint32]*clientStream),
		nextID:  1,
	}
	var e Emission
	if len(model) > 0 {
		e = model[0]
	}
	cc.init(conn, e, cc)
	if err := cc.fr.WritePreface(); err != nil {
		return nil, fmt.Errorf("h2: writing preface: %w", err)
	}
	err := cc.writeSettings(
		Setting{SettingEnablePush, 0},
		Setting{SettingInitialWindowSize, defaultInitialWindowSize},
		Setting{SettingMaxConcurrentStreams, 1000},
	)
	if err != nil {
		return nil, fmt.Errorf("h2: writing settings: %w", err)
	}
	go cc.readLoop()
	return cc, nil
}

// Stats exposes the connection's frame accounting.
func (cc *ClientConn) Stats() *FrameStats { return &cc.fr.Stats }

// Close tears the connection down, failing in-flight requests.
func (cc *ClientConn) Close() error {
	cc.goAway(nil)
	cc.failAll(ErrConnClosed)
	return cc.conn.Close()
}

// failAll marks the connection dead and completes every pending stream with
// its first error.
func (cc *ClientConn) failAll(err error) {
	cc.fail(err)
	cc.mu.Lock()
	defer cc.mu.Unlock()
	for id, cs := range cc.streams {
		cs.err = cc.err
		cs.done <- struct{}{}
		delete(cc.streams, id)
	}
}

// RoundTrip sends req and waits for the complete response or ctx expiry.
// Concurrent RoundTrips multiplex onto independent streams, each with a
// Request of its own. The response is received into storage req owns: it is
// valid until req is passed to RoundTrip again.
func (cc *ClientConn) RoundTrip(ctx context.Context, req *Request) (*Response, error) {
	cs, err := cc.startRequest(ctx, req)
	if err != nil {
		req.resp = nil
		return nil, err
	}
	select {
	case <-cs.done:
		if cs.err != nil {
			// The read loop may still hold the response (see clientStreams):
			// the next round trip starts from storage of its own.
			req.resp = nil
			return nil, cs.err
		}
		resp := cs.resp
		*cs = clientStream{done: cs.done}
		clientStreams.Put(cs)
		return resp, nil
	case <-ctx.Done():
		req.resp = nil
		cc.abortStream(cs, ErrCodeCancel)
		return nil, ctx.Err()
	}
}

// response returns req's response storage emptied, or new storage when req
// has none of its own: a copied Request still points at the original's. A
// body past maxKeptBody is let go, so one large reply does not stay pinned
// for the Request's life.
func (req *Request) response() *Response {
	resp := req.resp
	if resp == nil || resp.owner != req {
		resp = &Response{owner: req}
		req.resp = resp
		return resp
	}
	body := resp.Body[:0]
	if cap(body) > maxKeptBody {
		body = nil
	}
	*resp = Response{Body: body, owner: req}
	return resp
}

// startRequest opens a stream and sends req on it as one message; a body
// that must wait for window waits no longer than ctx.
func (cc *ClientConn) startRequest(ctx context.Context, req *Request) (*clientStream, error) {
	cs := clientStreams.Get().(*clientStream)
	cs.resp, cs.ctx = req.response(), ctx
	cc.encMu.Lock()
	cc.mu.Lock()
	if err := cc.err; err != nil {
		cc.mu.Unlock()
		cc.encMu.Unlock()
		return nil, err
	}
	cs.id = cc.nextID
	cc.nextID += 2
	cc.streams[cs.id] = cs
	cc.mu.Unlock()

	cc.fields = append(cc.fields[:0],
		hpack.HeaderField{Name: ":method", Value: req.Method},
		hpack.HeaderField{Name: ":scheme", Value: req.Scheme},
		hpack.HeaderField{Name: ":authority", Value: req.Authority},
		hpack.HeaderField{Name: ":path", Value: req.Path},
	)
	cc.fields = append(cc.fields, req.Header...)
	if _, err := cc.writeMessage(&cs.stream, req.Body, false); err != nil {
		if ctx.Err() != nil {
			// Cancelled while the body waited for window: the same
			// CANCEL RoundTrip sends for a cancellation after it.
			cc.abortStream(cs, ErrCodeCancel)
			return nil, ctx.Err()
		}
		cc.abortStream(cs, ErrCodeInternal)
		return nil, fmt.Errorf("h2: writing request: %w", err)
	}
	return cs, nil
}

// abortStream resets a stream after a local failure or cancellation.
func (cc *ClientConn) abortStream(cs *clientStream, code ErrCode) {
	cc.fr.WriteFrame(FrameRSTStream, 0, cs.id, binary.BigEndian.AppendUint32(nil, uint32(code)))
	cc.take(cs.id)
}

// take removes and returns the open stream with the given id, or nil.
func (cc *ClientConn) take(id uint32) *clientStream {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	cs := cc.streams[id]
	delete(cc.streams, id)
	return cs
}

// lookup returns the open stream with the given id, or nil.
func (cc *ClientConn) lookup(id uint32) *clientStream {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.streams[id]
}

// readLoop dispatches inbound frames until the connection dies.
func (cc *ClientConn) readLoop() {
	for {
		fr, err := cc.fr.ReadFrame()
		if err != nil {
			cc.failAll(fmt.Errorf("h2: read: %w", err))
			cc.conn.Close()
			return
		}
		if err := cc.handleFrame(fr); err != nil {
			cc.goAway(err)
			cc.failAll(err)
			cc.conn.Close()
			return
		}
	}
}

// sendStream implements endpoint.
func (cc *ClientConn) sendStream(id uint32) *stream {
	if cs := cc.lookup(id); cs != nil {
		return &cs.stream
	}
	return nil
}

// handleReset implements endpoint.
func (cc *ClientConn) handleReset(fr Frame) {
	if cs := cc.take(fr.StreamID); cs != nil {
		cc.peerReset(&cs.stream, fr)
		cs.err = cs.reset
		cs.done <- struct{}{}
	}
}

// handleHeaders implements endpoint: a response's header block, copied out
// of the connection's scratch into the response in one step. Pseudo-header
// fields lead a block (RFC 7540 §8.1.2.1), so a :status anywhere else is no
// status.
func (cc *ClientConn) handleHeaders(id uint32, fields []hpack.HeaderField, endStream bool) error {
	cs := cc.lookup(id)
	if cs == nil {
		return nil // stream already gone (cancelled); state remains valid
	}
	resp := cs.resp
	if len(fields) > 0 && fields[0].Name == ":status" {
		code, err := strconv.Atoi(fields[0].Value)
		if err != nil {
			return StreamError{cs.id, ErrCodeProtocol, "bad :status"}
		}
		resp.Status, cs.hasStatus, fields = code, true, fields[1:]
	}
	if resp.Header == nil {
		resp.Header = resp.few[:0]
	}
	resp.Header = append(slices.Grow(resp.Header, len(fields)), fields...)
	if endStream {
		cc.completeStream(cs)
	}
	return nil
}

func (cc *ClientConn) handleData(fr Frame) error {
	data, err := stripPadding(fr)
	if err != nil {
		return err
	}
	cs := cc.lookup(fr.StreamID)
	if cs == nil {
		// Stale DATA for a cancelled stream: only the connection is owed.
		return cc.credit(0, len(fr.Payload))
	}
	cs.resp.Body = append(cs.resp.Body, data...)
	if fr.Flags&FlagEndStream != 0 {
		// Credit first: once its RoundTrip wakes, the caller may read the
		// connection's byte counts, and this exchange's credit is part of them.
		err := cc.credit(0, len(fr.Payload))
		cc.completeStream(cs)
		return err
	}
	return cc.credit(cs.id, len(fr.Payload))
}

// completeStream hands a finished response to its RoundTrip. The send is the
// read loop's last use of cs, which RoundTrip then recycles.
func (cc *ClientConn) completeStream(cs *clientStream) {
	if cc.take(cs.id) == nil {
		return
	}
	if !cs.hasStatus {
		cs.err = StreamError{cs.id, ErrCodeProtocol, "response without :status"}
	}
	cs.done <- struct{}{}
}
