package h2

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strconv"

	"dohcost/internal/hpack"
)

// Request is an HTTP/2 request. Header carries only regular fields; the
// pseudo-headers travel in the dedicated struct fields.
type Request struct {
	Method    string
	Scheme    string
	Authority string
	Path      string
	Header    []hpack.HeaderField
	Body      []byte
}

// Response is a complete HTTP/2 response.
type Response struct {
	Status int
	Header []hpack.HeaderField
	Body   []byte
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

// clientStream tracks one in-flight request.
type clientStream struct {
	stream
	resp Response
	err  error
	done chan struct{}

	hasStatus bool
}

// ClientConn is an HTTP/2 client connection multiplexing concurrent
// requests over one transport connection. Safe for concurrent use.
type ClientConn struct {
	link
	conn net.Conn

	streams map[uint32]*clientStream // under mu
	nextID  uint32                   // under encMu: ids ascend in emission order

	// header continuation accumulation (read loop only)
	hdec       *hpack.Decoder
	contStream uint32
	contEnd    bool
	contBuf    []byte
	inContinue bool
}

// NewClientConn performs the client side of connection setup (preface and
// SETTINGS) on conn and starts the read loop. model is the study's
// Emission parameter (see the package comment); omitted, it is
// MessagePerFlight.
func NewClientConn(conn net.Conn, model ...Emission) (*ClientConn, error) {
	cc := &ClientConn{
		conn:    conn,
		hdec:    hpack.NewDecoder(),
		streams: make(map[uint32]*clientStream),
		nextID:  1,
	}
	var e Emission
	if len(model) > 0 {
		e = model[0]
	}
	cc.init(conn, e)
	if err := cc.fr.WritePreface(); err != nil {
		return nil, fmt.Errorf("h2: writing preface: %w", err)
	}
	err := cc.fr.WriteFrame(FrameSettings, 0, 0, encodeSettings([]Setting{
		{SettingEnablePush, 0},
		{SettingInitialWindowSize, defaultInitialWindowSize},
		{SettingMaxConcurrentStreams, 1000},
	}))
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
	cc.fr.WriteFrame(FrameGoAway, 0, 0, make([]byte, 8))
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
		close(cs.done)
		delete(cc.streams, id)
	}
}

// RoundTrip sends req and waits for the complete response or ctx expiry.
// Concurrent RoundTrips multiplex onto independent streams.
func (cc *ClientConn) RoundTrip(ctx context.Context, req *Request) (*Response, error) {
	cs, err := cc.startRequest(req)
	if err != nil {
		return nil, err
	}
	select {
	case <-cs.done:
		if cs.err != nil {
			return nil, cs.err
		}
		return &cs.resp, nil
	case <-ctx.Done():
		cc.abortStream(cs, ErrCodeCancel)
		return nil, ctx.Err()
	}
}

// startRequest opens a stream and sends req on it as one message.
func (cc *ClientConn) startRequest(req *Request) (*clientStream, error) {
	cs := &clientStream{done: make(chan struct{})}
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
			cc.fr.WriteFrame(FrameGoAway, 0, 0, make([]byte, 8))
			cc.failAll(err)
			cc.conn.Close()
			return
		}
	}
}

func (cc *ClientConn) handleFrame(fr Frame) error {
	if cc.inContinue && fr.Type != FrameContinuation {
		return ConnError{ErrCodeProtocol, "expected CONTINUATION"}
	}
	switch fr.Type {
	case FrameSettings:
		return cc.handleSettings(fr)
	case FramePing:
		if fr.Flags&FlagAck == 0 {
			payload := append([]byte(nil), fr.Payload...)
			return cc.fr.WriteFrame(FramePing, FlagAck, 0, payload)
		}
	case FrameWindowUpdate:
		if cs := cc.lookup(fr.StreamID); cs != nil {
			return cc.handleWindowUpdate(fr, &cs.stream)
		}
		return cc.handleWindowUpdate(fr, nil)
	case FrameHeaders:
		block, err := stripPadding(fr)
		if err != nil {
			return err
		}
		cc.contStream = fr.StreamID
		cc.contEnd = fr.Flags&FlagEndStream != 0
		cc.contBuf = append(cc.contBuf[:0], block...)
		if fr.Flags&FlagEndHeaders != 0 {
			return cc.finishHeaders()
		}
		cc.inContinue = true
	case FrameContinuation:
		if !cc.inContinue || fr.StreamID != cc.contStream {
			return ConnError{ErrCodeProtocol, "unexpected CONTINUATION"}
		}
		cc.contBuf = append(cc.contBuf, fr.Payload...)
		if fr.Flags&FlagEndHeaders != 0 {
			cc.inContinue = false
			return cc.finishHeaders()
		}
	case FrameData:
		return cc.handleData(fr)
	case FrameRSTStream:
		if cs := cc.take(fr.StreamID); cs != nil {
			cc.peerReset(&cs.stream, fr)
			cs.err = cs.reset
			close(cs.done)
		}
	case FrameGoAway:
		return ConnError{ErrCodeNo, "received GOAWAY"}
	case FramePriority, FramePushPromise:
		// PRIORITY is advisory; PUSH_PROMISE is disabled via settings and
		// ignoring it is safe for this client's use.
	}
	return nil
}

// finishHeaders decodes an assembled header block and applies it to its
// stream.
func (cc *ClientConn) finishHeaders() error {
	fields, err := cc.hdec.Decode(cc.contBuf)
	if err != nil {
		return ConnError{ErrCodeCompression, err.Error()}
	}
	cs := cc.lookup(cc.contStream)
	if cs == nil {
		return nil // stream already gone (cancelled); state remains valid
	}
	for _, f := range fields {
		if f.Name == ":status" {
			code, err := strconv.Atoi(f.Value)
			if err != nil {
				return StreamError{cs.id, ErrCodeProtocol, "bad :status"}
			}
			cs.resp.Status = code
			cs.hasStatus = true
			continue
		}
		cs.resp.Header = append(cs.resp.Header, f)
	}
	if cc.contEnd {
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
		cc.completeStream(cs)
		return cc.credit(0, len(fr.Payload))
	}
	return cc.credit(cs.id, len(fr.Payload))
}

func (cc *ClientConn) completeStream(cs *clientStream) {
	if cc.take(cs.id) == nil {
		return
	}
	if !cs.hasStatus {
		cs.err = StreamError{cs.id, ErrCodeProtocol, "response without :status"}
	}
	close(cs.done)
}
