package h2

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strconv"
	"sync"

	"dohcost/internal/hpack"
)

// Handler produces the response for one request. Handlers run concurrently,
// one goroutine per stream — a slow handler delays only its own stream,
// which is precisely the property Figure 2 measures. What an InlineHandler
// answers on the read loop never gets that far.
//
// req is the connection's: it, its Header and its Body are valid until the
// response has been written — which is after ServeH2 returns, so a response
// may borrow from its request — and serve another request after that. A
// handler that keeps any of it longer copies it.
type Handler interface {
	ServeH2(req *Request) *Response
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(req *Request) *Response

// ServeH2 implements Handler.
func (f HandlerFunc) ServeH2(req *Request) *Response { return f(req) }

// InlineHandler is the optional step a Handler offers the connection's read
// loop, asked once a request is complete and before the stream gets its
// goroutine. ServeH2Inline must not block. A non-nil resp answers the
// request: the server writes it from the read loop when it fits the send
// windows, else from the stream's goroutine. A nil resp declines, and the
// stream's goroutine runs next — the handler's way to carry on with what the
// inline step began — or ServeH2 when next is nil too.
//
// An answered request is over when ServeH2Inline returns: req is valid only
// that long. resp may be the handler's own, filled anew by each call — the
// server has written it, or copied it for the stream's goroutine, before it
// asks again. A declined request is its stream's goroutine's, and req valid,
// like ServeH2's, until that has written the response.
type InlineHandler interface {
	Handler
	ServeH2Inline(req *Request) (resp *Response, next func() *Response)
}

// Server serves HTTP/2 connections.
type Server struct {
	Handler Handler
	// Emission is the study's model parameter (see the package comment);
	// the zero value is MessagePerFlight.
	Emission Emission
}

const (
	// maxConcurrentStreams is advertised, and enforced on streams whose
	// handler is running or whose response is waiting for window.
	maxConcurrentStreams = 1000
	// maxRequestBody is the largest DNS message: nothing this server
	// carries needs a longer request, so a longer one is reset rather
	// than buffered.
	maxRequestBody = 65535
	// maxFreeStreams and maxKeptBody bound what a connection's free list
	// holds on to: the streams a burst of DNS queries needs, with room for a
	// DNS query each, whatever a peer once sent.
	maxFreeStreams = 32
	maxKeptBody    = 1 << 10
)

// serverStream accumulates one inbound request. Streams are recycled through
// the connection's free list, req's Header and Body capacity with them.
type serverStream struct {
	stream
	req    Request
	gotEnd bool // half-closed (remote): the request is complete
	// held is set once the stream has a goroutine, which then is the one to
	// recycle it; until then the read loop does, when it closes the stream
	// (read loop only).
	held bool
}

// serverConn is the per-connection state.
type serverConn struct {
	link
	srv    *Server
	inline InlineHandler // srv.Handler's inline step, if it has one
	conn   net.Conn

	streams    map[uint32]*serverStream // under mu
	free       []*serverStream          // closed streams to reuse, under mu
	active     int                      // streams holding a goroutine, under mu
	lastStream uint32                   // highest id opened (read loop only)

	wg sync.WaitGroup
}

// ServeConn runs the HTTP/2 protocol on conn until it closes, dispatching
// requests to the server's handler. It returns nil on clean shutdown
// (client GOAWAY or EOF).
func (s *Server) ServeConn(conn net.Conn) error {
	sc := &serverConn{
		srv:     s,
		conn:    conn,
		streams: make(map[uint32]*serverStream),
	}
	sc.init(conn, s.Emission, sc)
	sc.inline, _ = s.Handler.(InlineHandler)
	defer func() {
		sc.fail(ErrConnClosed)
		conn.Close()
		sc.wg.Wait()
	}()

	if err := sc.fr.ReadPreface(); err != nil {
		return fmt.Errorf("h2: reading preface: %w", err)
	}
	err := sc.writeSettings(
		Setting{SettingMaxConcurrentStreams, maxConcurrentStreams},
		Setting{SettingMaxFrameSize, defaultMaxFrameSize}, // all the Framer reads
		Setting{SettingInitialWindowSize, defaultInitialWindowSize},
	)
	if err != nil {
		return fmt.Errorf("h2: writing settings: %w", err)
	}

	for {
		fr, err := sc.fr.ReadFrame()
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrUnexpectedEOF) {
				return nil
			}
			return err
		}
		if err := sc.handleFrame(fr); err != nil {
			var goaway ConnError
			if errors.As(err, &goaway) && goaway.Code == ErrCodeNo {
				return nil // clean client GOAWAY
			}
			sc.goAway(err)
			return err
		}
	}
}

// Stats returns nil until ServeConn has started; exposed mainly for tests.
func (sc *serverConn) Stats() *FrameStats { return &sc.fr.Stats }

// lookup returns the open stream with the given id, or nil.
func (sc *serverConn) lookup(id uint32) *serverStream {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.streams[id]
}

// sendStream implements endpoint.
func (sc *serverConn) sendStream(id uint32) *stream {
	if st := sc.lookup(id); st != nil {
		return &st.stream
	}
	return nil
}

// handleReset implements endpoint.
func (sc *serverConn) handleReset(fr Frame) {
	if st := sc.lookup(fr.StreamID); st != nil {
		sc.peerReset(&st.stream, fr)
		sc.closeStream(st)
	}
}

// handleHeaders implements endpoint: a request's header block, or trailers.
func (sc *serverConn) handleHeaders(id uint32, fields []hpack.HeaderField, endStream bool) error {
	if id%2 == 0 {
		return ConnError{ErrCodeProtocol, "bad stream id for HEADERS"}
	}
	if st := sc.lookup(id); st != nil {
		// A second header block is trailers, which may only end an open
		// request; half-closed (remote) takes no more frames.
		if st.gotEnd || !endStream {
			return sc.resetStream(st, ErrCodeStreamClosed)
		}
		return sc.endStream(st)
	}
	if id <= sc.lastStream {
		return ConnError{ErrCodeProtocol, "HEADERS on a closed stream"}
	}
	sc.lastStream = id
	sc.mu.Lock()
	var st *serverStream
	if n := len(sc.free); n > 0 {
		st, sc.free = sc.free[n-1], sc.free[:n-1]
		st.stream, st.gotEnd, st.held = stream{}, false, false
	} else {
		st = new(serverStream)
	}
	st.id = id
	sc.streams[id] = st
	sc.mu.Unlock()
	for _, f := range fields {
		switch f.Name {
		case ":method":
			st.req.Method = f.Value
		case ":scheme":
			st.req.Scheme = f.Value
		case ":authority":
			st.req.Authority = f.Value
		case ":path":
			st.req.Path = f.Value
		default:
			st.req.Header = append(st.req.Header, f)
		}
	}
	if st.req.Method == "" || st.req.Path == "" {
		return sc.resetStream(st, ErrCodeProtocol)
	}
	if endStream {
		return sc.endStream(st)
	}
	return nil
}

func (sc *serverConn) handleData(fr Frame) error {
	data, err := stripPadding(fr)
	if err != nil {
		return err
	}
	st, n := sc.lookup(fr.StreamID), len(fr.Payload)
	switch {
	case st == nil: // stale DATA for a stream already gone
		return sc.credit(0, n)
	case st.gotEnd, len(st.req.Body)+len(data) > maxRequestBody: // in this order: past gotEnd, req is its goroutine's
		code := ErrCodeEnhanceYourCalm
		if st.gotEnd {
			code = ErrCodeStreamClosed // half-closed (remote) takes no more frames
		}
		if err := sc.credit(0, n); err != nil {
			return err
		}
		return sc.resetStream(st, code)
	}
	st.req.Body = append(st.req.Body, data...)
	if fr.Flags&FlagEndStream == 0 {
		return sc.credit(st.id, n)
	}
	if err := sc.credit(0, n); err != nil {
		return err
	}
	return sc.endStream(st)
}

// endStream runs once per stream, when its request is complete: the
// handler's inline step here on the read loop, if it has one, and whatever
// that leaves on the stream's own goroutine, so streams answer in completion
// order, not arrival order. A stream holds one of the advertised
// maxConcurrentStreams slots only while it holds a goroutine.
func (sc *serverConn) endStream(st *serverStream) error {
	st.gotEnd = true
	var next func() *Response
	if sc.inline != nil {
		var resp *Response
		if resp, next = sc.inline.ServeH2Inline(&st.req); resp != nil {
			if sent, err := sc.writeResponse(st, resp, true); sent || err != nil {
				return err
			}
			// The write waits for window on the stream's goroutine, while
			// the handler fills resp again for the next request.
			resp = &Response{Status: resp.Status, Header: slices.Clone(resp.Header), Body: bytes.Clone(resp.Body)}
			next = func() *Response { return resp }
		}
	}
	sc.mu.Lock()
	full := sc.active >= maxConcurrentStreams
	if !full {
		sc.active++
	}
	sc.mu.Unlock()
	if full {
		return sc.resetStream(st, ErrCodeRefusedStream)
	}
	st.held = true
	sc.wg.Add(1)
	go func() {
		var resp *Response
		if next != nil {
			resp = next()
		} else {
			resp = sc.srv.Handler.ServeH2(&st.req)
		}
		if resp == nil {
			resp = &Response{Status: 500}
		}
		_, err := sc.writeResponse(st, resp, false)
		sc.release(st, err)
	}()
	return nil
}

// release ends a stream's goroutine: its slot is free, the stream — closed
// by now, by its response or by a reset — is recycled, and a write error
// other than the peer's reset of that stream means the connection is
// broken. It and setFields are leaves of their own so that the frames the
// response path nests under — the goroutine's, writeResponse's — stay
// small: HPACK's table lookup is deep, and past a new goroutine's 2 KB
// stack every response of a cheap handler would pay a stack copy.
func (sc *serverConn) release(st *serverStream, err error) {
	sc.mu.Lock()
	sc.active--
	sc.recycleLocked(st)
	sc.mu.Unlock()
	var reset StreamError
	if err != nil && !errors.As(err, &reset) {
		sc.conn.Close() // the read loop will exit
	}
	sc.wg.Done()
}

// writeResponse sends resp as st's one message and closes the stream. From
// the read loop (inline) it declines, sent false, a response that would have
// to wait for window. A stream reset in the meantime gets nothing.
func (sc *serverConn) writeResponse(st *serverStream, resp *Response, inline bool) (sent bool, err error) {
	if sc.lookup(st.id) == nil {
		return true, nil
	}
	sc.encMu.Lock()
	sc.setFields(resp)
	if sent, err = sc.writeMessage(&st.stream, resp.Body, inline); sent {
		sc.closeStream(st)
	}
	return sent, err
}

func (sc *serverConn) setFields(resp *Response) {
	sc.fields = append(sc.fields[:0], hpack.HeaderField{Name: ":status", Value: statusValue(resp.Status)})
	sc.fields = append(sc.fields, resp.Header...)
}

// statusValues is :status for the codes this repository's handlers answer
// with, so that rendering one allocates nothing.
var statusValues = [...]struct {
	status int
	value  string
}{{200, "200"}, {400, "400"}, {404, "404"}, {405, "405"}, {415, "415"}, {500, "500"}}

func statusValue(status int) string {
	for _, s := range statusValues {
		if s.status == status {
			return s.value
		}
	}
	return strconv.Itoa(status)
}

// closeStream takes st out of the open streams, from the read loop or from
// st's goroutine. A stream that never got a goroutine ends here.
func (sc *serverConn) closeStream(st *serverStream) {
	sc.mu.Lock()
	delete(sc.streams, st.id) // ids are never reopened, so the entry is st or absent
	if !st.held {
		sc.recycleLocked(st)
	}
	sc.mu.Unlock()
}

// recycleLocked returns st, closed and its request over, to the free list
// with what request capacity is worth keeping. The caller holds mu. Only
// req is touched: the read loop may be looking at the rest of a stream it
// found open a moment ago — gotEnd and held set, so it leaves req alone —
// and that is cleared when the stream is next taken.
func (sc *serverConn) recycleLocked(st *serverStream) {
	if len(sc.free) == maxFreeStreams {
		return
	}
	hdr, body := st.req.Header, st.req.Body
	clear(hdr)
	if cap(hdr) > maxKeptFields {
		hdr = nil
	}
	if cap(body) > maxKeptBody {
		body = nil
	}
	st.req = Request{Header: hdr[:0], Body: body[:0]}
	sc.free = append(sc.free, st)
}

func (sc *serverConn) resetStream(st *serverStream, code ErrCode) error {
	sc.closeStream(st) // st may now be on the free list, its id still this one
	return sc.fr.WriteFrame(FrameRSTStream, 0, st.id, binary.BigEndian.AppendUint32(nil, uint32(code)))
}
