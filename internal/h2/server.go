package h2

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"

	"dohcost/internal/hpack"
)

// Handler produces the response for one request. Handlers run concurrently,
// one goroutine per stream — a slow handler delays only its own stream,
// which is precisely the property Figure 2 measures. What an InlineHandler
// answers on the read loop never gets that far.
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
type InlineHandler interface {
	Handler
	ServeH2Inline(req *Request) (resp *Response, next func() *Response)
}

// Server serves HTTP/2 connections.
type Server struct {
	Handler Handler
	// MaxFrameSize advertised to peers; zero means the 16 KB default.
	MaxFrameSize uint32
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
)

// serverStream accumulates one inbound request.
type serverStream struct {
	stream
	req    Request
	gotEnd bool // half-closed (remote): the request is complete
}

// serverConn is the per-connection state.
type serverConn struct {
	link
	srv    *Server
	inline InlineHandler // srv.Handler's inline step, if it has one
	conn   net.Conn
	hdec   *hpack.Decoder

	streams    map[uint32]*serverStream // under mu
	active     int                      // streams holding a goroutine, under mu
	lastStream uint32                   // highest id opened (read loop only)

	contStream uint32
	contEnd    bool
	contBuf    []byte
	inContinue bool

	wg sync.WaitGroup
}

// ServeConn runs the HTTP/2 protocol on conn until it closes, dispatching
// requests to the server's handler. It returns nil on clean shutdown
// (client GOAWAY or EOF).
func (s *Server) ServeConn(conn net.Conn) error {
	sc := &serverConn{
		srv:     s,
		conn:    conn,
		hdec:    hpack.NewDecoder(),
		streams: make(map[uint32]*serverStream),
	}
	sc.init(conn, s.Emission)
	sc.inline, _ = s.Handler.(InlineHandler)
	defer func() {
		sc.fail(ErrConnClosed)
		conn.Close()
		sc.wg.Wait()
	}()

	if err := sc.fr.ReadPreface(); err != nil {
		return fmt.Errorf("h2: reading preface: %w", err)
	}
	maxFrame := s.MaxFrameSize
	if maxFrame == 0 {
		maxFrame = defaultMaxFrameSize
	}
	err := sc.fr.WriteFrame(FrameSettings, 0, 0, encodeSettings([]Setting{
		{SettingMaxConcurrentStreams, maxConcurrentStreams},
		{SettingMaxFrameSize, maxFrame},
		{SettingInitialWindowSize, defaultInitialWindowSize},
	}))
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
			sc.fr.WriteFrame(FrameGoAway, 0, 0, make([]byte, 8))
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

func (sc *serverConn) handleFrame(fr Frame) error {
	if sc.inContinue && fr.Type != FrameContinuation {
		return ConnError{ErrCodeProtocol, "expected CONTINUATION"}
	}
	switch fr.Type {
	case FrameSettings:
		return sc.handleSettings(fr)
	case FramePing:
		if fr.Flags&FlagAck == 0 {
			payload := append([]byte(nil), fr.Payload...)
			return sc.fr.WriteFrame(FramePing, FlagAck, 0, payload)
		}
	case FrameWindowUpdate:
		if st := sc.lookup(fr.StreamID); st != nil {
			return sc.handleWindowUpdate(fr, &st.stream)
		}
		return sc.handleWindowUpdate(fr, nil)
	case FrameHeaders:
		if fr.StreamID == 0 || fr.StreamID%2 == 0 {
			return ConnError{ErrCodeProtocol, "bad stream id for HEADERS"}
		}
		block, err := stripPadding(fr)
		if err != nil {
			return err
		}
		sc.contStream = fr.StreamID
		sc.contEnd = fr.Flags&FlagEndStream != 0
		sc.contBuf = append(sc.contBuf[:0], block...)
		if fr.Flags&FlagEndHeaders != 0 {
			return sc.finishHeaders()
		}
		sc.inContinue = true
	case FrameContinuation:
		if !sc.inContinue || fr.StreamID != sc.contStream {
			return ConnError{ErrCodeProtocol, "unexpected CONTINUATION"}
		}
		sc.contBuf = append(sc.contBuf, fr.Payload...)
		if fr.Flags&FlagEndHeaders != 0 {
			sc.inContinue = false
			return sc.finishHeaders()
		}
	case FrameData:
		return sc.handleData(fr)
	case FrameRSTStream:
		if st := sc.lookup(fr.StreamID); st != nil {
			sc.peerReset(&st.stream, fr)
			sc.closeStream(st)
		}
	case FrameGoAway:
		return ConnError{ErrCodeNo, "client GOAWAY"}
	case FramePriority, FramePushPromise:
		// PRIORITY is advisory; clients cannot push.
	}
	return nil
}

func (sc *serverConn) finishHeaders() error {
	fields, err := sc.hdec.Decode(sc.contBuf)
	if err != nil {
		return ConnError{ErrCodeCompression, err.Error()}
	}
	id := sc.contStream
	if st := sc.lookup(id); st != nil {
		// A second header block is trailers, which may only end an open
		// request; half-closed (remote) takes no more frames.
		if st.gotEnd || !sc.contEnd {
			return sc.resetStream(st, ErrCodeStreamClosed)
		}
		return sc.endStream(st)
	}
	if id <= sc.lastStream {
		return ConnError{ErrCodeProtocol, "HEADERS on a closed stream"}
	}
	sc.lastStream = id
	st := &serverStream{stream: stream{id: id}}
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
	sc.mu.Lock()
	sc.streams[id] = st
	sc.mu.Unlock()
	if sc.contEnd {
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
	case st.gotEnd, len(st.req.Body)+len(data) > maxRequestBody:
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
		sc.release(err)
	}()
	return nil
}

// release ends a stream's goroutine: its slot is free, and a write error
// other than the peer's reset of that stream means the connection is
// broken. It and setFields are leaves of their own so that the frames the
// response path nests under — the goroutine's, writeResponse's — stay
// small: HPACK's table lookup is deep, and past a new goroutine's 2 KB
// stack every response of a cheap handler would pay a stack copy.
func (sc *serverConn) release(err error) {
	sc.mu.Lock()
	sc.active--
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
	sc.fields = append(sc.fields[:0], hpack.HeaderField{Name: ":status", Value: strconv.Itoa(resp.Status)})
	sc.fields = append(sc.fields, resp.Header...)
}

func (sc *serverConn) closeStream(st *serverStream) {
	sc.mu.Lock()
	delete(sc.streams, st.id) // ids are never reopened, so the entry is st or absent
	sc.mu.Unlock()
}

func (sc *serverConn) resetStream(st *serverStream, code ErrCode) error {
	sc.closeStream(st)
	return sc.fr.WriteFrame(FrameRSTStream, 0, st.id, binary.BigEndian.AppendUint32(nil, uint32(code)))
}
