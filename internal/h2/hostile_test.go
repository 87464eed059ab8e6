package h2

// Both ends against peers that do not follow the protocol, or follow it to
// exhaust them: frames on finished streams, unbounded bodies, more streams
// than advertised, windows that never open, arbitrary bytes.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dohcost/internal/hpack"
)

// rawClient speaks frames directly: preface and SETTINGS are sent, the
// server's SETTINGS are not yet read.
func rawClient(t *testing.T, srv *Server) *Framer {
	t.Helper()
	c, s := pipe(t)
	go srv.ServeConn(s)
	fr := NewFramer(c)
	if err := fr.WritePreface(); err != nil {
		t.Fatal(err)
	}
	if err := fr.WriteFrame(FrameSettings, 0, 0, nil); err != nil {
		t.Fatal(err)
	}
	return fr
}

func requestBlock(method, path string) []byte {
	return hpack.NewEncoder().AppendEncode(nil, []hpack.HeaderField{
		{Name: ":method", Value: method}, {Name: ":scheme", Value: "https"},
		{Name: ":authority", Value: "h2.test"}, {Name: ":path", Value: path},
	})
}

// readUntil returns the frames read up to and including the first that
// matches, payloads copied.
func readUntil(t *testing.T, fr *Framer, match func(Frame) bool) []Frame {
	t.Helper()
	var seen []Frame
	for {
		f, err := fr.ReadFrame()
		if err != nil {
			t.Fatalf("after %d frames: %v", len(seen), err)
		}
		f.Payload = append([]byte(nil), f.Payload...)
		if seen = append(seen, f); match(f) {
			return seen
		}
	}
}

func isReset(id uint32, code ErrCode) func(Frame) bool {
	return func(f Frame) bool {
		return f.Type == FrameRSTStream && f.StreamID == id && len(f.Payload) == 4 &&
			ErrCode(binary.BigEndian.Uint32(f.Payload)) == code
	}
}

// TestFramesOnHalfClosedStreamAreReset: once a request has ended, DATA or
// HEADERS on its stream is answered RST_STREAM(STREAM_CLOSED). The handler
// ran once, on a request nobody appends to under it, and the reset stream
// gets no response.
func TestFramesOnHalfClosedStreamAreReset(t *testing.T) {
	var runs atomic.Int64
	entered, release := make(chan struct{}, 2), make(chan struct{})
	fr := rawClient(t, &Server{Handler: HandlerFunc(func(req *Request) *Response {
		runs.Add(1)
		entered <- struct{}{}
		<-release
		return &Response{Status: 200, Body: req.Body}
	})})
	for i, second := range []FrameType{FrameData, FrameHeaders} {
		id := uint32(2*i + 1)
		if err := fr.WriteFrame(FrameHeaders, FlagEndHeaders, id, requestBlock("POST", "/")); err != nil {
			t.Fatal(err)
		}
		if err := fr.WriteFrame(FrameData, FlagEndStream, id, []byte("once")); err != nil {
			t.Fatal(err)
		}
		<-entered
		payload, flags := []byte("twice"), uint8(FlagEndStream)
		if second == FrameHeaders {
			payload, flags = requestBlock("POST", "/"), FlagEndStream|FlagEndHeaders
		}
		if err := fr.WriteFrame(second, flags, id, payload); err != nil {
			t.Fatal(err)
		}
		readUntil(t, fr, isReset(id, ErrCodeStreamClosed))
	}
	close(release)
	if err := fr.WriteFrame(FramePing, 0, 0, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	for _, f := range readUntil(t, fr, func(f Frame) bool { return f.Type == FramePing }) {
		if f.Type == FrameHeaders || f.Type == FrameData {
			t.Errorf("%s on reset stream %d", f.Type, f.StreamID)
		}
	}
	if runs.Load() != 2 {
		t.Errorf("handler ran %d times for 2 streams", runs.Load())
	}
}

// TestClosedStreamIDIsNotReopened: HEADERS on an id at or below the highest
// one opened, its stream gone, is a connection error, not a second request.
func TestClosedStreamIDIsNotReopened(t *testing.T) {
	var runs atomic.Int64
	fr := rawClient(t, &Server{Handler: HandlerFunc(func(*Request) *Response {
		runs.Add(1)
		return &Response{Status: 200}
	})})
	open := func() {
		if err := fr.WriteFrame(FrameHeaders, FlagEndHeaders|FlagEndStream, 5, requestBlock("GET", "/")); err != nil {
			t.Fatal(err)
		}
	}
	open()
	readUntil(t, fr, func(f Frame) bool { return f.Type == FrameHeaders && f.StreamID == 5 })
	open()
	readUntil(t, fr, func(f Frame) bool { return f.Type == FrameGoAway })
	if runs.Load() != 1 {
		t.Errorf("handler ran %d times for one stream id", runs.Load())
	}
}

// TestRequestBodyCap: a request body past the largest DNS message is reset,
// not buffered, and the connection carries on.
func TestRequestBodyCap(t *testing.T) {
	var runs atomic.Int64
	cc := dialClient(t, startServer(t, HandlerFunc(func(req *Request) *Response {
		runs.Add(1)
		return &Response{Status: 200, Body: req.Body}
	})))
	_, err := cc.RoundTrip(context.Background(), &Request{
		Method: "POST", Scheme: "https", Authority: "h2.test", Path: "/", Body: bytes.Repeat([]byte("B"), 70<<10),
	})
	var reset StreamError
	if !errors.As(err, &reset) || reset.Code != ErrCodeEnhanceYourCalm {
		t.Fatalf("70 KB body: %v, want RST_STREAM(ENHANCE_YOUR_CALM)", err)
	}
	if runs.Load() != 0 {
		t.Error("handler ran on a request that was reset")
	}
	limit := bytes.Repeat([]byte("b"), maxRequestBody)
	if resp := post(t, cc, "/", limit); !bytes.Equal(resp.Body, limit) {
		t.Errorf("a %d-byte body after the reset: %d bytes back", len(limit), len(resp.Body))
	}
}

// TestMaxConcurrentStreamsEnforced: with every advertised slot held by a
// blocked handler the next dispatched stream is refused, while hits the
// inline step answers need no slot; slots free as handlers return.
func TestMaxConcurrentStreamsEnforced(t *testing.T) {
	h := &splitHandler{entered: make(chan struct{}, maxConcurrentStreams), release: make(chan struct{})}
	cc := dialClient(t, startServer(t, h))
	get := func(path string) error {
		_, err := cc.RoundTrip(context.Background(), &Request{Method: "GET", Scheme: "https", Authority: "h2.test", Path: path})
		return err
	}
	var wg sync.WaitGroup
	for i := 0; i < maxConcurrentStreams; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := get("/block"); err != nil {
				t.Error(err)
			}
		}()
	}
	for i := 0; i < maxConcurrentStreams; i++ {
		<-h.entered
	}
	var reset StreamError
	if err := get("/one-too-many"); !errors.As(err, &reset) || reset.Code != ErrCodeRefusedStream {
		t.Errorf("stream %d: %v, want RST_STREAM(REFUSED_STREAM)", maxConcurrentStreams+1, err)
	}
	if err := get("/hit"); err != nil {
		t.Errorf("inline hit with every slot held: %v", err)
	}
	close(h.release)
	wg.Wait()
	if err := get("/after"); err != nil {
		t.Errorf("after the slots freed: %v", err)
	}
}

func isGoAway(code ErrCode) func(Frame) bool {
	return func(f Frame) bool {
		return f.Type == FrameGoAway && len(f.Payload) == 8 && ErrCode(binary.BigEndian.Uint32(f.Payload[4:])) == code
	}
}

// TestContinuationFloodIsBounded: a header block that keeps growing across
// CONTINUATION frames ends the connection with ENHANCE_YOUR_CALM once it is
// past the advertised bound, instead of being buffered until END_HEADERS.
func TestContinuationFloodIsBounded(t *testing.T) {
	var runs atomic.Int64
	fr := rawClient(t, &Server{Handler: HandlerFunc(func(*Request) *Response {
		runs.Add(1)
		return &Response{Status: 200}
	})})
	advertised := false
	for _, f := range readUntil(t, fr, func(f Frame) bool { return f.Type == FrameSettings && f.Flags&FlagAck == 0 }) {
		settings, err := decodeSettings(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range settings {
			advertised = advertised || s == Setting{SettingMaxHeaderListSize, maxHeaderBlock}
		}
	}
	if !advertised {
		t.Errorf("SETTINGS_MAX_HEADER_LIST_SIZE %d not advertised", maxHeaderBlock)
	}
	// A never-indexed literal whose value is as long as the peer cares to
	// make it: every fragment is plausible until the block ends.
	chunk := bytes.Repeat([]byte("c"), defaultMaxFrameSize)
	go func() { // the server stops reading at the bound; the pipe may then fill
		fr.WriteFrame(FrameHeaders, 0, 1, requestBlock("POST", "/"))
		for i := 0; i < 2*maxHeaderBlock/len(chunk); i++ {
			if fr.WriteFrame(FrameContinuation, 0, 1, chunk) != nil {
				return
			}
		}
	}()
	readUntil(t, fr, isGoAway(ErrCodeEnhanceYourCalm))
	if runs.Load() != 0 {
		t.Error("handler ran on a request whose header block never ended")
	}
}

// TestMalformedPingIsAConnectionError: a PING that is not 8 octets, or is on
// a stream, is answered with the connection error RFC 7540 §6.7 names, not
// echoed — by the server and by the client, which share the handling.
func TestMalformedPingIsAConnectionError(t *testing.T) {
	for _, c := range []struct {
		name    string
		stream  uint32
		payload []byte
		want    ErrCode
	}{
		{"short", 0, []byte("1234"), ErrCodeFrameSize},
		{"long", 0, []byte("123456789"), ErrCodeFrameSize},
		{"on a stream", 1, []byte("12345678"), ErrCodeProtocol},
	} {
		t.Run("server/"+c.name, func(t *testing.T) {
			fr := rawClient(t, &Server{Handler: HandlerFunc(sameBody)})
			if err := fr.WriteFrame(FramePing, 0, c.stream, c.payload); err != nil {
				t.Fatal(err)
			}
			for _, f := range readUntil(t, fr, isGoAway(c.want)) {
				if f.Type == FramePing {
					t.Errorf("malformed PING echoed: %x", f.Payload)
				}
			}
		})
		t.Run("client/"+c.name, func(t *testing.T) {
			clientEnd, serverEnd := pipe(t)
			cc, err := NewClientConn(clientEnd)
			if err != nil {
				t.Fatal(err)
			}
			defer cc.Close()
			fr := NewFramer(serverEnd)
			if err := fr.ReadPreface(); err != nil {
				t.Fatal(err)
			}
			if err := fr.WriteFrame(FramePing, 0, c.stream, c.payload); err != nil {
				t.Fatal(err)
			}
			for _, f := range readUntil(t, fr, isGoAway(c.want)) {
				if f.Type == FramePing {
					t.Errorf("malformed PING echoed: %x", f.Payload)
				}
			}
			if _, err := cc.RoundTrip(context.Background(), &Request{Method: "GET", Scheme: "https", Authority: "h2.test", Path: "/"}); err == nil {
				t.Error("request accepted on a connection the peer broke")
			}
		})
	}
	// A well-formed PING is still echoed, payload intact.
	fr := rawClient(t, &Server{Handler: HandlerFunc(sameBody)})
	if err := fr.WriteFrame(FramePing, 0, 0, []byte("8 octets")); err != nil {
		t.Fatal(err)
	}
	echo := readUntil(t, fr, func(f Frame) bool { return f.Type == FramePing })
	if got := echo[len(echo)-1]; got.Flags&FlagAck == 0 || string(got.Payload) != "8 octets" {
		t.Errorf("PING answered with flags %#x payload %q", got.Flags, got.Payload)
	}
}

// scriptConn plays a fixed byte string to the server and records what the
// server writes back.
type scriptConn struct {
	net.Conn // nil: the server must need nothing but Read, Write and Close
	mu       sync.Mutex
	in       *bytes.Reader
	out      bytes.Buffer
}

func (c *scriptConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.in.Read(p)
}

func (c *scriptConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.out.Write(p)
}

func (c *scriptConn) Close() error { return nil }

// FuzzServerConn feeds the server arbitrary bytes after a valid preface.
// Whatever they are: no panic, ServeConn returns with every handler
// goroutine finished, no request is handed to two handlers at once — streams
// are recycled, but never from under a running handler — nor to more
// handlers than the input opens streams, and no stream carries two
// responses.
func FuzzServerConn(f *testing.F) {
	script := func(write func(fr *Framer)) []byte {
		var b bytes.Buffer
		fr := NewFramer(&b)
		fr.WriteFrame(FrameSettings, 0, 0, nil)
		write(fr)
		return b.Bytes()
	}
	block := requestBlock("POST", "/dns-query")
	f.Add(script(func(fr *Framer) { // a recorded POST
		fr.WriteFrame(FrameHeaders, FlagEndHeaders, 1, block)
		fr.WriteFrame(FrameData, FlagEndStream, 1, []byte("query"))
	}))
	f.Add(script(func(fr *Framer) { // a header block split across CONTINUATION
		fr.WriteFrame(FrameHeaders, FlagEndStream, 1, block[:3])
		fr.WriteFrame(FrameContinuation, 0, 1, block[3:5])
		fr.WriteFrame(FrameContinuation, FlagEndHeaders, 1, block[5:])
	}))
	f.Add(script(func(fr *Framer) { // END_STREAM twice on one stream
		fr.WriteFrame(FrameHeaders, FlagEndHeaders, 1, block)
		fr.WriteFrame(FrameData, FlagEndStream, 1, []byte("once"))
		fr.WriteFrame(FrameData, FlagEndStream, 1, []byte("twice"))
		fr.WriteFrame(FrameHeaders, FlagEndHeaders|FlagEndStream, 1, block)
	}))
	f.Add(script(func(fr *Framer) { // windows pushed to and past 2^31-1
		fr.WriteFrame(FrameWindowUpdate, 0, 0, []byte{0x7f, 0xff, 0xff, 0xff})
		fr.WriteFrame(FrameHeaders, FlagEndHeaders, 1, block)
		fr.WriteFrame(FrameWindowUpdate, 0, 1, []byte{0x7f, 0xff, 0xff, 0xff})
		fr.WriteFrame(FrameData, FlagEndStream, 1, []byte("query"))
	}))
	f.Add(script(func(fr *Framer) { // a response that must wait for window forever
		fr.WriteFrame(FrameSettings, 0, 0, encodeSettings([]Setting{{SettingInitialWindowSize, 0}, {SettingMaxFrameSize, 0}}))
		fr.WriteFrame(FrameSettings, 0, 0, encodeSettings([]Setting{{SettingInitialWindowSize, 0}}))
		fr.WriteFrame(FrameHeaders, FlagEndHeaders|FlagEndStream, 1, block)
		fr.WriteFrame(FramePing, 0, 0, make([]byte, 8))
	}))
	f.Add(script(func(fr *Framer) { // a header block that never ends, past the bound
		fr.WriteFrame(FrameHeaders, 0, 1, block)
		for i := 0; i < 5; i++ {
			fr.WriteFrame(FrameContinuation, 0, 1, make([]byte, defaultMaxFrameSize))
		}
	}))
	f.Add(script(func(fr *Framer) { // streams recycled under resets, late DATA and malformed PINGs
		for id := uint32(1); id < 9; id += 2 {
			fr.WriteFrame(FrameHeaders, FlagEndHeaders, id, block)
			fr.WriteFrame(FrameData, FlagEndStream, id, []byte("query"))
			fr.WriteFrame(FrameRSTStream, 0, id, []byte{0, 0, 0, 8})
			fr.WriteFrame(FrameData, 0, id-2, []byte("late"))
		}
		fr.WriteFrame(FramePing, 0, 3, []byte("12345678"))
	}))

	f.Fuzz(func(t *testing.T, data []byte) {
		var mu sync.Mutex
		held := make(map[*Request]bool)
		var running, runs atomic.Int64
		srv := &Server{Handler: HandlerFunc(func(req *Request) *Response {
			running.Add(1)
			defer running.Add(-1)
			runs.Add(1)
			mu.Lock()
			if held[req] {
				t.Error("one request handed to two handlers at once")
			}
			held[req] = true
			mu.Unlock()
			body := append([]byte(nil), req.Body...)
			runtime.Gosched() // let the read loop run on under this handler
			if !bytes.Equal(body, req.Body) {
				t.Error("a request's body changed under its handler")
			}
			mu.Lock()
			delete(held, req)
			mu.Unlock()
			return &Response{Status: 200, Body: req.Body} // borrowed: written before the stream is recycled
		})}
		conn := &scriptConn{in: bytes.NewReader(append([]byte(ClientPreface), data...))}
		done := make(chan struct{})
		go func() { srv.ServeConn(conn); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("ServeConn did not return after its input ended")
		}
		if n := running.Load(); n != 0 {
			t.Errorf("%d handlers still running after ServeConn returned", n)
		}
		opened := make(map[uint32]bool)
		for b := data; len(b) >= frameHeaderLen; {
			end := frameHeaderLen + (int(b[0])<<16 | int(b[1])<<8 | int(b[2]))
			if FrameType(b[3]) == FrameHeaders {
				opened[binary.BigEndian.Uint32(b[5:])&0x7FFFFFFF] = true
			}
			b = b[min(end, len(b)):]
		}
		if n := runs.Load(); n > int64(len(opened)) {
			t.Errorf("handler ran %d times for %d streams opened", n, len(opened))
		}
		responses := make(map[uint32]int)
		for b := conn.out.Bytes(); len(b) > 0; {
			if len(b) < frameHeaderLen {
				t.Fatalf("server output ends in a partial frame header: %x", b)
			}
			end := frameHeaderLen + (int(b[0])<<16 | int(b[1])<<8 | int(b[2]))
			if len(b) < end {
				t.Fatalf("server output ends in a partial frame: %x", b)
			}
			if id := binary.BigEndian.Uint32(b[5:]); FrameType(b[3]) == FrameHeaders {
				if responses[id]++; responses[id] > 1 {
					t.Errorf("stream %d carries %d responses", id, responses[id])
				}
			}
			b = b[end:]
		}
	})
}

// rawServer is the server end of a connection to a ClientConn, speaking
// frames directly: the client's preface is read, its frames are read and
// dropped by a goroutine that reports each stream it opens on opened and
// each RST_STREAM's error code on resets, and ends once the connection does
// (drained is closed then).
func rawServer(s net.Conn) (opened chan uint32, resets chan ErrCode, drained chan struct{}) {
	opened, resets, drained = make(chan uint32, 8), make(chan ErrCode, 8), make(chan struct{})
	go func() {
		defer close(drained)
		fr := NewFramer(s)
		if fr.ReadPreface() != nil {
			return
		}
		for {
			f, err := fr.ReadFrame()
			if err != nil {
				return
			}
			switch {
			case f.Type == FrameHeaders:
				select {
				case opened <- f.StreamID:
				default:
				}
			case f.Type == FrameRSTStream && len(f.Payload) == 4:
				select {
				case resets <- ErrCode(binary.BigEndian.Uint32(f.Payload)):
				default:
				}
			}
		}
	}()
	return opened, resets, drained
}

// TestRequestWaitingForWindowHonoursContext: a request body the server's
// SETTINGS leave no window for waits for WINDOW_UPDATE only as long as the
// request's context lasts, and its stream is reset with CANCEL, as one
// cancelled while awaiting its response is.
func TestRequestWaitingForWindowHonoursContext(t *testing.T) {
	c, s := net.Pipe()
	opened, resets, drained := rawServer(s)
	cc, err := NewClientConn(c)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { cc.Close(); s.Close(); <-drained }()
	srv := NewFramer(s)
	if err := srv.WriteFrame(FrameSettings, 0, 0, encodeSettings([]Setting{{SettingInitialWindowSize, 0}})); err != nil {
		t.Fatal(err)
	}
	// The pipe's write returns once the client's read loop has read the
	// PING, by when it has applied the SETTINGS: the request below sees a
	// zero window.
	if err := srv.WriteFrame(FramePing, 0, 0, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := cc.RoundTrip(ctx, &Request{Method: "POST", Scheme: "https", Authority: "h2.test", Path: "/", Body: []byte("query")})
		done <- err
	}()
	<-opened // the header block has left; the body waits for window
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("round trip waiting for window: %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a cancelled round trip still waits for window")
	}
	select {
	case code := <-resets:
		if code != ErrCodeCancel {
			t.Errorf("cancelled stream reset with %v, want CANCEL", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a cancelled round trip left its stream open")
	}
}

// cutAfterEnds splits data after each frame whose flags have END_STREAM's
// bit set, into at most n parts, the last taking whatever is left.
func cutAfterEnds(data []byte, n int) [][]byte {
	var parts [][]byte
	start := 0
	for off := 0; off+frameHeaderLen <= len(data) && len(parts) < n-1; {
		end := min(len(data), off+frameHeaderLen+(int(data[off])<<16|int(data[off+1])<<8|int(data[off+2])))
		if data[off+4]&FlagEndStream != 0 {
			parts, start = append(parts, data[start:end]), end
		}
		off = end
	}
	return append(parts, data[start:])
}

// FuzzClientConn plays arbitrary server bytes, after the server's SETTINGS,
// to a ClientConn whose three round trips reuse one Request. The bytes are
// cut after each frame with END_STREAM's bit set into three parts; part k
// is written once round trip k has opened its stream, and then that round
// trip is cancelled. Whatever the bytes: no panic, every round trip returns,
// a response is received into its Request's storage, and once the
// connection is closed no goroutine is left.
func FuzzClientConn(f *testing.F) {
	script := func(write func(fr *Framer, enc *hpack.Encoder)) []byte {
		var b bytes.Buffer
		write(NewFramer(&b), hpack.NewEncoder())
		return b.Bytes()
	}
	answer := func(fr *Framer, enc *hpack.Encoder, id uint32, body string) {
		fr.WriteFrame(FrameHeaders, FlagEndHeaders, id, enc.AppendEncode(nil, []hpack.HeaderField{
			{Name: ":status", Value: "200"}, {Name: "content-type", Value: "application/dns-message"}}))
		fr.WriteFrame(FrameData, FlagEndStream, id, []byte(body))
	}
	f.Add(script(func(fr *Framer, enc *hpack.Encoder) { // three answers
		for id := uint32(1); id <= 5; id += 2 {
			answer(fr, enc, id, "answer")
		}
	}))
	f.Add(script(func(fr *Framer, enc *hpack.Encoder) { // a long body, then a short one into the same storage
		fr.WriteFrame(FrameHeaders, FlagEndHeaders, 1, enc.AppendEncode(nil, []hpack.HeaderField{{Name: ":status", Value: "200"}}))
		for i := 0; i < 3; i++ {
			fr.WriteFrame(FrameData, 0, 1, make([]byte, maxKeptBody))
		}
		fr.WriteFrame(FrameData, FlagEndStream, 1, nil)
		answer(fr, enc, 3, "short")
	}))
	f.Add(script(func(fr *Framer, enc *hpack.Encoder) { // a body left open, stale DATA, a reset, trailers
		fr.WriteFrame(FrameHeaders, FlagEndHeaders, 1, enc.AppendEncode(nil, []hpack.HeaderField{{Name: ":status", Value: "200"}}))
		fr.WriteFrame(FrameData, 0, 1, []byte("half"))
		fr.WriteFrame(FrameRSTStream, FlagEndStream, 3, []byte{0, 0, 0, 8})
		fr.WriteFrame(FrameData, FlagEndStream, 1, []byte("stale"))
		fr.WriteFrame(FrameHeaders, FlagEndHeaders, 5, enc.AppendEncode(nil, []hpack.HeaderField{{Name: ":status", Value: "200"}}))
		fr.WriteFrame(FrameHeaders, FlagEndHeaders|FlagEndStream, 5, enc.AppendEncode(nil, []hpack.HeaderField{{Name: "x-trailer", Value: "1"}}))
	}))
	f.Add(script(func(fr *Framer, enc *hpack.Encoder) { // windows shut, a header block over CONTINUATION, GOAWAY
		fr.WriteFrame(FrameSettings, FlagEndStream, 0, encodeSettings([]Setting{{SettingInitialWindowSize, 0}, {SettingMaxFrameSize, 1 << 14}}))
		block := enc.AppendEncode(nil, []hpack.HeaderField{{Name: ":status", Value: "200"}, {Name: "x-long", Value: "continued"}})
		fr.WriteFrame(FrameHeaders, FlagEndStream, 3, block[:2])
		fr.WriteFrame(FrameContinuation, FlagEndHeaders, 3, block[2:])
		fr.WriteFrame(FrameGoAway, 0, 0, make([]byte, 8))
	}))
	var settings bytes.Buffer
	NewFramer(&settings).WriteFrame(FrameSettings, 0, 0, nil)

	f.Fuzz(func(t *testing.T, data []byte) {
		base := runtime.NumGoroutine()
		c, s := net.Pipe()
		opened, _, drained := rawServer(s)
		cc, err := NewClientConn(c)
		if err != nil {
			t.Fatal(err)
		}
		s.Write(settings.Bytes())
		req := &Request{Method: "POST", Scheme: "https", Authority: "h2.test", Path: "/dns-query", Body: []byte("query")}
		for _, part := range cutAfterEnds(data, 3) {
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			go func() {
				defer close(done)
				if resp, err := cc.RoundTrip(ctx, req); err == nil && resp.owner != req {
					t.Error("a response received outside its Request's storage")
				}
			}()
			select {
			case <-opened:
			case <-done:
			}
			s.Write(part) // an error means the client has closed the connection
			cancel()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("a cancelled round trip did not return")
			}
		}
		cc.Close()
		s.Close()
		<-drained
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines left behind", runtime.NumGoroutine()-base)
			}
		}
	})
}
