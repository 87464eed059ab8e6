package h2

// The request-lifetime contract: a connection recycles its streams, so a
// request is its handler's only until the response has been written — and
// wholly its handler's until then, whatever the read loop serves meanwhile.
// Run under -race: a stream recycled early shows as a data race on its
// request as well as in what the handlers see.

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"dohcost/internal/hpack"
)

// snapshot renders everything a handler can see of a request.
func snapshot(req *Request) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s %s %s", req.Method, req.Scheme, req.Authority, req.Path)
	for _, f := range req.Header {
		fmt.Fprintf(&b, "|%s=%s", f.Name, f.Value)
	}
	fmt.Fprintf(&b, "|%d:%x", len(req.Body), req.Body)
	return b.String()
}

// snapshotHandler answers every request with its snapshot: inline for
// /inline, from the stream's goroutine otherwise.
type snapshotHandler struct{}

func (snapshotHandler) ServeH2(req *Request) *Response {
	return &Response{Status: 200, Body: []byte(snapshot(req))}
}

func (h snapshotHandler) ServeH2Inline(req *Request) (*Response, func() *Response) {
	if req.Path == "/inline" {
		return h.ServeH2(req), nil
	}
	return nil, nil
}

// TestRecycledStreamSeesOnlyItsOwnRequest: a request with many headers and a
// long body, then a short one on the stream it left behind — on the read
// loop and on a goroutine — and the short one sees its own fields and body,
// nothing of its predecessor's.
func TestRecycledStreamSeesOnlyItsOwnRequest(t *testing.T) {
	for _, path := range []string{"/inline", "/goroutine"} {
		t.Run(path, func(t *testing.T) {
			cc := dialClient(t, startServer(t, snapshotHandler{}))
			long := &Request{Method: "POST", Scheme: "https", Authority: "long.h2.test", Path: path, Body: bytes.Repeat([]byte("L"), 600)}
			for i := 0; i < 12; i++ {
				long.Header = append(long.Header, hpack.HeaderField{Name: fmt.Sprintf("x-long-%d", i), Value: strings.Repeat("v", i+1)})
			}
			short := &Request{Method: "POST", Scheme: "https", Authority: "h2.test", Path: path,
				Header: []hpack.HeaderField{{Name: "x-short", Value: "1"}}, Body: []byte("s")}
			huge := &Request{Method: "POST", Scheme: "https", Authority: "h2.test", Path: path, Body: bytes.Repeat([]byte("H"), 8*maxKeptBody)}
			for i := 0; i < maxKeptFields+8; i++ {
				huge.Header = append(huge.Header, hpack.HeaderField{Name: "x-huge", Value: fmt.Sprint(i)})
			}
			for i, req := range []*Request{long, short, long, huge, short} {
				resp, err := cc.RoundTrip(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				if want := snapshot(req); string(resp.Body) != want {
					t.Errorf("request %d: handler saw\n%.200s\nwant\n%.200s", i, resp.Body, want)
				}
			}
		})
	}
}

// TestFreeListIsBounded: what a connection keeps for reuse does not grow
// with what a peer once sent — not in streams, not in capacity.
func TestFreeListIsBounded(t *testing.T) {
	sc := &serverConn{}
	for i := 0; i < 2*maxFreeStreams; i++ {
		st := &serverStream{req: Request{
			Header: make([]hpack.HeaderField, 3, 4*maxKeptFields),
			Body:   make([]byte, maxRequestBody),
		}}
		if i%2 == 0 {
			st.req = Request{Header: make([]hpack.HeaderField, 3, 4), Body: make([]byte, 40, 64)}
		}
		sc.closeStream(st)
	}
	if len(sc.free) != maxFreeStreams {
		t.Fatalf("free list holds %d streams, bound %d", len(sc.free), maxFreeStreams)
	}
	for _, st := range sc.free {
		if len(st.req.Header) != 0 || len(st.req.Body) != 0 || cap(st.req.Header) > maxKeptFields || cap(st.req.Body) > maxKeptBody {
			t.Fatalf("kept a request with %d/%d header fields, %d/%d body bytes", len(st.req.Header), cap(st.req.Header), len(st.req.Body), cap(st.req.Body))
		}
		for _, f := range st.req.Header[:cap(st.req.Header)] {
			if f != (hpack.HeaderField{}) {
				t.Fatal("a recycled request still refers to its last header's strings")
			}
		}
	}
}

// holdHandler declines /held inline with a continuation that waits to be
// released before it reads its request; /hit is answered inline, and /block
// waits in ServeH2. What a released handler saw of its request goes to saw
// as well as into its response, which a reset stream never delivers.
type holdHandler struct {
	entered, release chan struct{}
	saw              chan string
}

func newHoldHandler() *holdHandler {
	return &holdHandler{entered: make(chan struct{}), release: make(chan struct{}), saw: make(chan string, 1)}
}

func (h *holdHandler) wait(req *Request) *Response {
	h.entered <- struct{}{}
	<-h.release
	seen := snapshot(req)
	h.saw <- seen
	return &Response{Status: 200, Body: []byte(seen)}
}

func (h *holdHandler) ServeH2(req *Request) *Response { return h.wait(req) }

func (h *holdHandler) ServeH2Inline(req *Request) (*Response, func() *Response) {
	switch req.Path {
	case "/hit":
		return &Response{Status: 200, Body: []byte(snapshot(req))}, nil
	case "/held":
		return nil, func() *Response { return h.wait(req) }
	}
	return nil, nil
}

// hits runs n inline requests, each with fields and a body of its own, and
// checks each saw itself.
func hits(t *testing.T, cc *ClientConn, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		req := &Request{Method: "POST", Scheme: "https", Authority: "h2.test", Path: "/hit",
			Header: []hpack.HeaderField{{Name: "x-hit", Value: fmt.Sprint(i)}}, Body: []byte(fmt.Sprintf("hit %d", i))}
		resp, err := cc.RoundTrip(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if want := snapshot(req); string(resp.Body) != want {
			t.Fatalf("hit %d: handler saw %q, want %q", i, resp.Body, want)
		}
	}
}

// TestDeclinedRequestOutlivesLaterHits: an inline step that declines keeps
// its request for its continuation, which still reads its own fields and
// body after the read loop has served 100 further requests.
func TestDeclinedRequestOutlivesLaterHits(t *testing.T) {
	h := newHoldHandler()
	cc := dialClient(t, startServer(t, h))
	held := &Request{Method: "POST", Scheme: "https", Authority: "h2.test", Path: "/held",
		Header: []hpack.HeaderField{{Name: "x-held", Value: "mine"}}, Body: []byte("the body the continuation reads")}
	got := make(chan string, 1)
	go func() {
		resp, err := cc.RoundTrip(context.Background(), held)
		if err != nil {
			got <- err.Error()
			return
		}
		got <- string(resp.Body)
	}()
	<-h.entered
	hits(t, cc, 100)
	close(h.release)
	if body, want := <-got, snapshot(held); body != want {
		t.Errorf("continuation saw %q, want %q", body, want)
	}
}

// TestResetStreamIsNotRecycledUnderItsHandler: a stream the client resets
// while its handler runs is closed, but stays its handler's — the read loop
// serves later requests from other streams, and the handler still reads its
// own request when it carries on.
func TestResetStreamIsNotRecycledUnderItsHandler(t *testing.T) {
	h := newHoldHandler()
	cc := dialClient(t, startServer(t, h))
	blocked := &Request{Method: "POST", Scheme: "https", Authority: "h2.test", Path: "/block",
		Header: []hpack.HeaderField{{Name: "x-blocked", Value: "mine"}}, Body: []byte("still mine after the reset")}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := cc.RoundTrip(ctx, blocked)
		done <- err
	}()
	<-h.entered
	cancel() // RST_STREAM(CANCEL)
	if err := <-done; err == nil {
		t.Fatal("cancelled request succeeded")
	}
	hits(t, cc, 100) // behind the reset on the wire: the server has closed the stream
	close(h.release)
	if seen, want := <-h.saw, snapshot(blocked); seen != want {
		t.Errorf("the handler of a reset stream saw %q after 100 later requests, want %q", seen, want)
	}
}

// scratchInline answers inline the way a DoH connection does: one Response
// and one body scratch, filled anew for every request.
type scratchInline struct{ resp Response }

func (h *scratchInline) ServeH2(*Request) *Response { return &Response{Status: 500} }

func (h *scratchInline) ServeH2Inline(req *Request) (*Response, func() *Response) {
	h.resp.Status = 200
	h.resp.Body = append(append(h.resp.Body[:0], "echo:"...), req.Body...)
	return &h.resp, nil
}

// TestInlineResponseWaitingForWindowIsCopied: a handler-owned response that
// does not fit the send windows waits for them on its stream's goroutine as
// a copy, while the handler fills the original for the requests behind it.
func TestInlineResponseWaitingForWindowIsCopied(t *testing.T) {
	cc := dialClient(t, startServer(t, &scratchInline{}))
	if err := cc.fr.WriteFrame(FrameSettings, 0, 0, encodeSettings([]Setting{{SettingInitialWindowSize, 16}})); err != nil {
		t.Fatal(err)
	}
	post(t, cc, "/warm", []byte("x")) // the SETTINGS above is in force behind this
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := bytes.Repeat([]byte{byte('a' + i)}, 100+i)
			resp, err := cc.RoundTrip(context.Background(), &Request{Method: "POST", Scheme: "https", Authority: "h2.test", Path: "/", Body: body})
			if err != nil {
				t.Error(err)
			} else if want := append([]byte("echo:"), body...); !bytes.Equal(resp.Body, want) {
				t.Errorf("request %d: body %q, want %q", i, resp.Body, want)
			}
		}()
	}
	wg.Wait()
}

// tcpPair returns the two ends of a loopback TCP connection: unlike netsim's,
// its reads and writes allocate nothing, so allocation counts are the
// protocol stack's own.
func tcpPair(t testing.TB) (client, server net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if client, err = net.Dial("tcp", l.Addr().String()); err != nil {
		t.Fatal(err)
	}
	if server, err = l.Accept(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

// fixedInline answers every request inline with one response of its own.
type fixedInline struct{ resp Response }

func (h *fixedInline) ServeH2(*Request) *Response { return &h.resp }
func (h *fixedInline) ServeH2Inline(*Request) (*Response, func() *Response) {
	return &h.resp, nil
}

// TestInlineRoundTripAllocs pins the garbage of a DoH-shaped exchange whose
// handler answers inline from storage of its own. The server side — header
// block decoded into the connection's scratch, stream off the free list,
// :status from a constant, response written on the read loop — allocates
// nothing, and neither does the client once its Request is reused: the
// Response and its body are that Request's storage.
func TestInlineRoundTripAllocs(t *testing.T) {
	h := &fixedInline{Response{Status: 200, Body: make([]byte, 64),
		Header: []hpack.HeaderField{{Name: "content-type", Value: "application/dns-message"}}}}
	reqHeader := []hpack.HeaderField{
		{Name: "content-type", Value: "application/dns-message"}, {Name: "accept", Value: "application/dns-message"}}
	query := make([]byte, 40)

	t.Run("server", func(t *testing.T) {
		// The peer is a bare Framer replaying a warm request, so everything
		// counted is the server's.
		c, s := tcpPair(t)
		go (&Server{Handler: h}).ServeConn(s)
		fr := NewFramer(c)
		if err := fr.WritePreface(); err != nil {
			t.Fatal(err)
		}
		if err := fr.WriteFrame(FrameSettings, 0, 0, nil); err != nil {
			t.Fatal(err)
		}
		enc := hpack.NewEncoder()
		fields := append([]hpack.HeaderField{{Name: ":method", Value: "POST"}, {Name: ":scheme", Value: "https"},
			{Name: ":authority", Value: "h2.test"}, {Name: ":path", Value: "/dns-query"}}, reqHeader...)
		var block []byte
		id := uint32(1)
		exchange := func() {
			fr.Begin()
			fr.Add(FrameHeaders, FlagEndHeaders, id, block)
			fr.Add(FrameData, FlagEndStream, id, query)
			if err := fr.End(); err != nil {
				t.Fatal(err)
			}
			for {
				f, err := fr.ReadFrame()
				if err != nil {
					t.Fatal(err)
				}
				if f.Type == FrameData && f.StreamID == id && f.Flags&FlagEndStream != 0 {
					break
				}
			}
			id += 2
		}
		for i := 0; i < 4; i++ { // SETTINGS and HPACK indexing are behind us
			block = enc.AppendEncode(block[:0], fields)
			exchange()
		}
		if allocs := testing.AllocsPerRun(200, exchange); allocs != 0 {
			t.Errorf("server side of an inline hit: %v allocs/op, want 0", allocs)
		}
	})

	t.Run("round trip", func(t *testing.T) {
		c, s := tcpPair(t)
		go (&Server{Handler: h}).ServeConn(s)
		cc, err := NewClientConn(c)
		if err != nil {
			t.Fatal(err)
		}
		defer cc.Close()
		req := &Request{Method: "POST", Scheme: "https", Authority: "h2.test", Path: "/dns-query", Header: reqHeader, Body: query}
		exchange := func() {
			resp, err := cc.RoundTrip(context.Background(), req)
			if err != nil || resp.Status != 200 || len(resp.Body) != 64 || resp.HeaderValue("content-type") == "" {
				t.Fatalf("round trip: %+v, %v", resp, err)
			}
		}
		for i := 0; i < 4; i++ {
			exchange()
		}
		// req is reused, so its Response and body are too: nothing is left.
		// Under -race the count is not read: the detector's sync.Pool drops
		// some of the clientStreams put back, and a miss allocates one.
		if allocs := testing.AllocsPerRun(200, exchange); allocs != 0 && !raceEnabled {
			t.Errorf("inline round trip with a reused Request: %v allocs/op, want 0", allocs)
		}
	})
}

// headersSink is an endpoint that takes decoded header blocks and nothing
// else: enough of one for link's header-block assembly.
type headersSink struct{ blocks int }

func (*headersSink) sendStream(uint32) *stream { return nil }
func (h *headersSink) handleHeaders(uint32, []hpack.HeaderField, bool) error {
	h.blocks++
	return nil
}
func (*headersSink) handleData(Frame) error { return nil }
func (*headersSink) handleReset(Frame)      {}

// TestLargeHeaderBlockIsReleased: a header block past maxKeptBlock, split
// over HEADERS and CONTINUATION, is decoded and then let go — the assembly
// buffer does not pin it for the rest of the connection — while an ordinary
// block's buffer is kept for the next one.
func TestLargeHeaderBlockIsReleased(t *testing.T) {
	end := &headersSink{}
	l := &link{end: end, hdec: hpack.NewDecoder()}
	enc := hpack.NewEncoder()

	small := enc.AppendEncode(nil, []hpack.HeaderField{{Name: ":method", Value: "POST"}, {Name: ":path", Value: "/dns-query"}})
	if err := l.handleFrame(Frame{Type: FrameHeaders, Flags: FlagEndHeaders, StreamID: 1, Payload: small}); err != nil {
		t.Fatal(err)
	}
	if c := cap(l.contBuf); c == 0 || c > maxKeptBlock {
		t.Fatalf("after a %d-octet block the assembly buffer has capacity %d, want it kept", len(small), c)
	}

	large := enc.AppendEncode(nil, []hpack.HeaderField{{Name: "x-large", Value: strings.Repeat("v", 4*maxKeptBlock)}})
	half := len(large) / 2
	if err := l.handleFrame(Frame{Type: FrameHeaders, StreamID: 3, Payload: large[:half]}); err != nil {
		t.Fatal(err)
	}
	if err := l.handleFrame(Frame{Type: FrameContinuation, Flags: FlagEndHeaders, StreamID: 3, Payload: large[half:]}); err != nil {
		t.Fatal(err)
	}
	if end.blocks != 2 {
		t.Fatalf("%d header blocks decoded, want 2", end.blocks)
	}
	if c := cap(l.contBuf); c != 0 {
		t.Errorf("after a %d-octet block the assembly buffer still has capacity %d, want it released", len(large), c)
	}
}
