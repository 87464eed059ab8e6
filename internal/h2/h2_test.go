package h2

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"dohcost/internal/hpack"
	"dohcost/internal/netsim"
)

// startServer serves h on a netsim listener and returns a dialer.
func startServer(t *testing.T, h Handler) func() (net.Conn, error) {
	t.Helper()
	return serve(t, &Server{Handler: h})
}

// serve runs srv on a netsim listener and returns a dialer.
func serve(t *testing.T, srv *Server) func() (net.Conn, error) {
	t.Helper()
	n := netsim.New(1)
	l, err := n.Listen("h2.test:443")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go srv.ServeConn(c)
		}
	}()
	return func() (net.Conn, error) { return n.Dial("client", "h2.test:443") }
}

func echoHandler(req *Request) *Response {
	return &Response{
		Status: 200,
		Header: []hpack.HeaderField{{Name: "content-type", Value: "application/dns-message"}},
		Body:   append([]byte("echo:"), req.Body...),
	}
}

func dialClient(t *testing.T, dial func() (net.Conn, error)) *ClientConn {
	t.Helper()
	raw, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	cc, err := NewClientConn(raw)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cc.Close() })
	return cc
}

func TestRoundTripPOST(t *testing.T) {
	dial := startServer(t, HandlerFunc(echoHandler))
	cc := dialClient(t, dial)
	resp, err := cc.RoundTrip(context.Background(), &Request{
		Method: "POST", Scheme: "https", Authority: "h2.test", Path: "/dns-query",
		Header: []hpack.HeaderField{{Name: "content-type", Value: "application/dns-message"}},
		Body:   []byte("payload"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 {
		t.Errorf("status = %d", resp.Status)
	}
	if string(resp.Body) != "echo:payload" {
		t.Errorf("body = %q", resp.Body)
	}
	if resp.HeaderValue("content-type") != "application/dns-message" {
		t.Errorf("content-type = %q", resp.HeaderValue("content-type"))
	}
}

func TestRoundTripGETNoBody(t *testing.T) {
	dial := startServer(t, HandlerFunc(func(req *Request) *Response {
		if req.Method != "GET" || req.Path != "/dns-query?dns=abc" {
			return &Response{Status: 400}
		}
		return &Response{Status: 200, Body: []byte("ok")}
	}))
	cc := dialClient(t, dial)
	resp, err := cc.RoundTrip(context.Background(), &Request{
		Method: "GET", Scheme: "https", Authority: "h2.test", Path: "/dns-query?dns=abc",
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || string(resp.Body) != "ok" {
		t.Errorf("resp = %d %q", resp.Status, resp.Body)
	}
}

func TestSequentialRequestsReuseConnection(t *testing.T) {
	dial := startServer(t, HandlerFunc(echoHandler))
	cc := dialClient(t, dial)
	for i := 0; i < 20; i++ {
		body := fmt.Sprintf("q%d", i)
		resp, err := cc.RoundTrip(context.Background(), &Request{
			Method: "POST", Scheme: "https", Authority: "h2.test", Path: "/",
			Body: []byte(body),
		})
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if string(resp.Body) != "echo:"+body {
			t.Fatalf("request %d body = %q", i, resp.Body)
		}
	}
}

// TestNoHeadOfLineBlocking is the protocol property behind Figure 2: a slow
// stream must not delay a fast one issued afterwards.
func TestNoHeadOfLineBlocking(t *testing.T) {
	release := make(chan struct{})
	dial := startServer(t, HandlerFunc(func(req *Request) *Response {
		if req.Path == "/slow" {
			<-release
		}
		return &Response{Status: 200, Body: []byte(req.Path)}
	}))
	cc := dialClient(t, dial)

	slowDone := make(chan error, 1)
	go func() {
		_, err := cc.RoundTrip(context.Background(), &Request{
			Method: "GET", Scheme: "https", Authority: "h2.test", Path: "/slow",
		})
		slowDone <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the slow request start first

	start := time.Now()
	resp, err := cc.RoundTrip(context.Background(), &Request{
		Method: "GET", Scheme: "https", Authority: "h2.test", Path: "/fast",
	})
	fastTime := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "/fast" {
		t.Errorf("fast body = %q", resp.Body)
	}
	if fastTime > 500*time.Millisecond {
		t.Errorf("fast request took %v behind a blocked stream", fastTime)
	}
	close(release)
	if err := <-slowDone; err != nil {
		t.Errorf("slow request: %v", err)
	}
}

func TestConcurrentRoundTrips(t *testing.T) {
	dial := startServer(t, HandlerFunc(echoHandler))
	cc := dialClient(t, dial)
	var wg sync.WaitGroup
	errs := make(chan error, 50)
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf("q%03d", i)
			resp, err := cc.RoundTrip(context.Background(), &Request{
				Method: "POST", Scheme: "https", Authority: "h2.test", Path: "/",
				Body: []byte(body),
			})
			if err != nil {
				errs <- err
				return
			}
			if string(resp.Body) != "echo:"+body {
				errs <- fmt.Errorf("body mismatch: %q", resp.Body)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestLargeBodyFlowControl(t *testing.T) {
	// 300 KB responses exceed both the 64 KB connection window and the
	// 16 KB frame size, forcing WINDOW_UPDATE exchanges.
	big := bytes.Repeat([]byte("x"), 300<<10)
	dial := startServer(t, HandlerFunc(func(req *Request) *Response {
		return &Response{Status: 200, Body: big}
	}))
	cc := dialClient(t, dial)
	resp, err := cc.RoundTrip(context.Background(), &Request{
		Method: "GET", Scheme: "https", Authority: "h2.test", Path: "/big",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp.Body, big) {
		t.Errorf("large body corrupted: %d bytes", len(resp.Body))
	}
}

func TestLargeRequestBodyUpload(t *testing.T) {
	// The server resets a request body past maxRequestBody, so what forces
	// uploads through flow control is several at once: each 60 KB body
	// exceeds the 16 KB frame size, and four exceed the 64 KB connection
	// window until the server's WINDOW_UPDATEs arrive.
	big := bytes.Repeat([]byte("u"), 60<<10)
	dial := startServer(t, HandlerFunc(func(req *Request) *Response {
		return &Response{Status: 200, Body: []byte(fmt.Sprintf("%d", len(req.Body)))}
	}))
	cc := dialClient(t, dial)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := cc.RoundTrip(context.Background(), &Request{
				Method: "POST", Scheme: "https", Authority: "h2.test", Path: "/up", Body: big,
			})
			if err != nil {
				t.Error(err)
				return
			}
			if string(resp.Body) != fmt.Sprintf("%d", len(big)) {
				t.Errorf("server saw %s bytes, want %d", resp.Body, len(big))
			}
		}()
	}
	wg.Wait()
}

func TestLargeHeadersUseContinuation(t *testing.T) {
	// A single ~40 KB header exceeds the 16 KB frame limit on the response
	// path, so the server must split HEADERS + CONTINUATION. Our server
	// writes one HEADERS frame; large response headers only occur in the
	// request direction for DoH GET, so test request-side with a long path.
	longValue := strings.Repeat("v", 2000)
	dial := startServer(t, HandlerFunc(func(req *Request) *Response {
		for _, f := range req.Header {
			if f.Name == "x-long" && f.Value == longValue {
				return &Response{Status: 200}
			}
		}
		return &Response{Status: 400}
	}))
	cc := dialClient(t, dial)
	resp, err := cc.RoundTrip(context.Background(), &Request{
		Method: "GET", Scheme: "https", Authority: "h2.test", Path: "/",
		Header: []hpack.HeaderField{{Name: "x-long", Value: longValue}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 {
		t.Errorf("status = %d", resp.Status)
	}
}

func TestContextCancellation(t *testing.T) {
	dial := startServer(t, HandlerFunc(func(req *Request) *Response {
		time.Sleep(5 * time.Second)
		return &Response{Status: 200}
	}))
	cc := dialClient(t, dial)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := cc.RoundTrip(ctx, &Request{
		Method: "GET", Scheme: "https", Authority: "h2.test", Path: "/",
	})
	if err == nil {
		t.Fatal("cancelled request succeeded")
	}
	if time.Since(start) > time.Second {
		t.Error("cancellation not prompt")
	}
	// The connection survives for other requests? The stream was RST, so a
	// new request should still work once the handler finishes or in
	// parallel.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel2()
	_ = ctx2
}

func TestCloseFailsPendingRequests(t *testing.T) {
	dial := startServer(t, HandlerFunc(func(req *Request) *Response {
		time.Sleep(10 * time.Second)
		return &Response{Status: 200}
	}))
	raw, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	cc, err := NewClientConn(raw)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := cc.RoundTrip(context.Background(), &Request{
			Method: "GET", Scheme: "https", Authority: "h2.test", Path: "/",
		})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cc.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Error("pending request succeeded after Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending request not failed by Close")
	}
	// New requests are refused.
	if _, err := cc.RoundTrip(context.Background(), &Request{Method: "GET", Scheme: "https", Authority: "x", Path: "/"}); err == nil {
		t.Error("request on closed connection succeeded")
	}
}

func TestFrameStatsAccounting(t *testing.T) {
	dial := startServer(t, HandlerFunc(echoHandler))
	cc := dialClient(t, dial)
	body := []byte("0123456789")
	if _, err := cc.RoundTrip(context.Background(), &Request{
		Method: "POST", Scheme: "https", Authority: "h2.test", Path: "/dns-query", Body: body,
	}); err != nil {
		t.Fatal(err)
	}
	layer := cc.Stats().Layer()
	// Body: 10 out + 15 back ("echo:" + 10).
	if layer.BodyBytes != 25 {
		t.Errorf("body bytes = %d, want 25", layer.BodyBytes)
	}
	if layer.HdrBytes <= 0 {
		t.Error("no header bytes accounted")
	}
	// Mgmt covers preface (24) + settings both ways + acks + window updates
	// + all frame headers.
	if layer.MgmtBytes < int64(len(ClientPreface)) {
		t.Errorf("mgmt bytes = %d", layer.MgmtBytes)
	}
	if layer.TotalBytes != layer.BodyBytes+layer.HdrBytes+layer.MgmtBytes {
		t.Error("layer total inconsistent")
	}
}

func TestDifferentialHeadersAcrossRequests(t *testing.T) {
	dial := startServer(t, HandlerFunc(echoHandler))
	cc := dialClient(t, dial)
	req := func() *Request {
		return &Request{
			Method: "POST", Scheme: "https", Authority: "h2.test", Path: "/dns-query",
			Header: []hpack.HeaderField{
				{Name: "content-type", Value: "application/dns-message"},
				{Name: "accept", Value: "application/dns-message"},
			},
			Body: []byte("q"),
		}
	}
	if _, err := cc.RoundTrip(context.Background(), req()); err != nil {
		t.Fatal(err)
	}
	afterFirst := cc.Stats().Layer().HdrBytes
	if _, err := cc.RoundTrip(context.Background(), req()); err != nil {
		t.Fatal(err)
	}
	afterSecond := cc.Stats().Layer().HdrBytes
	first := afterFirst
	second := afterSecond - afterFirst
	if second >= first {
		t.Errorf("second request headers (%dB) not smaller than first (%dB): differential compression broken", second, first)
	}
}

func TestPingPong(t *testing.T) {
	dial := startServer(t, HandlerFunc(echoHandler))
	cc := dialClient(t, dial)
	// Drive a PING through the client's framer; server must ACK and the
	// client read loop must absorb it without disturbing traffic.
	if err := cc.fr.WriteFrame(FramePing, 0, 0, []byte("12345678")); err != nil {
		t.Fatal(err)
	}
	resp, err := cc.RoundTrip(context.Background(), &Request{
		Method: "POST", Scheme: "https", Authority: "h2.test", Path: "/", Body: []byte("x"),
	})
	if err != nil || resp.Status != 200 {
		t.Fatalf("traffic after ping: %v %v", resp, err)
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	f := func(typ uint8, flags uint8, stream uint32, payload []byte) bool {
		if len(payload) > defaultMaxFrameSize {
			payload = payload[:defaultMaxFrameSize]
		}
		var buf bytes.Buffer
		fr := NewFramer(&buf)
		if err := fr.WriteFrame(FrameType(typ), flags, stream, payload); err != nil {
			return false
		}
		got, err := fr.ReadFrame()
		if err != nil {
			return false
		}
		return got.Type == FrameType(typ) && got.Flags == flags &&
			got.StreamID == stream&0x7FFFFFFF && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSettingsRoundTrip(t *testing.T) {
	in := []Setting{{SettingMaxFrameSize, 65536}, {SettingInitialWindowSize, 1 << 20}}
	out, err := decodeSettings(encodeSettings(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
		t.Errorf("settings = %v", out)
	}
	if _, err := decodeSettings([]byte{1, 2, 3}); err == nil {
		t.Error("truncated settings accepted")
	}
}

func TestStripPadding(t *testing.T) {
	fr := Frame{Type: FrameData, Flags: FlagPadded, Payload: append([]byte{2}, 'a', 'b', 'c', 0, 0)}
	got, err := stripPadding(fr)
	if err != nil || string(got) != "abc" {
		t.Errorf("padded = %q, %v", got, err)
	}
	fr = Frame{Type: FrameHeaders, Flags: FlagPriority, Payload: append(make([]byte, 5), 'h')}
	got, err = stripPadding(fr)
	if err != nil || string(got) != "h" {
		t.Errorf("priority = %q, %v", got, err)
	}
	fr = Frame{Type: FrameData, Flags: FlagPadded, Payload: []byte{9, 'x'}}
	if _, err := stripPadding(fr); err == nil {
		t.Error("padding larger than payload accepted")
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	var buf bytes.Buffer
	// Hand-craft a header claiming 1 MB.
	buf.Write([]byte{0x10, 0x00, 0x00, byte(FrameData), 0, 0, 0, 0, 1})
	fr := NewFramer(&buf)
	if _, err := fr.ReadFrame(); err == nil {
		t.Error("oversize frame accepted")
	}
}

func TestFrameTypeString(t *testing.T) {
	if FrameData.String() != "DATA" || FrameWindowUpdate.String() != "WINDOW_UPDATE" {
		t.Error("frame names")
	}
	if FrameType(0xEE).String() == "" {
		t.Error("unknown frame name")
	}
}

func TestHugeHeaderBlockSplitsIntoContinuation(t *testing.T) {
	// A 40 KB header value cannot fit one 16 KB frame: the client must
	// split HEADERS + CONTINUATION and the server must reassemble.
	huge := strings.Repeat("Z", 40<<10)
	dial := startServer(t, HandlerFunc(func(req *Request) *Response {
		for _, f := range req.Header {
			if f.Name == "x-huge" && f.Value == huge {
				return &Response{Status: 200, Header: []hpack.HeaderField{{Name: "x-huge-back", Value: huge}}}
			}
		}
		return &Response{Status: 400}
	}))
	cc := dialClient(t, dial)
	resp, err := cc.RoundTrip(context.Background(), &Request{
		Method: "GET", Scheme: "https", Authority: "h2.test", Path: "/",
		Header: []hpack.HeaderField{{Name: "x-huge", Value: huge}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 {
		t.Fatalf("status = %d", resp.Status)
	}
	if resp.HeaderValue("x-huge-back") != huge {
		t.Error("server response continuation headers corrupted")
	}
}
