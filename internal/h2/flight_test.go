package h2

// Tests of the emission model: a message is one flight, connection credit
// is returned at half the window, handlers with an inline step answer on
// the read loop, and FramePerFlight still emits what the study measured.

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dohcost/internal/hpack"
	"dohcost/internal/netsim"
)

// pipe returns the two ends of one zero-delay in-memory connection.
func pipe(t testing.TB) (client, server net.Conn) {
	t.Helper()
	n := netsim.New(1)
	l, err := n.Listen("h2.test:443")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if client, err = n.Dial("client", "h2.test:443"); err != nil {
		t.Fatal(err)
	}
	if server, err = l.Accept(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

// tapConn records every Write as the frames it carried. Flights are whole
// frames, so each Write parses on its own.
type tapConn struct {
	net.Conn
	mu      sync.Mutex
	wrote   *sync.Cond
	flights [][]Frame
}

func tap(c net.Conn) *tapConn {
	t := &tapConn{Conn: c}
	t.wrote = sync.NewCond(&t.mu)
	return t
}

func (c *tapConn) Write(p []byte) (int, error) {
	var flight []Frame
	for b := bytes.TrimPrefix(p, []byte(ClientPreface)); len(b) >= frameHeaderLen; {
		n := int(b[0])<<16 | int(b[1])<<8 | int(b[2])
		flight = append(flight, Frame{
			Type: FrameType(b[3]), Flags: b[4], StreamID: binary.BigEndian.Uint32(b[5:]),
			Payload: append([]byte(nil), b[frameHeaderLen:frameHeaderLen+n]...),
		})
		b = b[frameHeaderLen+n:]
	}
	c.mu.Lock()
	if len(flight) > 0 {
		c.flights = append(c.flights, flight)
		c.wrote.Broadcast()
	}
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// mark returns how many flights have been written so far.
func (c *tapConn) mark() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.flights)
}

// since waits until at least want flights follow mark and returns every
// flight after it.
func (c *tapConn) since(mark, want int) [][]Frame {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.flights) < mark+want {
		c.wrote.Wait()
	}
	return append([][]Frame(nil), c.flights[mark:]...)
}

// shape renders flights as "HEADERS+DATA | WINDOW_UPDATE".
func shape(flights [][]Frame) string {
	var out []string
	for _, fl := range flights {
		var names []string
		for _, fr := range fl {
			names = append(names, fr.Type.String())
		}
		out = append(out, strings.Join(names, "+"))
	}
	return strings.Join(out, " | ")
}

func frames(flights [][]Frame, typ FrameType) (out []Frame) {
	for _, fl := range flights {
		for _, fr := range fl {
			if fr.Type == typ {
				out = append(out, fr)
			}
		}
	}
	return out
}

// tapped serves srv on one connection and dials it, both ends' writes
// recorded.
func tapped(t *testing.T, srv *Server, model ...Emission) (cc *ClientConn, client, server *tapConn) {
	t.Helper()
	c, s := pipe(t)
	client, server = tap(c), tap(s)
	go srv.ServeConn(server)
	cc, err := NewClientConn(client, model...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cc.Close() })
	return cc, client, server
}

func post(t *testing.T, cc *ClientConn, path string, body []byte) *Response {
	t.Helper()
	resp, err := cc.RoundTrip(context.Background(), &Request{
		Method: "POST", Scheme: "https", Authority: "h2.test", Path: path,
		Header: []hpack.HeaderField{{Name: "content-type", Value: "application/dns-message"}},
		Body:   body,
	})
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	return resp
}

func sameBody(req *Request) *Response { return &Response{Status: 200, Body: req.Body} }

// TestMessageIsOneFlight: a POST whose body fits one frame crosses the wire
// as one Write per direction, HEADERS+DATA together, and owes no
// WINDOW_UPDATE — for a DNS-sized body and for the largest single frame.
func TestMessageIsOneFlight(t *testing.T) {
	for _, size := range []int{40, defaultMaxFrameSize} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			cc, client, server := tapped(t, &Server{Handler: HandlerFunc(sameBody)})
			post(t, cc, "/warm", []byte("x")) // SETTINGS and their ACKs are behind us
			cm, sm := client.mark(), server.mark()
			body := bytes.Repeat([]byte("q"), size)
			if resp := post(t, cc, "/dns-query", body); !bytes.Equal(resp.Body, body) {
				t.Fatalf("body corrupted: %d bytes", len(resp.Body))
			}
			for side, got := range map[string][][]Frame{"client": client.since(cm, 1), "server": server.since(sm, 1)} {
				if shape(got) != "HEADERS+DATA" {
					t.Errorf("%s wrote %q, want one HEADERS+DATA flight", side, shape(got))
				}
			}
		})
	}
}

// TestConnectionCreditAtHalfWindow: responses are credited back to the
// connection once per half window, never per DATA frame, and a client that
// has taken in more than the whole window never stalled on the way.
func TestConnectionCreditAtHalfWindow(t *testing.T) {
	page := bytes.Repeat([]byte("r"), 2<<10)
	cc, client, _ := tapped(t, &Server{Handler: HandlerFunc(func(*Request) *Response {
		return &Response{Status: 200, Body: page}
	})})
	get := func(n int) {
		for i := 0; i < n; i++ {
			resp, err := cc.RoundTrip(context.Background(), &Request{Method: "GET", Scheme: "https", Authority: "h2.test", Path: "/2k"})
			if err != nil || len(resp.Body) != len(page) {
				t.Fatalf("response %d: %d bytes, %v", i, len(resp.Body), err)
			}
		}
	}
	get(20) // 40 KB: past half the 65 535-byte window once
	get(20) // 80 KB: past the whole window, so the credit was honoured
	updates := frames(client.since(0, 0), FrameWindowUpdate)
	if len(updates) != 2 {
		t.Fatalf("%d WINDOW_UPDATEs for 80 KB of responses, want 2", len(updates))
	}
	for _, fr := range updates {
		if inc := binary.BigEndian.Uint32(fr.Payload); fr.StreamID != 0 || inc < defaultInitialWindowSize/2 {
			t.Errorf("WINDOW_UPDATE stream %d by %d: want connection-level, at least half the window", fr.StreamID, inc)
		}
	}
}

// TestFramePerFlightModel pins what the study's model parameter means: the
// same exchange as six flights of one frame, credit returned per DATA
// frame — the emission behind the paper's Figures 3–5.
func TestFramePerFlightModel(t *testing.T) {
	cc, client, server := tapped(t, &Server{Handler: HandlerFunc(sameBody), Emission: FramePerFlight}, FramePerFlight)
	post(t, cc, "/warm", []byte("x"))
	client.since(0, 5) // preface+SETTINGS, ACK, then HEADERS, DATA, WINDOW_UPDATE
	cm, sm := client.mark(), server.mark()
	post(t, cc, "/dns-query", []byte("query"))
	if got := shape(client.since(cm, 3)); got != "HEADERS | DATA | WINDOW_UPDATE" {
		t.Errorf("client wrote %q", got)
	}
	if got := shape(server.since(sm, 3)); got != "WINDOW_UPDATE | HEADERS | DATA" {
		t.Errorf("server wrote %q", got)
	}
}

// splitHandler has an inline step: /hit is answered there, /decline hands a
// continuation to the stream's goroutine, and everything else is left to
// ServeH2, where /block waits to be released.
type splitHandler struct {
	inlined, continued, served atomic.Int64
	entered, release           chan struct{} // /block: in its handler, let go
}

func (h *splitHandler) ServeH2(req *Request) *Response {
	h.served.Add(1)
	if req.Path == "/block" {
		h.entered <- struct{}{}
		<-h.release
	}
	return echoHandler(req)
}

func (h *splitHandler) ServeH2Inline(req *Request) (*Response, func() *Response) {
	switch req.Path {
	case "/hit":
		h.inlined.Add(1)
		return echoHandler(req), nil
	case "/decline":
		return nil, func() *Response { h.continued.Add(1); return echoHandler(req) }
	}
	return nil, nil
}

func TestInlineStep(t *testing.T) {
	h := &splitHandler{entered: make(chan struct{}), release: make(chan struct{})}
	cc, _, server := tapped(t, &Server{Handler: h})
	for _, c := range []struct {
		path                       string
		inlined, continued, served int64
	}{
		{"/hit", 1, 0, 0},
		{"/decline", 1, 1, 0},
		{"/other", 1, 1, 1},
	} {
		sm := server.mark()
		if resp := post(t, cc, c.path, []byte("q")); string(resp.Body) != "echo:q" {
			t.Errorf("%s: body %q", c.path, resp.Body)
		}
		if got := frames(server.since(sm, 1), FrameHeaders); len(got) != 1 {
			t.Errorf("%s: %d response header blocks", c.path, len(got))
		}
		if in, co, se := h.inlined.Load(), h.continued.Load(), h.served.Load(); in != c.inlined || co != c.continued || se != c.served {
			t.Errorf("after %s: inlined=%d continued=%d served=%d", c.path, in, co, se)
		}
	}

	// A stream blocked in its handler does not delay a hit behind it.
	blocked := make(chan error, 1)
	go func() {
		_, err := cc.RoundTrip(context.Background(), &Request{Method: "GET", Scheme: "https", Authority: "h2.test", Path: "/block"})
		blocked <- err
	}()
	<-h.entered
	post(t, cc, "/hit", []byte("behind"))
	close(h.release)
	if err := <-blocked; err != nil {
		t.Error(err)
	}
}

// TestInlineNeverWaitsForWindow: the read loop is the only goroutine that
// can receive window credit, so an inline response that does not fit the
// send windows is handed to the stream's goroutine instead of written — a
// client granting 16-byte stream windows still gets its hits.
func TestInlineNeverWaitsForWindow(t *testing.T) {
	h := &splitHandler{}
	cc, _, server := tapped(t, &Server{Handler: h})
	if err := cc.fr.WriteFrame(FrameSettings, 0, 0, encodeSettings([]Setting{{SettingInitialWindowSize, 16}})); err != nil {
		t.Fatal(err)
	}
	body := bytes.Repeat([]byte("w"), 100)
	for i := 0; i < 3; i++ {
		if resp := post(t, cc, "/hit", body); !bytes.Equal(resp.Body, append([]byte("echo:"), body...)) {
			t.Fatalf("hit %d: body %q", i, resp.Body)
		}
	}
	if h.inlined.Load() != 3 || h.served.Load() != 0 {
		t.Errorf("inlined=%d served=%d, want the inline step to have produced all 3", h.inlined.Load(), h.served.Load())
	}
	if data := frames(server.since(0, 0), FrameData); len(data) < 3*7 {
		t.Errorf("%d DATA frames for three 105-byte bodies under a 16-byte window", len(data))
	}
}

// TestConcurrentRoundTripsKeepHPACKOrder: concurrent requests each insert a
// header of their own into the dynamic table; blocks must reach the wire in
// the order they were encoded, and stream ids in ascending order, or the
// server's decoder desynchronises and tears the connection down.
func TestConcurrentRoundTripsKeepHPACKOrder(t *testing.T) {
	dial := startServer(t, HandlerFunc(func(req *Request) *Response {
		var who string
		for _, f := range req.Header {
			if f.Name == "x-who" {
				who = f.Value
			}
		}
		return &Response{Status: 200, Header: []hpack.HeaderField{{Name: "x-who-back", Value: who}}, Body: []byte(who)}
	}))
	cc := dialClient(t, dial)
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			who := fmt.Sprintf("client-%03d", i)
			for j := 0; j < 4; j++ {
				resp, err := cc.RoundTrip(context.Background(), &Request{
					Method: "POST", Scheme: "https", Authority: "h2.test", Path: "/",
					Header: []hpack.HeaderField{{Name: "x-who", Value: who}}, Body: []byte("q"),
				})
				if err != nil {
					t.Error(err)
					return
				}
				if string(resp.Body) != who || resp.HeaderValue("x-who-back") != who {
					t.Errorf("%s got %q / %q", who, resp.Body, resp.HeaderValue("x-who-back"))
				}
			}
		}()
	}
	wg.Wait()
}
