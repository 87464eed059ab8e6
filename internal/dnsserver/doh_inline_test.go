package dnsserver

// DoH behind a real h2.Server: the hit step runs on the connection's read
// loop, and a hit it declines carries on as the same query on the stream's
// goroutine.

import (
	"bytes"
	"context"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"dohcost/internal/dnswire"
	"dohcost/internal/guard"
	"dohcost/internal/h2"
	"dohcost/internal/netsim"
	"dohcost/internal/qtrace"
	"dohcost/internal/telemetry"
)

// gatedStub is refStub with a Message step that, for names starting
// "slow-gated", reports it has begun and waits to be released.
type gatedStub struct {
	refStub
	entered, release chan struct{}
}

func (s *gatedStub) ServeDNS(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	if strings.HasPrefix(string(q.Question1().Name), "slow-gated") {
		s.entered <- struct{}{}
		<-s.release
	}
	return s.refStub.ServeDNS(ctx, q)
}

// dohOverH2 serves d on one in-memory connection, bound the way the accept
// loop binds it, and returns the bound handler and a client.
func dohOverH2(t *testing.T, d *DoH) (h2.Handler, *h2.ClientConn) {
	t.Helper()
	n := netsim.New(1)
	l, err := n.Listen("doh.test:443")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c, err := n.Dial("client", "doh.test:443")
	if err != nil {
		t.Fatal(err)
	}
	s, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	h2h, _ := d.Bind(guard.NewContext(t.Context(), 424242))
	go (&h2.Server{Handler: h2h}).ServeConn(s)
	cc, err := h2.NewClientConn(c)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cc.Close() })
	return h2h, cc
}

func packQuery(t *testing.T, id uint16, name dnswire.Name) (*dnswire.Message, []byte) {
	t.Helper()
	q := dnswire.NewQuery(id, name, dnswire.TypeA)
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	return q, wire
}

func TestDoHInlineStep(t *testing.T) {
	var finished atomic.Int64
	tel := telemetry.New()
	tel.SetListener(telemetry.ListenerFunc(func(*qtrace.Record) { finished.Add(1) }))
	tracer := qtrace.New(qtrace.Config{SampleEvery: 1})
	defer tracer.Close()
	tel.SetTracer(tracer)
	stub := &gatedStub{entered: make(chan struct{}), release: make(chan struct{})}
	g := openGuard()
	d := &DoH{Handler: stub, Guard: g, Telemetry: tel, AltSvc: `h3=":443"`}
	h2h, cc := dohOverH2(t, d)

	exchange := func(name dnswire.Name) *h2.Response {
		q, wire := packQuery(t, 0x1d, name)
		resp, err := cc.RoundTrip(context.Background(), &h2.Request{
			Method: "POST", Scheme: "https", Authority: "doh.test", Path: "/dns-query", Header: dohPOSTHeader, Body: wire,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := Respond(context.Background(), &refStub{}, q).Pack()
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != 200 || !bytes.Equal(resp.Body, want) || resp.HeaderValue("alt-svc") != d.AltSvc {
			t.Errorf("%s: status %d, alt-svc %q, body %x; want 200, %q, %x", name, resp.Status, resp.HeaderValue("alt-svc"), resp.Body, d.AltSvc, want)
		}
		return resp
	}

	// Each query, answered inline or carried on by the continuation, is one
	// transaction, one guard charge and one trace.
	for i, c := range []struct {
		name      dnswire.Name
		fast, msg int64
		phases    []string
	}{
		{"fast.example.", 1, 0, []string{"guard", "parse", "cache"}},
		{"slow.example.", 1, 1, []string{"guard", "parse"}},
	} {
		exchange(c.name)
		n := int64(i + 1)
		waitFor(t, func() bool { return finished.Load() == n })
		if stub.fast.Load() != c.fast || stub.msg.Load() != c.msg {
			t.Errorf("%s: fast=%d msg=%d, want %d and %d", c.name, stub.fast.Load(), stub.msg.Load(), c.fast, c.msg)
		}
		if charged := g.Report().Allowed; charged != uint64(n) {
			t.Errorf("%s: guard charged %d times for %d queries", c.name, charged, n)
		}
		views := tracer.Traces(qtrace.Filter{})
		if len(views) != int(n) {
			t.Fatalf("%s: %d traces for %d queries", c.name, len(views), n)
		}
		var got []string
		for _, sp := range views[0].Spans { // newest first
			got = append(got, sp.Phase)
		}
		if !slices.Equal(got, c.phases) {
			t.Errorf("%s: phases %v, want %v", c.name, got, c.phases)
		}
	}

	// A miss blocked in the handler does not delay a hit behind it.
	_, gated := packQuery(t, 0x1e, "slow-gated.example.")
	blocked := make(chan error, 1)
	go func() {
		_, err := cc.RoundTrip(context.Background(), &h2.Request{
			Method: "POST", Scheme: "https", Authority: "doh.test", Path: "/dns-query", Header: dohPOSTHeader, Body: gated,
		})
		blocked <- err
	}()
	<-stub.entered
	exchange("fast.example.")
	close(stub.release)
	if err := <-blocked; err != nil {
		t.Error(err)
	}

	// What the inline step takes, and what it leaves to ServeH2.
	inline := h2h.(h2.InlineHandler)
	_, hit := packQuery(t, 0x1f, "fast.example.")
	_, miss := packQuery(t, 0x20, "slow.example.")
	for _, c := range []struct {
		name           string
		req            h2.Request
		answered, next bool
	}{
		{"hit", h2.Request{Method: "POST", Path: "/dns-query", Header: dohPOSTHeader, Body: hit}, true, false},
		{"declined hit", h2.Request{Method: "POST", Path: "/dns-query", Header: dohPOSTHeader, Body: miss}, false, true},
		{"GET", h2.Request{Method: "GET", Path: EncodeGETPath("/dns-query", hit)}, false, false},
		{"POST with a query string", h2.Request{Method: "POST", Path: "/dns-query?x=1", Header: dohPOSTHeader, Body: hit}, false, false},
		{"wrong content type", h2.Request{Method: "POST", Path: "/dns-query", Body: hit}, false, false},
		{"unknown path", h2.Request{Method: "POST", Path: "/nope", Header: dohPOSTHeader, Body: hit}, false, false},
	} {
		resp, next := inline.ServeH2Inline(&c.req)
		if (resp != nil) != c.answered || (next != nil) != c.next {
			t.Errorf("%s: answered=%v next=%v, want %v and %v", c.name, resp != nil, next != nil, c.answered, c.next)
		}
		if next != nil {
			if resp := next(); resp.Status != 200 {
				t.Errorf("%s: continuation answered %d", c.name, resp.Status)
			}
		}
	}
	slowFrontend := *d
	slowFrontend.Processing = 1
	h2h, _ = slowFrontend.Bind(t.Context())
	if resp, next := h2h.(h2.InlineHandler).ServeH2Inline(&h2.Request{Method: "POST", Path: "/dns-query", Header: dohPOSTHeader, Body: hit}); resp != nil || next != nil {
		t.Error("Processing > 0: the inline step must leave the sleep to the stream's goroutine")
	}
}

// TestDoHInlineGuardRefuses: an over-limit plain POST is refused on the
// read loop, in kind, and charged once.
func TestDoHInlineGuardRefuses(t *testing.T) {
	g := guard.New(guard.Config{ClientQPS: noRefill, Burst: 1})
	_, cc := dohOverH2(t, &DoH{Handler: &refStub{}, Guard: g})
	_, wire := packQuery(t, 9, "fast.example.")
	for i, want := range []dnswire.RCode{dnswire.RCodeSuccess, dnswire.RCodeRefused} {
		resp, err := cc.RoundTrip(context.Background(), &h2.Request{
			Method: "POST", Scheme: "https", Authority: "doh.test", Path: "/dns-query", Header: dohPOSTHeader, Body: wire,
		})
		if err != nil {
			t.Fatal(err)
		}
		var m dnswire.Message
		if err := m.Unpack(resp.Body); err != nil || resp.Status != 200 || m.RCode != want || m.ID != 9 {
			t.Errorf("query %d: status %d rcode %v id %d (%v), want 200 %v 9", i, resp.Status, m.RCode, m.ID, err, want)
		}
	}
	if r := g.Report(); r.Allowed != 1 || r.Refusals != 1 {
		t.Errorf("guard saw %d allowed, %d refused; want 1 and 1", r.Allowed, r.Refusals)
	}
}
