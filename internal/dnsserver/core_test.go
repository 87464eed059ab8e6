package dnsserver

// Cross-transport coverage for the serving core: every front end must
// return the bytes the handler produces — nothing a serve loop adds or
// loses — and record the same trace phases for the same kind of query.

import (
	"bytes"
	"context"
	"crypto/tls"
	"errors"
	"net"
	"net/netip"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"dohcost/internal/dnswire"
	"dohcost/internal/guard"
	"dohcost/internal/h2"
	"dohcost/internal/hpack"
	"dohcost/internal/qtrace"
	"dohcost/internal/telemetry"
	"dohcost/internal/tlsx"
	"dohcost/internal/udpio"
)

// refStub answers every A query from a fixed rule — one record, forty
// (≈700 bytes packed, past the 512-byte default) for names containing
// "big", or three hundred (≈4.8 KB, past a pooled stream buffer and a UDP
// read window) for names containing "huge" — and offers a wire fast path that packs that same answer, for
// every name not starting with "slow" and every answer within the limit.
// Names starting with "dead" it fails to resolve, on whichever slow path.
type refStub struct{ fast, msg atomic.Int64 }

var errDead = errors.New("refStub: upstream is dead")

// slowName reports a name the stubs' fast path declines.
func slowName(n dnswire.Name) bool {
	return strings.HasPrefix(string(n), "slow") || strings.HasPrefix(string(n), "dead")
}

func refAnswer(q *dnswire.Message) *dnswire.Message {
	r := q.Reply()
	name := q.Question1().Name
	n := 1
	switch {
	case strings.Contains(string(name), "big"):
		n = 40
	case strings.Contains(string(name), "huge"):
		n = 300
	}
	for i := 0; i < n; i++ {
		r.Answers = append(r.Answers, dnswire.ResourceRecord{
			Name: name, Class: dnswire.ClassINET, TTL: 60,
			Data: &dnswire.A{Addr: netip.AddrFrom4([4]byte{192, 0, byte(2 + i>>8), byte(i + 1)})},
		})
	}
	return r
}

func (s *refStub) ServeDNS(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	s.msg.Add(1)
	if strings.HasPrefix(string(q.Question1().Name), "dead") {
		return nil, errDead
	}
	return refAnswer(q), nil
}

func (s *refStub) ServeDNSWire(tx *telemetry.Transaction, q *dnswire.Query, dst []byte, limit int) ([]byte, bool) {
	var m dnswire.Message
	if err := m.Unpack(q.Raw); err != nil || slowName(m.Question1().Name) {
		return nil, false
	}
	wire, err := refAnswer(&m).Pack()
	if err != nil || len(wire) > limit {
		return nil, false
	}
	s.fast.Add(1)
	tx.SetCache(telemetry.CacheHit)
	return append(dst, wire...), true
}

// missStub is refStub with the wire miss step: what its fast path declines
// it resolves in packed form, so no parsed query reaches ServeDNS; a shape
// ParseQuery declined goes to MessageAdapter, as the proxy's does.
type missStub struct {
	refStub
	miss atomic.Int64
}

func (s *missStub) ServeDNSWireMiss(ctx context.Context, q *dnswire.Query, dst []byte) ([]byte, error) {
	if !q.Parsed() {
		return MessageAdapter{Handler: &s.refStub}.ServeDNSWireMiss(ctx, q, dst)
	}
	s.miss.Add(1)
	var m dnswire.Message
	if err := m.Unpack(q.Raw); err != nil {
		return nil, err
	}
	if strings.HasPrefix(string(m.Question1().Name), "dead") {
		return nil, errDead
	}
	return refAnswer(&m).AppendPack(dst)
}

// openGuard is a guard no test client can exhaust: every check runs, none
// limits.
func openGuard() *guard.Guard {
	return guard.New(guard.Config{ClientQPS: 1e9, Burst: 1 << 30, CookieSecret: 0xc0ffee})
}

// streamExchange sends each query over one stream connection, in order.
func streamExchange(t *testing.T, conn net.Conn, queries map[uint16][]byte) map[uint16][]byte {
	t.Helper()
	got := make(map[uint16][]byte, len(queries))
	for id, q := range queries {
		if err := WriteStreamMessage(conn, q); err != nil {
			t.Fatal(err)
		}
		resp, err := ReadStreamMessageInto(conn, make([]byte, 2))
		if err != nil {
			t.Fatal(err)
		}
		got[id] = resp
	}
	return got
}

var dohPOSTHeader = []hpack.HeaderField{{Name: "content-type", Value: ContentTypeWire}}

// TestTransportEquivalence is the contract that makes the transport the
// only variable: for a query set mixing fast hits, names the wire path
// declines, EDNS and no EDNS, a client cookie, an answer past the 512-byte
// default, one past every pooled buffer (hit and miss, asked with a
// 65 535-octet EDNS buffer), and a name the handler fails to resolve, the DNS
// payload returned over UDP (portable fallback
// conn, vector 1), UDP (kernel socket, vector 16), TCP, DoT and DoH POST
// equals Respond(ctx, handler, q).Pack() computed with no serve loop
// involved — whether what the fast path declines takes the Message step
// or the handler's wire miss step. UDP's TC=1 truncation and its cookie
// echo are the only permitted differences, and both are asserted.
func TestTransportEquivalence(t *testing.T) {
	t.Run("message-step", func(t *testing.T) {
		stub := &refStub{}
		testTransportEquivalence(t, stub)
		if stub.fast.Load() == 0 || stub.msg.Load() == 0 {
			t.Fatalf("query set did not cover both steps: fast=%d msg=%d", stub.fast.Load(), stub.msg.Load())
		}
	})
	t.Run("wire-miss-step", func(t *testing.T) {
		stub := &missStub{}
		testTransportEquivalence(t, stub)
		if stub.fast.Load() == 0 || stub.miss.Load() == 0 || stub.msg.Load() != 0 {
			t.Fatalf("want hits and wire misses and no Message step: fast=%d miss=%d msg=%d", stub.fast.Load(), stub.miss.Load(), stub.msg.Load())
		}
	})
}

func testTransportEquivalence(t *testing.T, stub Handler) {
	clientCookie := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	queries := make(map[uint16][]byte)
	want := make(map[uint16][]byte)
	truncated := make(map[uint16]bool) // over UDP only
	cookied := make(map[uint16]bool)   // echoed over UDP only
	ref := &refStub{}
	for i, c := range []struct {
		name   dnswire.Name
		edns   uint16 // advertised buffer, 0 for no OPT
		cookie bool
	}{
		{name: "fast.example."},
		{name: "fast.example.", edns: 1232},
		{name: "slow.example."},
		{name: "slow.example.", edns: 1232},
		{name: "big.example."},             // a hit behind framing, over the limit on UDP
		{name: "big.example.", edns: 4096}, // a hit everywhere
		{name: "slow-big.example."},
		{name: "slow-cookie.example.", edns: 1232, cookie: true},
		{name: "huge.example.", edns: 65535},      // a hit longer than any pooled buffer
		{name: "slow-huge.example.", edns: 65535}, // and a miss
		{name: "dead.example."},                   // the slow step fails: the same SERVFAIL everywhere
		{name: "dead.example.", edns: 1232},
	} {
		id := uint16(0x4000 + i)
		q := dnswire.NewQuery(id, c.name, dnswire.TypeA)
		q.EDNS = nil // NewQuery advertises a 4096-byte buffer
		if c.edns > 0 {
			q.EDNS = &dnswire.EDNS{UDPSize: c.edns}
			if c.cookie {
				q.EDNS.Options = []dnswire.EDNS0Option{{Code: guard.EDNS0CookieCode, Data: clientCookie}}
			}
		}
		wire, err := q.Pack()
		if err != nil {
			t.Fatal(err)
		}
		queries[id] = wire
		if want[id], err = Respond(context.Background(), ref, q).Pack(); err != nil {
			t.Fatal(err)
		}
		truncated[id] = c.edns == 0 && len(want[id]) > 512
		cookied[id] = c.cookie
	}

	g := openGuard()
	chain, err := tlsx.GenerateChain(tlsx.CloudflareLike("dns.test"))
	if err != nil {
		t.Fatal(err)
	}

	got := make(map[string]map[uint16][]byte)

	pc1 := listenLoopback(t)
	// Hiding the concrete type makes udpio.Wrap choose the fallback.
	go (&UDPServer{Handler: stub, Guard: g}).Serve(struct{ net.PacketConn }{pc1})
	got["udp/1"] = collectResponses(t, pc1.LocalAddr().String(), queries)

	pc16 := listenLoopback(t)
	go (&UDPServer{Handler: stub, Guard: g}).ServeBatch([]udpio.BatchConn{udpio.Wrap(pc16)}, 16)
	got["udp/16"] = collectResponses(t, pc16.LocalAddr().String(), queries)

	tcpC, tcpS := net.Pipe()
	defer tcpC.Close()
	go (&StreamServer{Handler: stub, Guard: g}).ServeConn(tcpS)
	got["tcp"] = streamExchange(t, tcpC, queries)

	dotC, dotS := net.Pipe()
	defer dotC.Close()
	go (&StreamServer{Handler: stub, OutOfOrder: true, Guard: g, Proto: telemetry.ProtoDoT}).
		ServeConn(tls.Server(dotS, chain.ServerConfig(0, 0)))
	got["dot"] = streamExchange(t, tls.Client(dotC, chain.ClientConfig("dns.test")), queries)

	doh, _ := (&DoH{Handler: stub, Guard: g}).Bind(context.Background())
	got["doh"] = make(map[uint16][]byte)
	for id, q := range queries {
		resp := doh.ServeH2(&h2.Request{Method: "POST", Path: "/dns-query", Header: dohPOSTHeader, Body: q})
		if resp.Status != 200 {
			t.Fatalf("doh ID %#x: status %d", id, resp.Status)
		}
		got["doh"][id] = resp.Body
	}

	for transport, resps := range got {
		udp := strings.HasPrefix(transport, "udp")
		for id := range queries {
			raw, wantRaw := resps[id], want[id]
			if udp && (truncated[id] || cookied[id]) {
				// Undo exactly the permitted difference and nothing else.
				var m, w dnswire.Message
				if err := m.Unpack(raw); err != nil {
					t.Fatalf("%s ID %#x: %v", transport, id, err)
				}
				if err := w.Unpack(wantRaw); err != nil {
					t.Fatal(err)
				}
				if truncated[id] {
					if !m.Truncated || len(raw) > 512 {
						t.Errorf("%s ID %#x: want a TC=1 reply within 512 bytes, got tc=%v %d bytes", transport, id, m.Truncated, len(raw))
					}
					w.Truncated, w.Answers = true, nil
				}
				if cookied[id] {
					if m.EDNS == nil {
						t.Fatalf("%s ID %#x: reply lost its OPT record", transport, id)
					}
					opts := m.EDNS.Options
					if len(opts) != 1 || opts[0].Code != guard.EDNS0CookieCode || len(opts[0].Data) != 24 || !bytes.HasPrefix(opts[0].Data, clientCookie) {
						t.Errorf("%s ID %#x: want one 24-byte cookie echoing the client's, got %+v", transport, id, opts)
					}
					m.EDNS.Options = nil
				}
				var err error
				if raw, err = m.Pack(); err != nil {
					t.Fatal(err)
				}
				if wantRaw, err = w.Pack(); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(raw, wantRaw) {
				t.Errorf("%s ID %#x: payload differs from Respond().Pack():\n got  %x\n want %x", transport, id, raw, wantRaw)
			}
		}
	}
}

// TestStreamClosesOnBadQuery pins the fate of a framed query that does not
// unpack: the stream closes — when the slow step runs inline, and when an
// out-of-order connection runs it on a goroutine that has to end the read
// loop from outside — and queries answered before it still got their
// replies.
func TestStreamClosesOnBadQuery(t *testing.T) {
	good, err := dnswire.NewQuery(9, "slow.example.", dnswire.TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	for _, ooo := range []bool{false, true} {
		c, s := net.Pipe()
		done := make(chan error, 1)
		go func() { done <- (&StreamServer{Handler: &refStub{}, OutOfOrder: ooo}).ServeConn(s) }()
		if err := WriteStreamMessage(c, good); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadStreamMessageInto(c, make([]byte, 2)); err != nil {
			t.Fatalf("out-of-order=%v: no reply to the good query: %v", ooo, err)
		}
		if err := WriteStreamMessage(c, []byte("not a DNS message")); err != nil {
			t.Fatal(err)
		}
		if resp, err := ReadStreamMessageInto(c, make([]byte, 2)); err == nil {
			t.Errorf("out-of-order=%v: a query that does not unpack was answered: %x", ooo, resp)
		}
		<-done // ServeConn returned: the connection is closed and its goroutines are gone
		c.Close()
	}
}

// TestUnreadableQueryIsAServfail pins what a query the codec cannot read
// leaves behind on each transport: it is dropped on UDP, closes a stream and
// gets HTTP 400 on DoH — and, because the slow step begins its transaction
// before MessageAdapter reads the query, it is counted as one transaction
// with the servfail verdict.
func TestUnreadableQueryIsAServfail(t *testing.T) {
	bad := []byte("not a DNS message")
	good, err := dnswire.NewQuery(9, "fast.example.", dnswire.TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []struct {
		name  string
		drive func(t *testing.T, tel *telemetry.Metrics)
	}{
		{"udp", func(t *testing.T, tel *telemetry.Metrics) {
			pc := listenLoopback(t)
			go (&UDPServer{Handler: Static(netip.MustParseAddr("192.0.2.1"), 60), Telemetry: tel}).Serve(pc)
			c, err := net.Dial("udp", pc.LocalAddr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Write(bad); err != nil {
				t.Fatal(err)
			}
			// The one reply is the good query's: the bad one was dropped.
			if r := sendRecv(t, c, good); r.ID != 9 {
				t.Fatalf("first reply has ID %d, want the good query's", r.ID)
			}
		}},
		{"tcp", func(t *testing.T, tel *telemetry.Metrics) {
			c, s := net.Pipe()
			defer c.Close()
			done := make(chan error, 1)
			go func() {
				done <- (&StreamServer{Handler: Static(netip.MustParseAddr("192.0.2.1"), 60), Telemetry: tel}).ServeConn(s)
			}()
			if err := WriteStreamMessage(c, bad); err != nil {
				t.Fatal(err)
			}
			if err := <-done; err == nil {
				t.Fatal("the stream did not end on an unreadable query")
			}
		}},
		{"doh", func(t *testing.T, tel *telemetry.Metrics) {
			d := &DoH{Handler: Static(netip.MustParseAddr("192.0.2.1"), 60), Telemetry: tel}
			if status, _, _ := bindDoH(d, t.Context()).serve("POST", "/dns-query", ContentTypeWire, bad); status != 400 {
				t.Fatalf("status %d, want 400", status)
			}
		}},
	} {
		t.Run(tr.name, func(t *testing.T) {
			tel := telemetry.New()
			tr.drive(t, tel)
			waitFor(t, func() bool { return tel.Snapshot().Verdicts["servfail"] == 1 })
		})
	}
}

// deadStub fails every wire miss without looking at it.
type deadStub struct{ refStub }

func (*deadStub) ServeDNSWireMiss(context.Context, *dnswire.Query, []byte) ([]byte, error) {
	return nil, errDead
}

// TestFailedWireMissAllocs pins what a failed miss costs the slow step: the
// SERVFAIL is the query's own bytes echoed into the adapter's buffer — no
// Unpack, no Pack — under the slot's context, so it allocates nothing.
func TestFailedWireMissAllocs(t *testing.T) {
	wire, err := dnswire.NewQuery(7, "dead.example.", dnswire.TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	q, ok := dnswire.ParseQuery(wire)
	if !ok {
		t.Fatal("ParseQuery declined the query")
	}
	tel := telemetry.New()
	c := newCore(&deadStub{}, tel, telemetry.ProtoUDP)
	qc := &telemetry.QueryContext{Context: context.Background()}
	buf := make([]byte, 0, 512)
	var reply []byte
	got := testing.AllocsPerRun(200, func() {
		tx := c.begin(nil)
		qc.Set(tx)
		reply, err = c.answer(qc, tx, &q, buf)
		qc.Set(nil)
		tx.Finish()
	})
	if err != nil || len(reply) != len(wire) || reply[3]&0xF != byte(dnswire.RCodeServerFailure) || &reply[0] != &buf[:1][0] {
		t.Fatalf("failed miss: %x, err %v", reply, err)
	}
	if got > 0 {
		t.Errorf("a failed wire miss allocates %.1f times, want none", got)
	}
}

// adapterSink keeps a Message on the heap, as handing it to a handler does.
var adapterSink *dnswire.Message

// TestMessageAdapterAllocs pins what MessageAdapter adds to a Message
// handler: the query it unpacks and hands on, and nothing else — the reply
// is packed straight into the adapter's buffer (an exact-size Pack was one
// more allocation), behind a handler that answers with a reply it already
// holds.
func TestMessageAdapterAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool and instrumentation allocate")
	}
	query := dnswire.NewQuery(7, "adapter.example.", dnswire.TypeA)
	wire, err := query.Pack()
	if err != nil {
		t.Fatal(err)
	}
	reply := refAnswer(query)
	a := MessageAdapter{Handler: HandlerFunc(func(context.Context, *dnswire.Message) (*dnswire.Message, error) { return reply, nil })}
	q := dnswire.Query{Raw: wire}
	buf := make([]byte, 0, 512)
	unpack := testing.AllocsPerRun(200, func() {
		m := new(dnswire.Message)
		if err := m.Unpack(wire); err != nil {
			t.Fatal(err)
		}
		adapterSink = m
	})
	got := testing.AllocsPerRun(200, func() {
		resp, err := a.ServeDNSWireMiss(context.Background(), &q, buf)
		if err != nil || len(resp) < 12 || &resp[0] != &buf[:1][0] {
			t.Fatalf("adapter: %x, %v", resp, err)
		}
	})
	if got > unpack {
		t.Errorf("MessageAdapter allocates %.0f times, the query it unpacks %.0f: want nothing on top", got, unpack)
	}
}

// TestTracePhasesAcrossTransports pins the phase set a kept trace carries:
// the same for the same kind of query whatever carried it, because one
// core records everything but the write. DoH records no write span — its
// transaction ends where the DNS payload is handed to the HTTP layer.
func TestTracePhasesAcrossTransports(t *testing.T) {
	hit, err := dnswire.NewQuery(7, "fast.example.", dnswire.TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	declined, err := dnswire.NewQuery(8, "slow.example.", dnswire.TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	udp := func(wrap func(net.PacketConn) udpio.BatchConn, batch int) func(*testing.T, Handler, *telemetry.Metrics, []byte) {
		return func(t *testing.T, h Handler, tel *telemetry.Metrics, q []byte) {
			pc := listenLoopback(t)
			srv := &UDPServer{Handler: h, Guard: openGuard(), Telemetry: tel}
			go srv.ServeBatch([]udpio.BatchConn{wrap(pc)}, batch)
			collectResponses(t, pc.LocalAddr().String(), map[uint16][]byte{uint16(q[0])<<8 | uint16(q[1]): q})
		}
	}
	for _, tr := range []struct {
		name  string
		write bool // the adapter owns the socket write
		drive func(t *testing.T, h Handler, tel *telemetry.Metrics, q []byte)
	}{
		{"udp-vector-1", true, udp(func(pc net.PacketConn) udpio.BatchConn {
			return udpio.Wrap(struct{ net.PacketConn }{pc})
		}, 1)},
		{"udp-vector-16", true, udp(udpio.Wrap, 16)},
		{"tcp", true, func(t *testing.T, h Handler, tel *telemetry.Metrics, q []byte) {
			c, s := net.Pipe()
			defer c.Close()
			go (&StreamServer{Handler: h, Guard: openGuard(), Telemetry: tel}).ServeConn(s)
			streamExchange(t, c, map[uint16][]byte{0: q})
		}},
		{"dot-out-of-order", true, func(t *testing.T, h Handler, tel *telemetry.Metrics, q []byte) {
			c, s := net.Pipe()
			defer c.Close()
			go (&StreamServer{Handler: h, OutOfOrder: true, Guard: openGuard(), Proto: telemetry.ProtoDoT, Telemetry: tel}).ServeConn(s)
			streamExchange(t, c, map[uint16][]byte{0: q})
		}},
		{"doh-post", false, func(t *testing.T, h Handler, tel *telemetry.Metrics, q []byte) {
			d := &DoH{Handler: h, Guard: openGuard(), Telemetry: tel}
			h2h, _ := d.Bind(guard.NewContext(t.Context(), 424242))
			if resp := h2h.ServeH2(&h2.Request{Method: "POST", Path: "/dns-query", Header: dohPOSTHeader, Body: q}); resp.Status != 200 {
				t.Fatalf("status %d", resp.Status)
			}
		}},
	} {
		for _, kind := range []struct {
			name    string
			handler Handler
			query   []byte
			phases  []string
		}{
			{"hit", &refStub{}, hit, []string{"guard", "parse", "cache", "write"}},
			{"wire-declined", &refStub{}, declined, []string{"guard", "parse", "write"}},
			{"wire-miss", &missStub{}, declined, []string{"guard", "parse", "write"}},
		} {
			t.Run(tr.name+"/"+kind.name, func(t *testing.T) {
				tel := telemetry.New()
				tracer := qtrace.New(qtrace.Config{SampleEvery: 1})
				defer tracer.Close()
				tel.SetTracer(tracer)
				tr.drive(t, kind.handler, tel, kind.query)

				// UDP finishes the transaction just after the reply leaves.
				var views []qtrace.View
				waitFor(t, func() bool {
					views = tracer.Traces(qtrace.Filter{})
					return len(views) > 0
				})
				var got []string
				for _, sp := range views[0].Spans {
					got = append(got, sp.Phase)
				}
				want := kind.phases
				if !tr.write {
					want = want[:len(want)-1]
				}
				if len(views) != 1 || !slices.Equal(got, want) {
					t.Errorf("%d traces, phases %v; want 1 trace with %v", len(views), got, want)
				}
			})
		}
	}
}
