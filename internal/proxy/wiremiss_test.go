package proxy

import (
	"bytes"
	"context"
	"crypto/tls"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dohcost/internal/dnscache"
	"dohcost/internal/dnsserver"
	"dohcost/internal/dnstransport"
	"dohcost/internal/dnswire"
	"dohcost/internal/guard"
	"dohcost/internal/h2"
	"dohcost/internal/hpack"
	"dohcost/internal/netsim"
	"dohcost/internal/qtrace"
	"dohcost/internal/telemetry"
	"dohcost/internal/tlsx"
)

// wireUpstream is an in-memory upstream in native wire form: it answers
// every query with one A record, encoded the way this repository's packer
// would (question echoed, the answer's name a pointer to it), appended to
// the caller's buffer, as a transport client copies a reply out of its
// read buffer.
type wireUpstream struct{ exchanges atomic.Int64 }

func (u *wireUpstream) ExchangeWire(ctx context.Context, query, dst []byte) ([]byte, error) {
	u.exchanges.Add(1)
	resp := append(dst, query...)
	reply := resp[len(dst):]
	reply[2] |= 0x80 // QR
	reply[3] |= 0x80 // RA
	binary.BigEndian.PutUint16(reply[6:], 1)
	return append(resp, 0xC0, 12, 0, 1, 0, 1, 0, 0, 1, 44, 0, 4, 192, 0, 2, 77), nil
}

func (u *wireUpstream) Exchange(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	return dnstransport.ExchangeMessage(ctx, u, q)
}

func (u *wireUpstream) Close() error { return nil }

// missProxy builds a proxy over a wireUpstream with guard and tracing
// armed, the way the benchmark arms them: every check runs, none refuses.
func missProxy(t *testing.T, cfg Config) (*Proxy, *wireUpstream) {
	t.Helper()
	up := &wireUpstream{}
	cfg.Upstreams = []dnstransport.PoolUpstream{{Name: "mem", Dial: func(context.Context) (dnstransport.Resolver, error) { return up, nil }}}
	cfg.Guard = &guard.Config{ClientQPS: 1e9, Burst: 1 << 30, MissRate: 1e9, MaxInflightMiss: 1 << 20}
	cfg.Tracing = &qtrace.Config{}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p, up
}

// missDriver sends never-repeated names through the handler's wire miss
// step the way a server's slow-step slot does: under the slot's context —
// over the client's guard key, carrying the query's transaction — into the
// buffer the server frames from.
type missDriver struct {
	t    *testing.T
	p    *Proxy
	wm   dnsserver.WireMissResponder
	qc   telemetry.QueryContext
	buf  []byte
	wire []byte
	seq  int
}

func newMissDriver(t *testing.T, p *Proxy) *missDriver {
	wire, err := dnswire.NewQuery(7, "n0000000.miss.example.", dnswire.TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	return &missDriver{t: t, p: p, wm: p.Handler().(dnsserver.WireMissResponder),
		qc: telemetry.QueryContext{Context: guard.NewContext(context.Background(), 0xfeedface)}, buf: make([]byte, 0, 512), wire: wire}
}

func (d *missDriver) miss() {
	d.seq++
	copy(d.wire[14:21], fmt.Appendf(d.wire[14:14], "%07d", d.seq)) // the digits of "n0000000"
	q, ok := dnswire.ParseQuery(d.wire)
	if !ok {
		d.t.Fatal("ParseQuery declined the driver's query")
	}
	tx := d.p.Telemetry().Begin(telemetry.ProtoUDP)
	tx.TraceQuery(&q)
	d.qc.Set(tx)
	resp, err := d.wm.ServeDNSWireMiss(&d.qc, &q, d.buf)
	d.qc.Set(nil)
	if err != nil || len(resp) != len(d.wire)+16 || binary.BigEndian.Uint16(resp) != 7 || &resp[0] != &d.buf[:1][0] {
		d.t.Fatalf("wire miss: %d bytes, err %v", len(resp), err)
	}
	tx.SetVerdict(telemetry.VerdictOK)
	tx.Finish()
}

// TestWireMissAllocs pins what a miss costs the proxy: the whole path from
// the handler's wire miss step to the in-memory upstream and back — cache
// lookup, flight, breaker, steerer, pool, strict scan, admission, arena
// insert — with guard and tracing armed. Nothing is left but the amortised
// growth of the flight map and the cache's tables. The transaction rides
// the slot's context (a context layer was one allocation); the flight —
// struct, key bytes, deadline timer, Done channel — is recycled and filed
// under the key's hash (a key string was another, its map slot a third);
// the upstream appends the reply to the server's buffer (a reply of its own
// was a fourth); nothing is derived from the context per miss; the entry is
// bytes in the cache's arena and a record in its table, not an object.
func TestWireMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool and instrumentation allocate")
	}
	p, up := missProxy(t, Config{})
	d := newMissDriver(t, p)
	d.miss() // settle pools, dial the pool slot
	const budget = 1
	if got := testing.AllocsPerRun(200, d.miss); got > budget {
		t.Errorf("a UDP-shaped wire miss allocates %.1f times, budget %d", got, budget)
	}
	if s := p.CacheStats(); s.Misses != up.exchanges.Load() || s.Hits != 0 {
		t.Errorf("driver did not miss every time: %+v, %d exchanges", s, up.exchanges.Load())
	}
}

// TestRefusedWireMissAllocs pins what saying no costs: a miss the breaker
// refuses is answered REFUSED from the query's own bytes — one slice, no
// Unpack of the query and no Pack of a Message — on top of what the cache
// spent finding out (the same call into the cache, its error returned).
func TestRefusedWireMissAllocs(t *testing.T) {
	g := guard.Config{ClientQPS: 1e9, Burst: 1 << 30, MissRate: 1e-9}
	p, err := New(Config{
		Upstreams: []dnstransport.PoolUpstream{{Name: "mem", Dial: func(context.Context) (dnstransport.Resolver, error) { return &wireUpstream{}, nil }}},
		Guard:     &g,
		Tracing:   &qtrace.Config{},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	wire, err := dnswire.NewQuery(7, "refused.miss.example.", dnswire.TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	q, ok := dnswire.ParseQuery(wire)
	if !ok {
		t.Fatal("ParseQuery declined the query")
	}
	ctx := telemetry.NewContext(guard.NewContext(context.Background(), 0xfeedface), p.Telemetry().Begin(telemetry.ProtoUDP))
	var resp []byte
	refused := testing.AllocsPerRun(200, func() { resp, err = fastHandler{p}.ServeDNSWireMiss(ctx, &q, nil) })
	if err != nil || len(resp) != len(wire) || resp[3]&0xF != byte(dnswire.RCodeRefused) {
		t.Fatalf("refused miss: %x, err %v", resp, err)
	}
	finding := testing.AllocsPerRun(200, func() { _, err = p.cache.ExchangeQuery(ctx, &q, nil) })
	if !errors.Is(err, guard.ErrMissBudget) {
		t.Fatalf("the breaker did not refuse: %v", err)
	}
	if refused-finding > 2 {
		t.Errorf("a refused miss allocates %.1f times, %.1f of them in the cache: the refusal itself has a budget of 2", refused, finding)
	}
}

// TestRejectedMissBuildsNoEntry: admission is decided before anything is
// built, and an admitted entry is a block in the arena and a record in a
// table, no object — so a miss TinyLFU refuses and one it admits allocate
// the same, but for the tables' amortised growth.
func TestRejectedMissBuildsNoEntry(t *testing.T) {
	admitting, _ := missProxy(t, Config{CacheShards: 1})
	da := newMissDriver(t, admitting)
	da.miss()
	admitted := allocsPer(200, da.miss)

	// One shard at the minimum budget, filled with names asked often enough
	// that a once-asked newcomer never out-ranks its victims, whatever the
	// process's hash seed makes collide: seventeen sightings saturate every
	// counter a hot name touches (the doorkeeper takes the first, the 4-bit
	// counters stop at fifteen), so a resident estimates at the ceiling, a
	// newcomer at the ceiling at most, and ties keep the incumbent. The
	// 1 290 lookups stay under the sketch's aging sample (2 048), so nothing
	// is halved on the way.
	full, _ := missProxy(t, Config{CacheShards: 1, CacheBudget: 4 << 10, CacheAdmission: dnscache.AdmissionTinyLFU})
	h := full.Handler()
	for round := 0; round < 17; round++ {
		for i := 0; i < 64; i++ {
			q := dnswire.NewQuery(1, dnswire.Name(fmt.Sprintf("hot%02d.example.", i)), dnswire.TypeA)
			if _, err := h.ServeDNS(context.Background(), q); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := full.CacheStats()
	df := newMissDriver(t, full)
	df.miss()
	rejected := allocsPer(200, df.miss)
	after := full.CacheStats()
	if got := after.AdmissionRejects - before.AdmissionRejects; got != 202 || after.SketchResets != 0 {
		t.Fatalf("%d of 202 newcomers rejected, %d sketch resets: want every one and none", got, after.SketchResets)
	}
	// The race detector's sync.Pool adds the same noise to both sides.
	if rejected > admitted+0.5 || admitted > rejected+0.5 {
		t.Errorf("a rejected miss allocates %.2f times, an admitted one %.2f: want neither to build an entry", rejected, admitted)
	}
}

// allocsPer is testing.AllocsPerRun — one warm-up call, then runs measured
// on one P — without the rounding to a whole number, which hides a
// difference of one between two averages.
func allocsPer(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	before := m.Mallocs
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&m)
	return float64(m.Mallocs-before) / float64(runs)
}

// rawClient sends one packed query over some transport and returns the
// packed reply, untouched.
type rawClient func(t *testing.T, query []byte) []byte

// missTransport is one way into a missBed's proxy.
type missTransport struct {
	name  string
	write bool // the adapter owns the socket write
	send  rawClient
}

// missBed starts a proxy at proxy.dns forwarding to up, on every transport
// — UDP on the simulated network (portable fallback socket, vector 1) and
// on a kernel socket (batched loop), TCP, out-of-order DoT, DoH POST — with
// guard g armed and every trace kept, and returns a raw client per
// transport.
func missBed(t *testing.T, n *netsim.Network, up dnstransport.PoolUpstream, pool dnstransport.PoolConfig, g guard.Config) (*Proxy, []missTransport) {
	t.Helper()
	chain, err := tlsx.GenerateChain(tlsx.CloudflareLike("proxy.dns"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{
		Upstreams:       []dnstransport.PoolUpstream{up},
		Pool:            pool,
		Chain:           chain,
		UDPListen:       "127.0.0.1:0",
		UDPShards:       1,
		UpstreamTimeout: 2 * time.Second,
		Guard:           &g,
		Tracing:         &qtrace.Config{SampleEvery: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(n, "proxy.dns"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })

	datagram := func(dial func() (net.Conn, error)) rawClient {
		return func(t *testing.T, query []byte) []byte {
			c, err := dial()
			if err != nil {
				t.Error(err)
				return nil
			}
			defer c.Close()
			c.SetDeadline(time.Now().Add(5 * time.Second))
			buf := make([]byte, 4096)
			if _, err = c.Write(query); err == nil {
				var nr int
				if nr, err = c.Read(buf); err == nil {
					return buf[:nr]
				}
			}
			t.Error(err)
			return nil
		}
	}
	stream := func(dial func() (net.Conn, error)) rawClient {
		return func(t *testing.T, query []byte) []byte {
			c, err := dial()
			if err != nil {
				t.Error(err)
				return nil
			}
			defer c.Close()
			if err = dnsserver.WriteStreamMessage(c, query); err == nil {
				var resp []byte
				if resp, err = dnsserver.ReadStreamMessage(c); err == nil {
					return resp
				}
			}
			t.Error(err)
			return nil
		}
	}
	return p, []missTransport{
		{"udp-netsim", true, datagram(func() (net.Conn, error) {
			pc, err := n.ListenPacket("")
			if err != nil {
				return nil, err
			}
			return connectedPacketConn{pc, netsim.Addr("proxy.dns:53")}, nil
		})},
		{"udp-kernel", true, datagram(func() (net.Conn, error) { return net.Dial("udp", p.UDPAddr().String()) })},
		{"tcp", true, stream(func() (net.Conn, error) { return n.Dial("client", "proxy.dns:53") })},
		{"dot", true, stream(func() (net.Conn, error) {
			c, err := n.Dial("client", "proxy.dns:853")
			if err != nil {
				return nil, err
			}
			return tls.Client(c, chain.ClientConfig("proxy.dns")), nil
		})},
		{"doh", false, func(t *testing.T, query []byte) []byte {
			c, err := n.Dial("client", "proxy.dns:443")
			if err != nil {
				t.Error(err)
				return nil
			}
			cc, err := h2.NewClientConn(tls.Client(c, chain.ClientConfig("proxy.dns", "h2")))
			if err != nil {
				t.Error(err)
				return nil
			}
			defer cc.Close()
			resp, err := cc.RoundTrip(context.Background(), &h2.Request{Method: "POST", Scheme: "https", Authority: "proxy.dns", Path: "/dns-query",
				Header: []hpack.HeaderField{{Name: "content-type", Value: dnsserver.ContentTypeWire}}, Body: query})
			if err != nil || resp.Status != 200 {
				t.Errorf("doh: %v %+v", err, resp)
				return nil
			}
			return resp.Body
		}},
	}
}

// TestMissAcrossTransports is the miss-path half of the transport
// equivalence contract, against the real proxy: over UDP on the simulated
// network (portable fallback socket, vector 1), UDP on a kernel socket
// (batched loop), TCP, out-of-order DoT and DoH POST, a miss and a
// coalesced miss return exactly the bytes the upstream's own packer
// produced for the name, under the asking client's ID, and leave the same
// trace: miss = guard, parse, cache, guard (the breaker), upstream, admit,
// write; coalesced = guard, parse, cache, write. DoH records no write span.
func TestMissAcrossTransports(t *testing.T) {
	n := netsim.New(16)
	static := dnsserver.Static(netip.MustParseAddr("192.0.2.77"), 300)
	var upstreamQueries atomic.Int64
	run, err := (&dnsserver.Server{Handler: dnsserver.HandlerFunc(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		upstreamQueries.Add(1)
		// Slow enough that two queries sent back to back share one flight.
		return dnsserver.Delay(60*time.Millisecond, static).ServeDNS(ctx, q)
	})}).Start(n, "recursive.upstream")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(run.Close)

	p, transports := missBed(t, n, tcpUpstream(n, "proxy.dns", "recursive.upstream"), dnstransport.PoolConfig{ConnsPerUpstream: 1},
		guard.Config{ClientQPS: 1e9, Burst: 1 << 30, MissRate: 1e9, MaxInflightMiss: 1 << 20})
	// Dial the pool's one slot now, so no measured trace carries a dial span.
	if _, err := p.Handler().ServeDNS(context.Background(), dnswire.NewQuery(1, "warm.example.", dnswire.TypeA)); err != nil {
		t.Fatal(err)
	}

	// expect packs what the upstream answers q with — the proxy must hand
	// back exactly these bytes.
	expect := func(q *dnswire.Message) []byte {
		resp, err := static.ServeDNS(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		wire, err := resp.Pack()
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}
	phasesOf := func(qname string) (cache map[string][]string) {
		cache = make(map[string][]string)
		for _, v := range tracesOf(p, qname) {
			cache[v.Cache] = phasesIn(v)
		}
		return cache
	}

	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			before, exchanges := p.CacheStats(), upstreamQueries.Load()
			name := dnswire.Name("miss-" + tr.name + ".example.")
			queries := []*dnswire.Message{dnswire.NewQuery(0x1001, name, dnswire.TypeA), dnswire.NewQuery(0x2002, name, dnswire.TypeA)}
			queries[1].EDNS = nil // coalescing keys on the question alone
			replies := make([][]byte, 2)
			var wg sync.WaitGroup
			for i, q := range queries {
				wire, err := q.Pack()
				if err != nil {
					t.Fatal(err)
				}
				if i == 1 {
					// The follower goes once the leader's flight is up.
					waitForStats(t, p, func(s dnscache.Stats) bool { return s.Misses == before.Misses+1 })
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					replies[i] = tr.send(t, wire)
				}()
			}
			wg.Wait()
			after := p.CacheStats()
			if after.Misses != before.Misses+1 || after.Coalesced != before.Coalesced+1 || upstreamQueries.Load() != exchanges+1 {
				t.Fatalf("want one miss, one coalesced, one upstream exchange; stats %+v → %+v, %d exchanges",
					before, after, upstreamQueries.Load()-exchanges)
			}
			// Both callers get the flight's bytes — the upstream's answer to
			// the leader — each under its own ID.
			want := expect(queries[0])
			for i, q := range queries {
				dnswire.PatchID(want, q.ID)
				if !bytes.Equal(replies[i], want) {
					t.Errorf("query %d: reply differs from the upstream's bytes:\n got  %x\n want %x", i, replies[i], want)
				}
			}

			wantPhases := map[string][]string{
				"miss":      {"guard", "parse", "cache", "guard", "upstream", "admit", "write"},
				"coalesced": {"guard", "parse", "cache", "write"},
			}
			var got map[string][]string
			deadline := time.Now().Add(2 * time.Second)
			for got = phasesOf(string(name)); len(got) < 2 && time.Now().Before(deadline); got = phasesOf(string(name)) {
				time.Sleep(2 * time.Millisecond) // UDP finishes the transaction just after the reply leaves
			}
			for outcome, want := range wantPhases {
				if !tr.write {
					want = want[:len(want)-1]
				}
				if !slices.Equal(got[outcome], want) {
					t.Errorf("%s trace phases %v, want %v", outcome, got[outcome], want)
				}
			}
		})
	}

	// The rows no upstream answers: a miss whose every exchange fails is
	// told SERVFAIL, one the breaker refuses REFUSED.
	t.Run("dead-upstream", func(t *testing.T) {
		testUnansweredMiss(t, guard.Config{ClientQPS: 1e9, Burst: 1 << 30, MissRate: 1e9, MaxInflightMiss: 1 << 20},
			dnswire.RCodeServerFailure, "servfail", []string{"guard", "parse", "cache", "guard", "admit", "write"})
	})
	t.Run("breaker-refused", func(t *testing.T) {
		testUnansweredMiss(t, guard.Config{ClientQPS: 1e9, Burst: 1 << 30, MissRate: 1e-9},
			dnswire.RCodeRefused, "ok", []string{"guard", "parse", "cache", "guard", "admit", "write"})
	})
}

// deadUpstream dials and then fails every exchange.
type deadUpstream struct{}

func (deadUpstream) ExchangeWire(context.Context, []byte, []byte) ([]byte, error) {
	return nil, errors.New("upstream is dead")
}
func (d deadUpstream) Exchange(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	return dnstransport.ExchangeMessage(ctx, d, q)
}
func (deadUpstream) Close() error { return nil }

// testUnansweredMiss is TestMissAcrossTransports for a miss the proxy must
// answer itself, behind a dead upstream and guard g: over every transport
// the reply is, byte for byte, the one the Message path builds — Unpack →
// Reply → RCode → Pack, the oracle here and what every transport sent
// before these replies were built on the wire — for a plain query and for
// one with EDNS, DO and an option, and the trace carries the same verdict
// and the same phases (DoH records no write span).
func testUnansweredMiss(t *testing.T, g guard.Config, rcode dnswire.RCode, verdict string, phases []string) {
	n := netsim.New(16)
	up := dnstransport.PoolUpstream{Name: "dead", Dial: func(context.Context) (dnstransport.Resolver, error) { return deadUpstream{}, nil }}
	p, transports := missBed(t, n, up, dnstransport.PoolConfig{ConnsPerUpstream: 1, BackoffBase: time.Hour, BackoffMax: time.Hour}, g)
	// Dial the pool's one slot and fail on it now: its redial backoff
	// outlasts the test, so no measured trace carries a dial span.
	p.Handler().ServeDNS(context.Background(), dnswire.NewQuery(1, "warm.example.", dnswire.TypeA))
	for _, tr := range transports {
		for i, edns := range []*dnswire.EDNS{nil, {UDPSize: 1232, DO: true, Options: []dnswire.EDNS0Option{{Code: dnsserver.EDNS0PaddingCode, Data: make([]byte, 5)}}}} {
			name := dnswire.Name(fmt.Sprintf("unanswered%d-%s.example.", i, tr.name))
			q := dnswire.NewQuery(uint16(0x3000+i), name, dnswire.TypeA)
			q.EDNS, q.CheckingDisabled = edns, true
			wire, err := q.Pack()
			if err != nil {
				t.Fatal(err)
			}
			r := q.Reply()
			r.RCode = rcode
			want, err := r.Pack()
			if err != nil {
				t.Fatal(err)
			}
			if got := tr.send(t, wire); !bytes.Equal(got, want) {
				t.Errorf("%s, query %d: reply differs from the Message-built %v:\n got  %x\n want %x", tr.name, i, rcode, got, want)
			}
			var kept []qtrace.View
			deadline := time.Now().Add(2 * time.Second)
			for kept = tracesOf(p, string(name)); len(kept) == 0 && time.Now().Before(deadline); kept = tracesOf(p, string(name)) {
				time.Sleep(2 * time.Millisecond) // UDP finishes the transaction just after the reply leaves
			}
			if len(kept) != 1 {
				t.Fatalf("%s, query %d: %d traces kept, want 1", tr.name, i, len(kept))
			}
			wantPhases := phases
			if !tr.write {
				wantPhases = phases[:len(phases)-1]
			}
			if got := phasesIn(kept[0]); kept[0].Verdict != verdict || !slices.Equal(got, wantPhases) {
				t.Errorf("%s, query %d: verdict %q phases %v, want %q %v", tr.name, i, kept[0].Verdict, got, verdict, wantPhases)
			}
		}
	}
}

// tracesOf returns the kept traces of the queries for qname.
func tracesOf(p *Proxy, qname string) []qtrace.View {
	return slices.DeleteFunc(p.Tracer().Traces(qtrace.Filter{Limit: 1000}), func(v qtrace.View) bool { return v.QName != qname })
}

// phasesIn lists a trace's phases in recording order.
func phasesIn(v qtrace.View) (phases []string) {
	for _, sp := range v.Spans {
		phases = append(phases, sp.Phase)
	}
	return phases
}

// connectedPacketConn gives a simulated datagram socket the Read/Write
// face of a connected one.
type connectedPacketConn struct {
	net.PacketConn
	peer net.Addr
}

func (c connectedPacketConn) Write(b []byte) (int, error) { return c.WriteTo(b, c.peer) }
func (c connectedPacketConn) Read(b []byte) (int, error) {
	n, _, err := c.ReadFrom(b)
	return n, err
}
func (c connectedPacketConn) RemoteAddr() net.Addr { return c.peer }

// waitForStats polls the cache counters until cond holds.
func waitForStats(t *testing.T, p *Proxy, cond func(dnscache.Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond(p.CacheStats()) {
		if time.Now().After(deadline) {
			t.Fatalf("cache never reached the awaited state: %+v", p.CacheStats())
		}
		time.Sleep(time.Millisecond)
	}
}
