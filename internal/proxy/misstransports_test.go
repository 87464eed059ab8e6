package proxy_test

import (
	"bytes"
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"dohcost/internal/dnscache"
	"dohcost/internal/dnsserver"
	"dohcost/internal/dnstransport"
	"dohcost/internal/dnswire"
	"dohcost/internal/guard"
	"dohcost/internal/h2"
	"dohcost/internal/hpack"
	"dohcost/internal/loadgen"
	"dohcost/internal/netsim"
	"dohcost/internal/proxy"
	"dohcost/internal/qtrace"
	"dohcost/internal/tlsx"
)

// rawClient sends one packed query over some transport and returns the
// packed reply, untouched.
type rawClient func(t *testing.T, query []byte) []byte

// missTransport is one way into a missBed's proxy.
type missTransport struct {
	name  string
	write bool // the adapter owns the socket write
	send  rawClient
}

// missBed is the proxy the miss tests query: serving on every transport
// — UDP on the simulated network (portable fallback socket, vector 1) and
// on a kernel socket (batched loop), TCP, out-of-order DoT, DoH POST — with
// the pool tuned by pool, guard g armed and every trace kept.
func missBed(pool dnstransport.PoolConfig, g guard.Config) proxy.Config {
	return proxy.Config{
		Pool:            pool,
		UDPListen:       "127.0.0.1:0",
		UDPShards:       1,
		UpstreamTimeout: 2 * time.Second,
		Guard:           &g,
		Tracing:         &qtrace.Config{SampleEvery: 1},
	}
}

// missClients returns a raw client per transport into p, served at
// proxy.dns on n under chain.
func missClients(n *netsim.Network, chain *tlsx.Chain, p *proxy.Proxy) []missTransport {
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
				if resp, err = dnsserver.ReadStreamMessageInto(c, make([]byte, 2)); err == nil {
					return resp
				}
			}
			t.Error(err)
			return nil
		}
	}
	return []missTransport{
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
	d := deploy(t, loadgen.Scenario{
		Seed: 16,
		// Slow enough that two queries sent back to back share one flight.
		UpstreamRTT: 60 * time.Millisecond,
		Proxy: missBed(dnstransport.PoolConfig{ConnsPerUpstream: 1},
			guard.Config{ClientQPS: 1e9, Burst: 1 << 30, MissRate: 1e9, MaxInflightMiss: 1 << 20}),
	})
	p, up := d.Proxy, d.Upstreams()[0]
	transports := missClients(d.Net(), d.Chain(), p)
	static := dnsserver.Static(answer, 300)
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
			before, exchanges := p.CacheStats(), up.Queries()
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
			if after.Misses != before.Misses+1 || after.Coalesced != before.Coalesced+1 || up.Queries() != exchanges+1 {
				t.Fatalf("want one miss, one coalesced, one upstream exchange; stats %+v → %+v, %d exchanges",
					before, after, up.Queries()-exchanges)
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
	// Deploy's upstreams answer; this one is an in-process fake that fails.
	n := netsim.New(16)
	cfg := missBed(dnstransport.PoolConfig{ConnsPerUpstream: 1, BackoffBase: time.Hour, BackoffMax: time.Hour}, g)
	cfg.Upstreams = []dnstransport.PoolUpstream{{Name: "dead", Dial: func(context.Context) (dnstransport.Resolver, error) { return deadUpstream{}, nil }}}
	p, chain := startBespoke(t, n, cfg)
	transports := missClients(n, chain, p)
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
func tracesOf(p *proxy.Proxy, qname string) []qtrace.View {
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
func waitForStats(t *testing.T, p *proxy.Proxy, cond func(dnscache.Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond(p.CacheStats()) {
		if time.Now().After(deadline) {
			t.Fatalf("cache never reached the awaited state: %+v", p.CacheStats())
		}
		time.Sleep(time.Millisecond)
	}
}
