package proxy

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dohcost/internal/core"
	"dohcost/internal/dnsserver"
	"dohcost/internal/dnstransport"
	"dohcost/internal/dnswire"
	"dohcost/internal/netsim"
	"dohcost/internal/steer"
	"dohcost/internal/telemetry"
	"dohcost/internal/tlsx"
)

// upstreamHost is one authoritative deployment behind the proxy.
type upstreamHost struct {
	host    string
	queries atomic.Int64
	run     *dnsserver.Running
}

// startUpstream deploys a counting Static resolver at host (UDP/TCP only —
// the proxy forwards over TCP here).
func startUpstream(t *testing.T, n *netsim.Network, host string) *upstreamHost {
	t.Helper()
	u := &upstreamHost{host: host}
	inner := dnsserver.Static(netip.MustParseAddr("192.0.2.77"), 300)
	srv := &dnsserver.Server{
		Handler: dnsserver.HandlerFunc(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
			u.queries.Add(1)
			return inner.ServeDNS(ctx, q)
		}),
	}
	run, err := srv.Start(n, host)
	if err != nil {
		t.Fatal(err)
	}
	u.run = run
	t.Cleanup(run.Close)
	return u
}

// tcpUpstream builds a pool upstream forwarding to host over TCP.
func tcpUpstream(n *netsim.Network, proxyHost, host string) dnstransport.PoolUpstream {
	return dnstransport.PoolUpstream{
		Name: host,
		Dial: func(ctx context.Context) (dnstransport.Resolver, error) {
			return dnstransport.NewTCPClient(func(ctx context.Context) (net.Conn, error) {
				return n.DialContext(ctx, proxyHost, host+":53")
			}), nil
		},
	}
}

// startProxy brings up a full-listener proxy at proxyHost forwarding to the
// given upstream hosts.
func startProxy(t *testing.T, n *netsim.Network, proxyHost string, upstreams ...string) (*Proxy, *tlsx.Chain) {
	t.Helper()
	chain, err := tlsx.GenerateChain(tlsx.CloudflareLike(proxyHost))
	if err != nil {
		t.Fatal(err)
	}
	var ups []dnstransport.PoolUpstream
	for _, h := range upstreams {
		ups = append(ups, tcpUpstream(n, proxyHost, h))
	}
	p, err := New(Config{
		Upstreams:       ups,
		Pool:            dnstransport.PoolConfig{ConnsPerUpstream: 2, MaxFailures: 1, BackoffBase: time.Minute},
		Chain:           chain,
		Endpoints:       []dnsserver.Endpoint{{Path: "/dns-query", Wire: true, JSON: true}},
		UpstreamTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(n, proxyHost); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p, chain
}

func proxyClients(t *testing.T, n *netsim.Network, host string, chain *tlsx.Chain) map[string]dnstransport.Resolver {
	t.Helper()
	pc, err := n.ListenPacket("")
	if err != nil {
		t.Fatal(err)
	}
	udp := dnstransport.NewUDPClient(pc, netsim.Addr(host+":53"))
	tcp := dnstransport.NewTCPClient(func(ctx context.Context) (net.Conn, error) { return n.DialContext(ctx, "client", host+":53") })
	dot := dnstransport.NewDoTClient(func(ctx context.Context) (net.Conn, error) { return n.DialContext(ctx, "client", host+":853") }, chain.ClientConfig(host))
	doh := &dnstransport.DoHClient{
		Dial:       func(ctx context.Context) (net.Conn, error) { return n.DialContext(ctx, "client", host+":443") },
		TLS:        chain.ClientConfig(host),
		Persistent: true,
	}
	clients := map[string]dnstransport.Resolver{"udp": udp, "tcp": tcp, "dot": dot, "doh": doh}
	for _, c := range clients {
		c := c
		t.Cleanup(func() { c.Close() })
	}
	return clients
}

func TestProxyServesAllTransportsFromCacheAndPool(t *testing.T) {
	n := netsim.New(1)
	up := startUpstream(t, n, "recursive.upstream")
	p, chain := startProxy(t, n, "proxy.dns", "recursive.upstream")
	clients := proxyClients(t, n, "proxy.dns", chain)

	for name, c := range clients {
		t.Run(name, func(t *testing.T) {
			// Same qname over every transport: the first transport pays the
			// upstream round trip, the rest hit the shared cache.
			resp, err := c.Exchange(context.Background(), dnswire.NewQuery(0, "shared.example.", dnswire.TypeA))
			if err != nil {
				t.Fatal(err)
			}
			if resp.RCode != dnswire.RCodeSuccess || len(resp.Answers) != 1 {
				t.Fatalf("resp = %v", resp)
			}
			if a := resp.Answers[0].Data.(*dnswire.A); a.Addr != netip.MustParseAddr("192.0.2.77") {
				t.Fatalf("answer = %v", a.Addr)
			}
		})
	}
	if got := up.queries.Load(); got != 1 {
		t.Errorf("upstream saw %d queries, want 1 (cache shared across listeners)", got)
	}
	s := p.CacheStats()
	if s.Misses != 1 || s.Hits != 3 {
		t.Errorf("cache stats = %+v, want 1 miss + 3 hits", s)
	}
}

func TestProxyCoalescesConcurrentMisses(t *testing.T) {
	n := netsim.New(2)
	// A slow upstream widens the coalescing window.
	slow := &upstreamHost{host: "slow.upstream"}
	inner := dnsserver.Static(netip.MustParseAddr("192.0.2.77"), 300)
	srv := &dnsserver.Server{
		Handler: dnsserver.HandlerFunc(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
			slow.queries.Add(1)
			time.Sleep(30 * time.Millisecond)
			return inner.ServeDNS(ctx, q)
		}),
	}
	run, err := srv.Start(n, slow.host)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(run.Close)

	p, chain := startProxy(t, n, "proxy.dns", slow.host)
	clients := proxyClients(t, n, "proxy.dns", chain)
	c := clients["tcp"]

	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := c.Exchange(context.Background(), dnswire.NewQuery(0, "co.example.", dnswire.TypeA))
			if err != nil {
				t.Errorf("exchange: %v", err)
				return
			}
			if len(resp.Answers) != 1 {
				t.Errorf("answers = %v", resp.Answers)
			}
		}()
	}
	wg.Wait()
	if got := slow.queries.Load(); got != 1 {
		t.Errorf("upstream saw %d exchanges, want 1 (singleflight)", got)
	}
	if s := p.CacheStats(); s.Coalesced != 11 {
		t.Errorf("coalesced = %d, want 11", s.Coalesced)
	}
}

func TestProxyFailsOverAcrossUpstreams(t *testing.T) {
	n := netsim.New(3)
	prim := startUpstream(t, n, "primary.upstream")
	sec := startUpstream(t, n, "secondary.upstream")
	p, chain := startProxy(t, n, "proxy.dns", "primary.upstream", "secondary.upstream")
	clients := proxyClients(t, n, "proxy.dns", chain)
	c := clients["udp"]

	if _, err := c.Exchange(context.Background(), dnswire.NewQuery(0, "one.example.", dnswire.TypeA)); err != nil {
		t.Fatal(err)
	}
	if prim.queries.Load() != 1 || sec.queries.Load() != 0 {
		t.Fatalf("primary=%d secondary=%d", prim.queries.Load(), sec.queries.Load())
	}

	// Kill the primary; fresh names must be answered by the secondary.
	prim.run.Close()
	for i := 0; i < 3; i++ {
		resp, err := c.Exchange(context.Background(), dnswire.NewQuery(0, dnswire.Name(fmt.Sprintf("fo%d.example.", i)), dnswire.TypeA))
		if err != nil {
			t.Fatalf("failover query %d: %v", i, err)
		}
		if resp.RCode != dnswire.RCodeSuccess {
			t.Fatalf("failover query %d: rcode %v", i, resp.RCode)
		}
	}
	if sec.queries.Load() == 0 {
		t.Error("secondary never reached after primary died")
	}
	stats := p.UpstreamStats()
	if !stats[0].Down {
		t.Errorf("primary not marked down: %+v", stats)
	}
}

func TestProxyAnswersSERVFAILWhenAllUpstreamsDown(t *testing.T) {
	n := netsim.New(4)
	up := startUpstream(t, n, "only.upstream")
	_, chain := startProxy(t, n, "proxy.dns", "only.upstream")
	clients := proxyClients(t, n, "proxy.dns", chain)
	up.run.Close()

	for name, c := range clients {
		if name == "udp" {
			continue // UDP would retry into its timeout; streams fail fast
		}
		t.Run(name, func(t *testing.T) {
			resp, err := c.Exchange(context.Background(), dnswire.NewQuery(0, dnswire.Name("dead-"+name+".example."), dnswire.TypeA))
			if err != nil {
				t.Fatal(err)
			}
			if resp.RCode != dnswire.RCodeServerFailure {
				t.Errorf("rcode = %v, want SERVFAIL", resp.RCode)
			}
		})
	}
}

func TestProxyNegativeAnswersForwarded(t *testing.T) {
	n := netsim.New(5)
	// Upstream is a zone: names outside it get NXDOMAIN with authority.
	zone := dnsserver.NewZone("example.org.")
	zone.AddA("www.example.org.", 300, &dnswire.A{Addr: netip.MustParseAddr("192.0.2.80")})
	srv := &dnsserver.Server{Handler: zone}
	run, err := srv.Start(n, "zone.upstream")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(run.Close)

	p, chain := startProxy(t, n, "proxy.dns", "zone.upstream")
	clients := proxyClients(t, n, "proxy.dns", chain)
	c := clients["dot"]

	for i := 0; i < 3; i++ {
		resp, err := c.Exchange(context.Background(), dnswire.NewQuery(0, "missing.example.org.", dnswire.TypeA))
		if err != nil {
			t.Fatal(err)
		}
		if resp.RCode != dnswire.RCodeNameError {
			t.Fatalf("rcode = %v, want NXDOMAIN", resp.RCode)
		}
	}
	if s := p.CacheStats(); s.Hits != 2 {
		t.Errorf("negative answer not cached: %+v", s)
	}
}

// TestProxyHedgedPolicySteersAroundDegradedUpstream deploys the preferred
// upstream behind a 100ms (one-way) link and a clean runner-up, with the
// hedged policy and a 10ms hedge delay: queries must be answered far below
// the degraded upstream's RTT, the hedge counters must move, and the
// steering model must learn to rank the clean upstream first.
func TestProxyHedgedPolicySteersAroundDegradedUpstream(t *testing.T) {
	n := netsim.New(6)
	slow := startUpstream(t, n, "slow.upstream")
	fast := startUpstream(t, n, "fast.upstream")
	n.SetLink("proxy.dns", "slow.upstream", netsim.Link{Delay: 100 * time.Millisecond})

	p, err := New(Config{
		Upstreams: []dnstransport.PoolUpstream{
			tcpUpstream(n, "proxy.dns", "slow.upstream"),
			tcpUpstream(n, "proxy.dns", "fast.upstream"),
		},
		Policy:          steer.PolicyHedged,
		HedgeDelay:      10 * time.Millisecond,
		UpstreamTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	if err := p.Start(n, "proxy.dns"); err != nil {
		t.Fatal(err)
	}
	pc, err := n.ListenPacket("")
	if err != nil {
		t.Fatal(err)
	}
	c := dnstransport.NewUDPClient(pc, netsim.Addr("proxy.dns:53"))
	t.Cleanup(func() { c.Close() })

	for i := 0; i < 6; i++ {
		start := time.Now()
		resp, err := c.Exchange(context.Background(), dnswire.NewQuery(0, dnswire.Name(fmt.Sprintf("h%d.example.", i)), dnswire.TypeA))
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if resp.RCode != dnswire.RCodeSuccess {
			t.Fatalf("query %d: rcode %v", i, resp.RCode)
		}
		if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
			t.Errorf("query %d took %v, hedging should beat the 200ms degraded round trip", i, elapsed)
		}
	}
	if fast.queries.Load() == 0 {
		t.Error("clean upstream never answered: hedging did not steer")
	}
	snap := settled(p, func(s *telemetry.Snapshot) bool { return s.HedgesFired > 0 })
	if snap.HedgesFired == 0 {
		t.Errorf("hedges fired = 0 with a degraded primary; snapshot: %+v", snap)
	}
	rep := p.SteeringReport()
	if rep.Policy != "hedged" {
		t.Errorf("steering policy = %q, want hedged", rep.Policy)
	}
	if len(rep.Upstreams) != 2 || rep.Upstreams[0].Name != "fast.upstream" {
		t.Errorf("steering rank = %+v, want fast.upstream first", rep.Upstreams)
	}
	_ = slow

	// The new steering series reach /metrics alongside the hedge counters.
	srv := httptest.NewServer(p.Observability())
	t.Cleanup(srv.Close)
	res, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"dohcost_hedges_fired_total",
		"dohcost_upstream_srtt_seconds{upstream=\"fast.upstream\"}",
		"dohcost_upstream_success_rate{upstream=\"slow.upstream\"}",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestProxyFastestScoresThroughServeStaleCache is the configured form of
// the composition embedders used to build by hand (pool → steerer →
// serve-stale cache): against the study topology's two cloud resolvers
// over DoT, the fastest policy behind a serve-stale + prefetch cache still
// sees — and scores — the upstream traffic the cache lets through.
func TestProxyFastestScoresThroughServeStaleCache(t *testing.T) {
	topo, err := core.NewTopology(core.TopologyConfig{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	defer topo.Close()
	dot := func(host string) dnstransport.PoolUpstream {
		return dnstransport.PoolUpstream{Name: host, Dial: func(ctx context.Context) (dnstransport.Resolver, error) {
			c, err := topo.DoTResolver(core.ClientHost, host)
			if err != nil {
				return nil, err
			}
			c.Persistent = true
			return c, nil
		}}
	}
	p, err := New(Config{
		Upstreams:      []dnstransport.PoolUpstream{dot(core.CFHost), dot(core.GOHost)},
		Policy:         steer.PolicyFastest,
		ServeStale:     time.Minute,
		PrefetchWindow: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	for i := 0; i < 3; i++ {
		resp, err := p.Handler().ServeDNS(context.Background(), dnswire.NewQuery(0, "steered.example.com.", dnswire.TypeA))
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Answers) != 1 {
			t.Fatalf("answers = %v", resp.Answers)
		}
	}
	rep := p.SteeringReport()
	if rep.Policy != "fastest" || len(rep.Upstreams) != 2 {
		t.Fatalf("steering report = %+v", rep)
	}
	var samples uint64
	for _, u := range rep.Upstreams {
		samples += u.Samples
	}
	if samples == 0 {
		t.Error("steerer scored no traffic")
	}
	if cs := p.CacheStats(); cs.Misses != 1 || cs.Hits != 2 {
		t.Errorf("cache stats = %+v, want 1 miss + 2 hits", cs)
	}
}

// TestProxyServeStaleAnswersWithDeadUpstream clamps cached TTLs to 500ms,
// lets the only entry expire, kills the only upstream, and checks the
// proxy keeps answering from the stale entry (RFC 8767) instead of
// SERVFAILing.
func TestProxyServeStaleAnswersWithDeadUpstream(t *testing.T) {
	n := netsim.New(7)
	up := startUpstream(t, n, "mortal.upstream")
	p, err := New(Config{
		Upstreams:       []dnstransport.PoolUpstream{tcpUpstream(n, "proxy.dns", "mortal.upstream")},
		MaxTTL:          500 * time.Millisecond,
		ServeStale:      time.Minute,
		UpstreamTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	if err := p.Start(n, "proxy.dns"); err != nil {
		t.Fatal(err)
	}
	pc, err := n.ListenPacket("")
	if err != nil {
		t.Fatal(err)
	}
	c := dnstransport.NewUDPClient(pc, netsim.Addr("proxy.dns:53"))
	c.Timeout = 2 * time.Second
	t.Cleanup(func() { c.Close() })

	if _, err := c.Exchange(context.Background(), dnswire.NewQuery(0, "st.example.", dnswire.TypeA)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(700 * time.Millisecond) // past the clamped TTL
	up.run.Close()                     // upstream gone

	start := time.Now()
	resp, err := c.Exchange(context.Background(), dnswire.NewQuery(0, "st.example.", dnswire.TypeA))
	if err != nil {
		t.Fatalf("stale query: %v", err)
	}
	if resp.RCode != dnswire.RCodeSuccess || len(resp.Answers) != 1 {
		t.Fatalf("stale answer = %v, want the cached A record", resp)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("stale answer took %v, must not wait on the dead upstream", elapsed)
	}
	snap := settled(p, func(s *telemetry.Snapshot) bool { return s.Queries["udp"] == 2 })
	if got := snap.CacheEvents["stale_hit"]; got == 0 {
		t.Error("stale_hit never counted")
	}
	if s := p.CacheStats(); s.StaleHits == 0 || s.Refreshes == 0 {
		t.Errorf("cache stats = %+v, want stale hit + attempted refresh", s)
	}
	// The background refresh's failed attempt against the dead upstream is
	// visible in the aggregate accounting (it runs in a background
	// Transaction)…
	deadline := time.Now().Add(2 * time.Second)
	for snap.PoolFailures == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		snap = p.Telemetry().Snapshot()
	}
	if snap.PoolFailures == 0 {
		t.Error("background refresh failure invisible to telemetry")
	}
	// …but it is not a client query.
	if got := snap.Queries["udp"]; got != 2 {
		t.Errorf("udp queries = %d, want 2 (background refresh must not count)", got)
	}
}
