package proxy_test

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
	"testing"
	"time"

	"dohcost/internal/core"
	"dohcost/internal/dnsserver"
	"dohcost/internal/dnstransport"
	"dohcost/internal/dnswire"
	"dohcost/internal/loadgen"
	"dohcost/internal/netsim"
	"dohcost/internal/proxy"
	"dohcost/internal/steer"
	"dohcost/internal/telemetry"
	"dohcost/internal/tlsx"
)

// answer is the address every Deploy upstream resolves every name to.
var answer = netip.MustParseAddr("192.0.2.53")

// failFast marks an upstream down on its first failure and keeps it down
// for the rest of a test.
var failFast = dnstransport.PoolConfig{ConnsPerUpstream: 2, MaxFailures: 1, BackoffBase: time.Minute}

// deploy starts s's testbed for one test. Unless s says otherwise, its
// upstream links are near instant, as an in-process resolver's are, and
// its UDP clients wait the stub resolver's 2 s per attempt, so a slow run
// under the race detector resends no query that an exact count would see
// twice.
func deploy(t testing.TB, s loadgen.Scenario) *loadgen.Deployment {
	t.Helper()
	if s.UpstreamRTT == 0 {
		s.UpstreamRTT = time.Microsecond
	}
	if s.UDPAttemptTimeout == 0 {
		s.UDPAttemptTimeout = 2 * time.Second
	}
	d, err := loadgen.Deploy(s)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

// resolver opens client c's resolver over transport tr for one test.
func resolver(t testing.TB, d *loadgen.Deployment, tr string, c int) dnstransport.Resolver {
	t.Helper()
	r, err := d.Resolver(tr, c)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// startBespoke starts cfg at proxy.dns on n, with a TLS chain for DoT and
// DoH, for the topologies Deploy cannot express: an upstream it does not
// serve, or a fault that must be in place before Start.
func startBespoke(t *testing.T, n *netsim.Network, cfg proxy.Config) (*proxy.Proxy, *tlsx.Chain) {
	t.Helper()
	chain, err := tlsx.GenerateChain(tlsx.CloudflareLike("proxy.dns"))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Chain = chain
	p, err := proxy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	if err := p.Start(n, "proxy.dns"); err != nil {
		t.Fatal(err)
	}
	return p, chain
}

// serve starts h as a resolver at host on n.
func serve(t *testing.T, n *netsim.Network, host string, h dnsserver.Handler) {
	t.Helper()
	run, err := (&dnsserver.Server{Handler: h}).Start(n, host)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(run.Close)
}

// tcpUpstream builds a pool upstream forwarding from proxy.dns to host
// over TCP.
func tcpUpstream(n *netsim.Network, host string) dnstransport.PoolUpstream {
	return dnstransport.PoolUpstream{
		Name: host,
		Dial: func(ctx context.Context) (dnstransport.Resolver, error) {
			return dnstransport.NewTCPClient(func(ctx context.Context) (net.Conn, error) {
				return n.DialContext(ctx, "proxy.dns", host+":53")
			}), nil
		},
	}
}

func TestProxyServesAllTransportsFromCacheAndPool(t *testing.T) {
	d := deploy(t, loadgen.Scenario{Seed: 1})
	for _, tr := range loadgen.Transports {
		c := resolver(t, d, tr, 0)
		t.Run(tr, func(t *testing.T) {
			// Same qname over every transport: the first transport pays the
			// upstream round trip, the rest hit the shared cache.
			resp, err := c.Exchange(context.Background(), dnswire.NewQuery(0, "shared.example.", dnswire.TypeA))
			if err != nil {
				t.Fatal(err)
			}
			if resp.RCode != dnswire.RCodeSuccess || len(resp.Answers) != 1 {
				t.Fatalf("resp = %v", resp)
			}
			if a := resp.Answers[0].Data.(*dnswire.A); a.Addr != answer {
				t.Fatalf("answer = %v", a.Addr)
			}
		})
	}
	if got := d.Upstreams()[0].Queries(); got != 1 {
		t.Errorf("upstream saw %d queries, want 1 (cache shared across listeners)", got)
	}
	s := d.Proxy.CacheStats()
	if s.Misses != 1 || s.Hits != 3 {
		t.Errorf("cache stats = %+v, want 1 miss + 3 hits", s)
	}
}

func TestProxyCoalescesConcurrentMisses(t *testing.T) {
	// A slow upstream link widens the coalescing window.
	d := deploy(t, loadgen.Scenario{Seed: 2, UpstreamRTT: 60 * time.Millisecond})
	c := resolver(t, d, "tcp", 0)

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
	if got := d.Upstreams()[0].Queries(); got != 1 {
		t.Errorf("upstream saw %d exchanges, want 1 (singleflight)", got)
	}
	if s := d.Proxy.CacheStats(); s.Coalesced != 11 {
		t.Errorf("coalesced = %d, want 11", s.Coalesced)
	}
}

func TestProxyFailsOverAcrossUpstreams(t *testing.T) {
	d := deploy(t, loadgen.Scenario{Seed: 3, Upstreams: 2, Proxy: proxy.Config{Pool: failFast, UpstreamTimeout: 2 * time.Second}})
	prim, sec := d.Upstreams()[0], d.Upstreams()[1]
	c := resolver(t, d, "udp", 0)

	if _, err := c.Exchange(context.Background(), dnswire.NewQuery(0, "one.example.", dnswire.TypeA)); err != nil {
		t.Fatal(err)
	}
	if prim.Queries() != 1 || sec.Queries() != 0 {
		t.Fatalf("primary=%d secondary=%d", prim.Queries(), sec.Queries())
	}

	// Kill the primary; fresh names must be answered by the secondary.
	prim.Close()
	for i := 0; i < 3; i++ {
		resp, err := c.Exchange(context.Background(), dnswire.NewQuery(0, dnswire.Name(fmt.Sprintf("fo%d.example.", i)), dnswire.TypeA))
		if err != nil {
			t.Fatalf("failover query %d: %v", i, err)
		}
		if resp.RCode != dnswire.RCodeSuccess {
			t.Fatalf("failover query %d: rcode %v", i, resp.RCode)
		}
	}
	if sec.Queries() == 0 {
		t.Error("secondary never reached after primary died")
	}
	stats := d.Proxy.UpstreamStats()
	if !stats[0].Down {
		t.Errorf("primary not marked down: %+v", stats)
	}
}

func TestProxyAnswersSERVFAILWhenAllUpstreamsDown(t *testing.T) {
	d := deploy(t, loadgen.Scenario{Seed: 4, Proxy: proxy.Config{Pool: failFast, UpstreamTimeout: 2 * time.Second}})
	d.Upstreams()[0].Close()

	// UDP would retry into its timeout; streams fail fast.
	for _, name := range []string{"tcp", "dot", "doh"} {
		c := resolver(t, d, name, 0)
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
	// Deploy's upstreams answer every name; this one is a zone, so names
	// outside it get NXDOMAIN with authority.
	n := netsim.New(5)
	zone := dnsserver.NewZone("example.org.")
	zone.Add(dnswire.ResourceRecord{Name: "www.example.org.", Class: dnswire.ClassINET, TTL: 300, Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.80")}})
	serve(t, n, "zone.upstream", zone)

	p, chain := startBespoke(t, n, proxy.Config{Upstreams: []dnstransport.PoolUpstream{tcpUpstream(n, "zone.upstream")}})
	c := dnstransport.NewDoTClient(func(ctx context.Context) (net.Conn, error) {
		return n.DialContext(ctx, "client", "proxy.dns:853")
	}, chain.ClientConfig("proxy.dns"))
	t.Cleanup(func() { c.Close() })

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
// upstream behind a 200ms round trip and a clean runner-up, with the
// hedged policy and a 10ms hedge delay: queries must be answered far below
// the degraded upstream's RTT, the hedge counters must move, and the
// steering model must learn to rank the clean upstream first.
func TestProxyHedgedPolicySteersAroundDegradedUpstream(t *testing.T) {
	d := deploy(t, loadgen.Scenario{
		Seed:                6,
		Upstreams:           2,
		DegradedUpstreamRTT: 200 * time.Millisecond,
		Proxy:               proxy.Config{Policy: steer.PolicyHedged, HedgeDelay: 10 * time.Millisecond, UpstreamTimeout: 2 * time.Second},
	})
	p, slow, fast := d.Proxy, d.Upstreams()[0], d.Upstreams()[1]
	c := resolver(t, d, "udp", 0)

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
	if fast.Queries() == 0 {
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
	if len(rep.Upstreams) != 2 || rep.Upstreams[0].Name != fast.Host {
		t.Errorf("steering rank = %+v, want %s first", rep.Upstreams, fast.Host)
	}

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
		fmt.Sprintf("dohcost_upstream_srtt_seconds{upstream=%q}", fast.Host),
		fmt.Sprintf("dohcost_upstream_success_rate{upstream=%q}", slow.Host),
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
	p, err := proxy.New(proxy.Config{
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
	d := deploy(t, loadgen.Scenario{Seed: 7, Proxy: proxy.Config{
		MaxTTL:          500 * time.Millisecond,
		ServeStale:      time.Minute,
		UpstreamTimeout: time.Second,
	}})
	p := d.Proxy
	c := resolver(t, d, "udp", 0)

	if _, err := c.Exchange(context.Background(), dnswire.NewQuery(0, "st.example.", dnswire.TypeA)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(700 * time.Millisecond) // past the clamped TTL
	d.Upstreams()[0].Close()           // upstream gone

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
	snap = settled(p, func(s *telemetry.Snapshot) bool { return s.PoolFailures > 0 })
	if snap.PoolFailures == 0 {
		t.Error("background refresh failure invisible to telemetry")
	}
	// …but it is not a client query.
	if got := snap.Queries["udp"]; got != 2 {
		t.Errorf("udp queries = %d, want 2 (background refresh must not count)", got)
	}
}
