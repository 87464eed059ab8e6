package proxy_test

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"dohcost/internal/dialer"
	"dohcost/internal/dnsserver"
	"dohcost/internal/dnstransport"
	"dohcost/internal/dnswire"
	"dohcost/internal/loadgen"
	"dohcost/internal/netsim"
	"dohcost/internal/proxy"
	"dohcost/internal/steer"
)

// probeTarget builds a bootstrap probe that performs one real TCP
// exchange against host from proxy.dns.
func probeTarget(n *netsim.Network, host string) dialer.Target {
	return dialer.Target{
		Upstream: host,
		Proto:    "tcp",
		Probe: func(ctx context.Context) (time.Duration, error) {
			r := dnstransport.NewTCPClient(func(ctx context.Context) (net.Conn, error) {
				return n.DialContext(ctx, "proxy.dns", host+":53")
			})
			defer r.Close()
			t0 := time.Now()
			if _, err := r.Exchange(ctx, dnswire.NewQuery(0, "probe.example.", dnswire.TypeA)); err != nil {
				return 0, err
			}
			return time.Since(t0), nil
		},
	}
}

// TestBootstrapSeedsSteering is the end-to-end bootstrap path: one
// upstream black-holes dials, the pre-listen probe sweep discovers it,
// and the seeded steering scoreboard routes the first real queries to
// the healthy upstream — the dead one's server never sees a query and
// no client ever pays its dial timeout.
func TestBootstrapSeedsSteering(t *testing.T) {
	// Deploy cannot express this topology: the blackhole must be in place
	// before Start runs the sweep, on one upstream of two.
	n := netsim.New(31)
	counted := func(host string) *atomic.Int64 {
		var queries atomic.Int64
		static := dnsserver.Static(answer, 300)
		serve(t, n, host, dnsserver.HandlerFunc(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
			queries.Add(1)
			return static.ServeDNS(ctx, q)
		}))
		return &queries
	}
	alive, dead := counted("alive.up"), counted("dead.up")
	n.SetDialFault("dead.up", netsim.DialFault{Blackhole: true})

	prober := &dialer.Prober{
		Timeout: 150 * time.Millisecond,
		Targets: []dialer.Target{
			// The dead upstream is listed FIRST: without seeding, the
			// fastest policy's cold-start cost of zero would send the
			// very first query into the blackhole.
			probeTarget(n, "dead.up"),
			probeTarget(n, "alive.up"),
		},
	}
	p, _ := startBespoke(t, n, proxy.Config{
		Upstreams: []dnstransport.PoolUpstream{tcpUpstream(n, "dead.up"), tcpUpstream(n, "alive.up")},
		Policy:    steer.PolicyFastest,
		Bootstrap: prober,
	})

	// Start ran the sweep synchronously: verdicts are cached already.
	report := p.Bootstrap().Report()
	if report.Sweeps != 1 || len(report.Verdicts) != 2 {
		t.Fatalf("bootstrap report %+v, want one completed sweep of two targets", report)
	}
	for _, v := range report.Verdicts {
		if want := v.Upstream == "alive.up"; v.OK != want {
			t.Fatalf("verdict %+v", v)
		}
	}

	// The scoreboard is seeded: dead.up carries one synthetic failure
	// sample at the probe timeout, so it ranks behind alive.up.
	sr := p.SteeringReport()
	if len(sr.Upstreams) != 2 || sr.Upstreams[0].Name != "alive.up" {
		t.Fatalf("steering rank %+v, want alive.up first", sr.Upstreams)
	}
	if s := sr.Upstreams[1]; s.Name != "dead.up" || s.Samples != 1 || s.SuccessRate != 0 {
		t.Fatalf("dead.up seed %+v, want one failure sample", s)
	}

	// First real queries (fewer than the exploration cadence) go
	// straight to the healthy upstream, fast.
	h := p.Handler()
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		start := time.Now()
		resp, err := h.ServeDNS(ctx, dnswire.NewQuery(uint16(i), "seeded.example.", dnswire.TypeA))
		cancel()
		if err != nil || resp.RCode != dnswire.RCodeSuccess {
			t.Fatalf("query %d: resp=%v err=%v", i, resp, err)
		}
		if e := time.Since(start); e > 500*time.Millisecond {
			t.Fatalf("query %d took %v; it explored the blackhole", i, e)
		}
	}
	if got := dead.Load(); got != 0 {
		t.Fatalf("dead upstream served %d queries, want 0", got)
	}
	if alive.Load() == 0 {
		t.Fatal("alive upstream served nothing")
	}
}

// TestStormKicksBootstrap feeds the proxy's observer chain an error
// storm and requires a rate-limited prober re-sweep.
func TestStormKicksBootstrap(t *testing.T) {
	storm := &dialer.Storm{Threshold: 3, Cooldown: time.Hour}
	d := deploy(t, loadgen.Scenario{Seed: 32, BootstrapProbe: true, Proxy: proxy.Config{Storm: storm}})
	p, prober := d.Proxy, d.Proxy.Bootstrap()
	// Let the storm's kick through immediately. Only a storm kicks, and no
	// query has run yet.
	prober.KickInterval = time.Nanosecond
	if prober.Report().Sweeps != 1 {
		t.Fatal("start did not sweep")
	}

	// Sever the upstream and hammer it: consecutive failures cross the
	// storm threshold, which kicks an async re-sweep.
	d.Net().SetDialFault(loadgen.UpstreamHost, netsim.DialFault{ResetProb: 1})
	h := p.Handler()
	for i := 0; i < 6; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		h.ServeDNS(ctx, dnswire.NewQuery(uint16(i), "storm.example.", dnswire.TypeA))
		cancel()
	}
	deadline := time.Now().Add(2 * time.Second)
	for storm.Fired() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if storm.Fired() == 0 {
		t.Fatal("error storm never fired")
	}
	for prober.Report().Sweeps < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := prober.Report().Sweeps; got < 2 {
		t.Fatalf("sweeps=%d, want a storm-triggered re-sweep", got)
	}
	if p.CostReport().StormsFired == 0 {
		t.Fatal("cost report does not surface the storm")
	}
}
