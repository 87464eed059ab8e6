package proxy

import (
	"context"
	"net"
	"testing"
	"time"

	"dohcost/internal/dialer"
	"dohcost/internal/dnstransport"
	"dohcost/internal/dnswire"
	"dohcost/internal/netsim"
	"dohcost/internal/steer"
)

// probeTarget builds a bootstrap probe that performs one real TCP
// exchange against host from proxyHost.
func probeTarget(n *netsim.Network, proxyHost, host string) dialer.Target {
	return dialer.Target{
		Upstream: host,
		Proto:    "tcp",
		Probe: func(ctx context.Context) (time.Duration, error) {
			r := dnstransport.NewTCPClient(func(ctx context.Context) (net.Conn, error) {
				return n.DialContext(ctx, proxyHost, host+":53")
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
	n := netsim.New(31)
	alive := startUpstream(t, n, "alive.up")
	dead := startUpstream(t, n, "dead.up")
	n.SetDialFault("dead.up", netsim.DialFault{Blackhole: true})

	prober := &dialer.Prober{
		Timeout: 150 * time.Millisecond,
		Targets: []dialer.Target{
			// The dead upstream is listed FIRST: without seeding, the
			// fastest policy's cold-start cost of zero would send the
			// very first query into the blackhole.
			probeTarget(n, "proxy.dns", "dead.up"),
			probeTarget(n, "proxy.dns", "alive.up"),
		},
	}
	p, err := New(Config{
		Upstreams: []dnstransport.PoolUpstream{
			tcpUpstream(n, "proxy.dns", "dead.up"),
			tcpUpstream(n, "proxy.dns", "alive.up"),
		},
		Policy:    steer.PolicyFastest,
		Bootstrap: prober,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Start(n, "proxy.dns"); err != nil {
		t.Fatal(err)
	}

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
	if got := dead.queries.Load(); got != 0 {
		t.Fatalf("dead upstream served %d queries, want 0", got)
	}
	if alive.queries.Load() == 0 {
		t.Fatal("alive upstream served nothing")
	}
}

// TestStormKicksBootstrap feeds the proxy's observer chain an error
// storm and requires a rate-limited prober re-sweep.
func TestStormKicksBootstrap(t *testing.T) {
	n := netsim.New(32)
	startUpstream(t, n, "alive.up")

	prober := &dialer.Prober{
		Timeout:      100 * time.Millisecond,
		KickInterval: time.Nanosecond, // let the storm's kick through immediately
		Targets:      []dialer.Target{probeTarget(n, "proxy.dns", "alive.up")},
	}
	storm := &dialer.Storm{Threshold: 3, Cooldown: time.Hour}
	p, err := New(Config{
		Upstreams: []dnstransport.PoolUpstream{tcpUpstream(n, "proxy.dns", "alive.up")},
		Bootstrap: prober,
		Storm:     storm,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Start(n, "proxy.dns"); err != nil {
		t.Fatal(err)
	}
	if prober.Report().Sweeps != 1 {
		t.Fatal("start did not sweep")
	}

	// Sever the upstream and hammer it: consecutive failures cross the
	// storm threshold, which kicks an async re-sweep.
	n.SetDialFault("alive.up", netsim.DialFault{ResetProb: 1})
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
