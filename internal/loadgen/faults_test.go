package loadgen

import (
	"testing"
	"time"
)

// TestBrokenV6ConvergesToV4 runs the broken-v6 regime: every upstream's
// IPv6 home black-holes SYNs while IPv4 works. The bootstrap probe's
// dial race must discover this before the listeners come up — one probe
// cycle — so the clients' first queries ride the remembered IPv4 winner
// and the whole run completes without a failure, with first-query
// latency bounded by roughly one stagger interval rather than a dial
// timeout.
func TestBrokenV6ConvergesToV4(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scenario; skipped in -short")
	}
	stagger := 50 * time.Millisecond
	res, err := Run(Scenario{
		Transports:     []string{"udp"},
		Clients:        2,
		Queries:        40,
		Seed:           11,
		HappyEyeballs:  true,
		HEStagger:      stagger,
		DialFault:      "broken-v6",
		BootstrapProbe: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.PerTransport[0]
	if tr.Failures != 0 {
		t.Fatalf("%d client-visible failures under broken-v6, want 0", tr.Failures)
	}
	if res.Cost.Dialer == nil || len(res.Cost.Dialer.Hosts) == 0 {
		t.Fatal("no dialer report")
	}
	for _, h := range res.Cost.Dialer.Hosts {
		if h.Winner != "v4" {
			t.Fatalf("upstream %s winner %q, want v4 (report %+v)", h.Host, h.Winner, res.Cost.Dialer)
		}
	}
	if res.Cost.Bootstrap == nil || res.Cost.Bootstrap.Sweeps != 1 {
		t.Fatalf("bootstrap report %+v, want exactly one pre-listen sweep", res.Cost.Bootstrap)
	}
	for _, v := range res.Cost.Bootstrap.Verdicts {
		if !v.OK {
			t.Fatalf("bootstrap verdict %+v, want reachable via the v4 fallback", v)
		}
	}
	// The v6 lead of each race is a blackhole: with the winner converged
	// before serving started, no client query waits anywhere near the
	// 5 s dial timeout. p99 over the whole run stays within a few
	// stagger intervals (cache hits make most queries far faster).
	if bound := 5 * float64(stagger/time.Millisecond); tr.P99Ms > bound {
		t.Fatalf("p99 %.1fms under broken-v6, want < %.0fms (≈stagger-bounded)", tr.P99Ms, bound)
	}
	// The race memory means v6 is attempted once per upstream (the probe
	// race), not once per dial: v4 wins outnumber v6 attempts' wins.
	if res.Cost.Telemetry.DialWins["v6"] != 0 {
		t.Fatalf("v6 recorded %d race wins under blackhole", res.Cost.Telemetry.DialWins["v6"])
	}
	if res.Cost.Telemetry.DialWins["v4"] == 0 {
		t.Fatal("no v4 race wins recorded")
	}
}

// TestLinkFlapRecoversWithoutServfails schedules a mid-run outage of
// upstream 0 (both homes sever established connections and refuse new
// dials for the flap window) and requires the pool/steering stack to
// ride it out on upstream 1 with zero client-visible failures.
func TestLinkFlapRecoversWithoutServfails(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scenario; skipped in -short")
	}
	res, err := Run(Scenario{
		Transports: []string{"udp"},
		Clients:    3,
		Queries:    150,
		Names:      64, // more names than queries per client: all misses, so upstream traffic spans the flap
		Think:      4 * time.Millisecond,
		Seed:       23,
		Upstreams:  2,
		FlapAfter:  50 * time.Millisecond,
		FlapFor:    100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.PerTransport[0]
	if tr.Failures != 0 {
		t.Fatalf("%d client-visible failures across the link flap, want 0", tr.Failures)
	}
	// The flap must actually have bitten: the pool saw upstream attempts
	// fail and failed over.
	if res.Cost.Telemetry.PoolFailures == 0 {
		t.Fatal("flap produced no pool failures; the outage never landed")
	}
	// Both upstreams carried traffic: upstream 0 before (and possibly
	// after) the flap, upstream 1 during it.
	var ups [2]uint64
	for i, u := range res.Cost.Steering.Upstreams {
		_ = i
		switch u.Name {
		case upstreamHost(0):
			ups[0] = u.Samples
		case upstreamHost(1):
			ups[1] = u.Samples
		}
	}
	if ups[0] == 0 || ups[1] == 0 {
		t.Fatalf("traffic did not span both upstreams across the flap: samples %v", ups)
	}
}

// TestFaultInjectionSmoke is the CI gate: one short scenario per dial
// fault profile, each required to finish with zero honest-client
// failures. Single-client closed-loop runs keep every per-host fault
// RNG's draw sequence deterministic, so these assertions are exact, not
// probabilistic.
func TestFaultInjectionSmoke(t *testing.T) {
	cases := []struct {
		name string
		s    Scenario
	}{
		{"broken-v6", Scenario{
			Transports:     []string{"udp"},
			Clients:        1,
			Queries:        30,
			Seed:           7,
			HappyEyeballs:  true,
			HEStagger:      40 * time.Millisecond,
			DialFault:      "broken-v6",
			BootstrapProbe: true,
		}},
		{"flaky-dial", Scenario{
			Transports:     []string{"udp"},
			Clients:        1,
			Queries:        30,
			Seed:           7,
			Upstreams:      2,
			HappyEyeballs:  true,
			HEStagger:      40 * time.Millisecond,
			DialFault:      "flaky-dial",
			BootstrapProbe: true,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(tc.s)
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range res.PerTransport {
				if tr.Failures != 0 {
					t.Fatalf("%s: %d honest-client failures under %s, want 0",
						tr.Transport, tr.Failures, tc.name)
				}
				if tr.Queries == 0 {
					t.Fatalf("%s: no queries completed", tr.Transport)
				}
			}
		})
	}
}
