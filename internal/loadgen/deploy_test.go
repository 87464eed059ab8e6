package loadgen

import (
	"runtime"
	"testing"
	"time"

	"dohcost/internal/guard"
	"dohcost/internal/proxy"
	"dohcost/internal/qtrace"
	"dohcost/internal/steer"
)

// TestRunReconcilesUpstreamCounts holds three ledgers kept by three
// packages to one another: the queries the upstreams' handlers answered,
// the exchanges the proxy's pool made, and the misses its cache counted.
// The proxy↔upstream links are clean in every scenario, so each miss is
// exactly one exchange and one answered query; loss on the access link
// only resends queries the cache then hits or coalesces.
func TestRunReconcilesUpstreamCounts(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    Scenario
	}{
		{"plain", Scenario{Clients: 4, Queries: 32, Names: 8, Seed: 1}},
		{"zipf", Scenario{Clients: 4, Queries: 64, ZipfNames: 500, Seed: 2}},
		{"fastest-two-upstreams", Scenario{Clients: 4, Queries: 32, Names: 8, Seed: 3, Upstreams: 2,
			Proxy: proxy.Config{Policy: steer.PolicyFastest}}},
		{"lossy-wifi", Scenario{Profile: "lossy-wifi", Transports: []string{"udp"}, Clients: 4, Queries: 32, Names: 8, Seed: 4,
			UDPAttemptTimeout: 200 * time.Millisecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			d, err := Deploy(tc.s)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			res, err := d.Run()
			if err != nil {
				t.Fatal(err)
			}
			var served, exchanged int64
			for _, u := range d.Upstreams() {
				served += u.Queries()
			}
			for _, u := range res.Cost.Upstreams {
				exchanged += u.Exchanges
			}
			if served == 0 || served != exchanged || exchanged != res.Cost.Cache.Misses {
				t.Errorf("upstreams answered %d queries, the pool made %d exchanges, the cache counted %d misses; want three equal, nonzero counts",
					served, exchanged, res.Cost.Cache.Misses)
			}
		})
	}
}

// TestDeployLeavesNoGoroutines: once a deployment has run and closed,
// every goroutine it started — listeners, pool connections, flooders,
// open-loop arrivals, racing dials, probes — has exited.
func TestDeployLeavesNoGoroutines(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    Scenario
	}{
		{"plain", Scenario{Clients: 2, Queries: 16, Names: 4, Seed: 1}},
		{"armed", Scenario{
			Clients: 2, Queries: 16, Names: 4, Seed: 2,
			Upstreams: 2, Attackers: 1, AttackQPS: 100,
			Arrival: "open", Rate: 200,
			HappyEyeballs: true, BootstrapProbe: true,
			Proxy: proxy.Config{Policy: steer.PolicyHedged, Guard: &guard.Config{}, Tracing: &qtrace.Config{}},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			d, err := Deploy(tc.s)
			if err != nil {
				t.Fatal(err)
			}
			_, err = d.Run()
			d.Close()
			if err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
				if time.Now().After(deadline) {
					stacks := make([]byte, 1<<20)
					t.Fatalf("%d goroutines after Close, %d before Deploy:\n%s",
						runtime.NumGoroutine(), before, stacks[:runtime.Stack(stacks, true)])
				}
			}
		})
	}
}
