package loadgen

import (
	"reflect"
	"testing"
	"time"

	"dohcost/internal/proxy"
	"dohcost/internal/steer"
)

// TestScenarioSmokeIdeal drives a small closed-loop scenario over ideal
// links across all four transports and checks the harvest's internal
// consistency: full query counts, zero failures, advancing latency and
// byte counters, and a warm proxy cache.
func TestScenarioSmokeIdeal(t *testing.T) {
	res, err := Run(Scenario{
		Clients: 3,
		Queries: 30,
		Names:   5,
		Seed:    42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerTransport) != len(Transports) {
		t.Fatalf("got %d transport results, want %d", len(res.PerTransport), len(Transports))
	}
	for i, tr := range res.PerTransport {
		if tr.Transport != Transports[i] {
			t.Errorf("result %d is %q, want %q (run order)", i, tr.Transport, Transports[i])
		}
		if tr.Queries != 30 {
			t.Errorf("%s: %d queries completed, want 30", tr.Transport, tr.Queries)
		}
		if tr.Failures != 0 {
			t.Errorf("%s: %d failures on ideal links", tr.Transport, tr.Failures)
		}
		if tr.BytesSent == 0 || tr.BytesReceived == 0 {
			t.Errorf("%s: byte counters did not advance: %+v", tr.Transport, tr)
		}
		if tr.P99Ms < tr.P50Ms {
			t.Errorf("%s: p99 %.2fms < p50 %.2fms", tr.Transport, tr.P99Ms, tr.P50Ms)
		}
		if tr.QPS <= 0 {
			t.Errorf("%s: qps = %f", tr.Transport, tr.QPS)
		}
	}
	// 3 clients × 5 names × 4 transports = 60 distinct names; everything
	// else must hit the proxy cache.
	if res.Cost.Cache.Misses != 60 {
		t.Errorf("cache misses = %d, want 60 (names are disjoint per client and transport)", res.Cost.Cache.Misses)
	}
	if res.Cost.Cache.Hits != 4*30-60 {
		t.Errorf("cache hits = %d, want %d", res.Cost.Cache.Hits, 4*30-60)
	}
	if res.Cost.Telemetry == nil || res.Cost.Telemetry.Queries["udp"] == 0 || res.Cost.Telemetry.Queries["doh"] == 0 {
		t.Errorf("server snapshot missing per-proto queries: %+v", res.Cost.Telemetry)
	}
}

// counters projects the seed-reproducible slice of a result: everything
// except wall-clock-derived numbers (latency quantiles, elapsed, qps).
func counters(res *Result) any {
	type row struct {
		Transport                string
		Queries, Failures        uint64
		Retransmits, TCFallbacks uint64
		BytesSent, BytesReceived uint64
	}
	rows := make([]row, 0, len(res.PerTransport))
	for _, tr := range res.PerTransport {
		rows = append(rows, row{tr.Transport, tr.Queries, tr.Failures,
			tr.UDPRetransmits, tr.TCFallbacks, tr.BytesSent, tr.BytesReceived})
	}
	return []any{rows, res.Cost.Cache.Stats, res.Cost.Telemetry.CacheEvents, res.Cost.Telemetry.PoolExchanges,
		res.Cost.Telemetry.UpstreamBytesSent, res.Cost.Telemetry.UpstreamBytesReceived}
}

// TestScenarioDeterministicCounters is the loadgen reproducibility
// contract: a closed-loop run under an impaired profile reproduces its
// aggregate counters exactly when re-run with the same seed.
func TestScenarioDeterministicCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second impaired scenario under -short")
	}
	s := Scenario{
		Profile:    "lossy-wifi",
		Transports: []string{"udp", "doh"},
		Clients:    4,
		Queries:    100,
		Names:      4,
		Seed:       7,
		// Generous vs the ~50ms worst-case path RTT: a retransmission must
		// only ever mean a genuinely dropped datagram, not a scheduler or
		// GC stall on a loaded CI runner — a spurious timeout in one run
		// would consume extra link-RNG draws and break the equality below.
		UDPAttemptTimeout: 600 * time.Millisecond,
	}
	res1, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(counters(res1), counters(res2)) {
		t.Errorf("aggregate counters differ across same-seed runs:\n  run1 %+v\n  run2 %+v",
			counters(res1), counters(res2))
	}
	// At 8% per-datagram loss the UDP leg must show visible recovery work.
	udp := res1.PerTransport[0]
	if udp.UDPRetransmits == 0 {
		t.Errorf("udp on lossy-wifi recorded no retransmissions: %+v", udp)
	}
	doh := res1.PerTransport[1]
	if doh.Failures != 0 {
		t.Errorf("doh (reliable stream) recorded %d failures under loss", doh.Failures)
	}
}

// TestScenarioOpenLoop covers the Poisson arrival model end to end.
func TestScenarioOpenLoop(t *testing.T) {
	res, err := Run(Scenario{
		Transports: []string{"udp"},
		Clients:    2,
		Queries:    20,
		Names:      4,
		Seed:       3,
		Arrival:    "open",
		Rate:       200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.PerTransport[0].Queries; got != 20 {
		t.Errorf("open-loop completed %d queries, want 20", got)
	}
	if res.PerTransport[0].Failures != 0 {
		t.Errorf("open-loop failures = %d", res.PerTransport[0].Failures)
	}
}

// TestScenarioValidation covers config rejection paths.
func TestScenarioValidation(t *testing.T) {
	cases := []Scenario{
		{Profile: "5g"},
		{Transports: []string{"doq"}},
		{Arrival: "batch"},
	}
	for _, s := range cases {
		if _, err := Run(s); err == nil {
			t.Errorf("Run(%+v) accepted invalid config", s)
		}
	}
}

// TestHedgedBeatsFailoverWithDegradedUpstream is the steering acceptance
// scenario: two upstreams behind the proxy, the preferred one degraded to
// a 600ms round trip, clients on an impaired access link. Static failover
// keeps paying the degraded RTT on every miss — the upstream still
// answers, so the pool never fails over — while the hedged policy races
// the clean runner-up after 40ms and must cut the client-observed p99.
// Every query is a cache miss by construction (each client's name cycle is
// as long as its query count), so the upstream leg is on every path.
func TestHedgedBeatsFailoverWithDegradedUpstream(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second impairment scenario")
	}
	for _, profile := range []string{"lossy-wifi", "satellite"} {
		t.Run(profile, func(t *testing.T) {
			base := Scenario{
				Profile:             profile,
				Transports:          []string{"doh"},
				Clients:             3,
				Queries:             18,
				Names:               6, // = queries per client → all misses
				Seed:                7,
				Upstreams:           2,
				UpstreamRTT:         4 * time.Millisecond,
				DegradedUpstreamRTT: 600 * time.Millisecond,
				Proxy:               proxy.Config{HedgeDelay: 40 * time.Millisecond},
				Timeout:             30 * time.Second,
			}
			run := func(policy steer.Policy) *Result {
				t.Helper()
				s := base
				s.Proxy.Policy = policy
				res, err := Run(s)
				if err != nil {
					t.Fatalf("%v run: %v", policy, err)
				}
				if len(res.PerTransport) != 1 || res.PerTransport[0].Queries == 0 {
					t.Fatalf("%v run harvested nothing: %+v", policy, res.PerTransport)
				}
				return res
			}
			failover := run(steer.PolicyFailover)
			hedged := run(steer.PolicyHedged)

			fp99 := failover.PerTransport[0].P99Ms
			hp99 := hedged.PerTransport[0].P99Ms
			// Failover pays the degraded 600ms upstream leg on every miss,
			// so its p99 must carry it; hedging must beat it outright.
			if fp99 < 500 {
				t.Fatalf("failover p99 = %.1fms, expected ≥500ms through the degraded upstream", fp99)
			}
			if hp99 >= fp99 {
				t.Errorf("hedged p99 = %.1fms did not beat failover p99 = %.1fms", hp99, fp99)
			}
			if hedged.Cost.Telemetry.HedgesFired == 0 {
				t.Error("hedged run fired no hedges")
			}
			if failover.Cost.Telemetry.HedgesFired != 0 {
				t.Errorf("failover run fired %d hedges, want 0", failover.Cost.Telemetry.HedgesFired)
			}
			if hedged.Cost.Steering.Policy != "hedged" || failover.Cost.Steering.Policy != "failover" {
				t.Errorf("policies reported as %q/%q", hedged.Cost.Steering.Policy, failover.Cost.Steering.Policy)
			}
			t.Logf("%s: failover p99 %.1fms vs hedged p99 %.1fms (%d hedges fired, %d won)",
				profile, fp99, hp99, hedged.Cost.Telemetry.HedgesFired, hedged.Cost.Telemetry.HedgesWon)
		})
	}
}
