package loadgen

import (
	"strings"
	"testing"

	"dohcost/internal/proxy"
	"dohcost/internal/qtrace"
)

// TestScenarioTraceHarvest runs an impaired lossy-wifi scenario with
// tracing armed and checks the acceptance contract: the result carries
// sampler stats and a slowest-traces digest whose entries have phase
// spans — slow and errored queries under loss must be captured.
func TestScenarioTraceHarvest(t *testing.T) {
	res, err := Run(Scenario{
		Profile:    "lossy-wifi",
		Transports: []string{"udp", "doh"},
		Clients:    4,
		Queries:    60,
		Names:      6,
		Seed:       11,
		Proxy:      proxy.Config{Tracing: &qtrace.Config{SampleEvery: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.Trace == nil {
		t.Fatal("Scenario.Proxy.Tracing did not harvest sampler stats")
	}
	if res.Cost.Trace.Offered < 2*60 {
		t.Errorf("tracer saw %d offers, want >= %d (one per served query)", res.Cost.Trace.Offered, 2*60)
	}
	if kept := res.Cost.Trace.KeptErrored + res.Cost.Trace.KeptSlow + res.Cost.Trace.KeptBaseline; kept == 0 {
		t.Error("lossy-wifi run sampled no traces")
	}
	if len(res.Cost.Trace.SlowThresholdMs) == 0 {
		t.Error("no adaptive slow thresholds in harvested stats")
	}
	if len(res.SlowTraces) == 0 {
		t.Fatal("no slowest-traces digest harvested")
	}
	for i, v := range res.SlowTraces {
		if len(v.Spans) == 0 {
			t.Errorf("slow trace %d (%s %.1fms) has no phase spans", i, v.QName, v.DurationMs)
		}
		if i > 0 && v.DurationMs > res.SlowTraces[i-1].DurationMs {
			t.Errorf("digest not sorted slowest-first at %d", i)
		}
	}

	// The rendered table surfaces the digest.
	out := Render(res)
	if !strings.Contains(out, "trace:") || !strings.Contains(out, "slowest:") {
		t.Errorf("Render missing trace digest lines:\n%s", out)
	}
}

// TestScenarioTraceOverhead pins the tentpole's overhead budget: on clean
// broadband links a traced run must complete within 5% of the wall-clock
// throughput of an identical untraced run. Simulated link latency
// dominates either way, so a pass is expected — the test exists to catch
// a regression that puts blocking work (locks, I/O) on the hot path.
func TestScenarioTraceOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("overhead comparison is a timing test; skipped in -short")
	}
	base := Scenario{
		Profile:    "broadband",
		Transports: []string{"udp"},
		Clients:    8,
		Queries:    400,
		Names:      8,
		Seed:       7,
	}
	run := func(s Scenario) float64 {
		res, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		return res.PerTransport[0].QPS
	}
	plain := run(base)
	traced := base
	traced.Proxy.Tracing = &qtrace.Config{}
	tracedQPS := run(traced)
	if tracedQPS < 0.95*plain {
		t.Errorf("traced run %.1f qps vs untraced %.1f qps: overhead above 5%%", tracedQPS, plain)
	}
}
