package proxy_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dohcost/internal/dnstransport"
	"dohcost/internal/dnswire"
	"dohcost/internal/loadgen"
	"dohcost/internal/proxy"
	"dohcost/internal/qtrace"
)

// obsGet fetches one path from the proxy's observability mux.
func obsGet(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestObservabilityTraceEndpoint(t *testing.T) {
	d := deploy(t, loadgen.Scenario{Seed: 7, Proxy: proxy.Config{Tracing: &qtrace.Config{SampleEvery: 1}, Profiling: true}})
	p := d.Proxy
	clients := map[string]dnstransport.Resolver{"udp": resolver(t, d, "udp", 0), "dot": resolver(t, d, "dot", 0)}

	// One miss then repeated hits, over UDP and DoT so several proto
	// labels land in the rings.
	for i := 0; i < 4; i++ {
		for _, proto := range []string{"udp", "dot"} {
			if _, err := clients[proto].Exchange(context.Background(), dnswire.NewQuery(0, "traced.example.", dnswire.TypeA)); err != nil {
				t.Fatal(err)
			}
		}
	}

	srv := httptest.NewServer(p.Observability())
	defer srv.Close()

	// UDP finishes a slow step's transaction just after its reply leaves.
	deadline := time.Now().Add(2 * time.Second)
	for p.Tracer().Stats().Offered < 8 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	code, body := obsGet(t, srv, "/debug/trace")
	if code != http.StatusOK {
		t.Fatalf("/debug/trace = %d: %s", code, body)
	}
	var report proxy.TraceReport
	if err := json.Unmarshal([]byte(body), &report); err != nil {
		t.Fatalf("bad /debug/trace JSON: %v", err)
	}
	if report.Stats.Offered < 8 {
		t.Errorf("stats.offered = %d, want >= 8", report.Stats.Offered)
	}
	if len(report.Traces) < 8 {
		t.Fatalf("got %d traces, want >= 8 with SampleEvery=1", len(report.Traces))
	}
	for _, v := range report.Traces {
		if v.QName != "traced.example." {
			t.Errorf("trace qname = %q", v.QName)
		}
		if len(v.Spans) == 0 {
			t.Errorf("trace %s/%s has no spans", v.Proto, v.Verdict)
		}
	}

	// The upstream filter keeps only the miss that went to the pool.
	code, body = obsGet(t, srv, "/debug/trace?upstream="+loadgen.UpstreamHost)
	if code != http.StatusOK {
		t.Fatalf("filtered /debug/trace = %d", code)
	}
	var filtered proxy.TraceReport
	if err := json.Unmarshal([]byte(body), &filtered); err != nil {
		t.Fatal(err)
	}
	if len(filtered.Traces) == 0 {
		t.Error("upstream filter matched no traces; the miss should carry the upstream label")
	}
	for _, v := range filtered.Traces {
		if v.Upstream != loadgen.UpstreamHost {
			t.Errorf("filtered trace upstream = %q", v.Upstream)
		}
	}

	// min_ms high enough to exclude everything.
	code, body = obsGet(t, srv, "/debug/trace?min_ms=60000")
	if code != http.StatusOK {
		t.Fatalf("min_ms /debug/trace = %d", code)
	}
	var none proxy.TraceReport
	if err := json.Unmarshal([]byte(body), &none); err != nil {
		t.Fatal(err)
	}
	if len(none.Traces) != 0 {
		t.Errorf("min_ms=60000 still returned %d traces", len(none.Traces))
	}

	// Bad parameters are a client error, not a panic.
	if code, _ = obsGet(t, srv, "/debug/trace?min_ms=bogus"); code != http.StatusBadRequest {
		t.Errorf("min_ms=bogus = %d, want 400", code)
	}

	// Metrics expose the trace sampler and runtime gauges.
	code, body = obsGet(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, series := range []string{
		"dohcost_trace_offered_total",
		"dohcost_trace_kept_total",
		"dohcost_trace_slow_threshold_seconds",
		"dohcost_go_goroutines",
		"dohcost_go_heap_bytes",
		"dohcost_go_gc_pause_seconds",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics missing %s", series)
		}
	}

	// pprof rides along when profiling is on.
	if code, _ = obsGet(t, srv, "/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ = %d, want 200", code)
	}
}

func TestObservabilityTraceDisabled(t *testing.T) {
	p := deploy(t, loadgen.Scenario{Seed: 8}).Proxy

	srv := httptest.NewServer(p.Observability())
	defer srv.Close()

	if code, _ := obsGet(t, srv, "/debug/trace"); code != http.StatusNotFound {
		t.Errorf("/debug/trace without tracing = %d, want 404", code)
	}
	// Runtime gauges are profiling-gated; the default proxy omits them.
	code, body := obsGet(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	if strings.Contains(body, "dohcost_go_goroutines") {
		t.Error("/metrics exposes runtime gauges without Profiling")
	}
}
