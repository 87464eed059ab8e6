package proxy_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dohcost/internal/dialer"
	"dohcost/internal/dnstransport"
	"dohcost/internal/dnswire"
	"dohcost/internal/guard"
	"dohcost/internal/loadgen"
	"dohcost/internal/netsim"
	"dohcost/internal/proxy"
	"dohcost/internal/qtrace"
	"dohcost/internal/telemetry"
)

// TestProxyTelemetryEndToEnd drives queries through the full pipeline over
// UDP and DoH and asserts the telemetry subsystem observed what actually
// happened at every layer: listener accept, cache outcome, pool checkout,
// upstream exchange bytes, and final verdict — then scrapes /metrics and
// /debug/cost and checks both expositions carry the same story.
func TestProxyTelemetryEndToEnd(t *testing.T) {
	d := deploy(t, loadgen.Scenario{Seed: 1})
	p, up := d.Proxy, d.Upstreams()[0]

	var summaries []qtrace.Record
	var mu sync.Mutex
	p.Telemetry().SetListener(telemetry.ListenerFunc(func(s *qtrace.Record) {
		mu.Lock()
		summaries = append(summaries, *s) // the record is valid only for the call
		mu.Unlock()
	}))

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	udp, doh := resolver(t, d, "udp", 0), resolver(t, d, "doh", 0)

	// Query 1 (UDP): cold cache → miss, pool dial, upstream exchange.
	// Query 2 (UDP): same name → hit. Query 3 (DoH): same name → hit.
	q := dnswire.NewQuery(0, "telemetry.example.", dnswire.TypeA)
	for i, r := range []dnstransport.Resolver{udp, udp, doh} {
		if _, err := r.Exchange(ctx, q); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}

	snap := settled(p, func(s *telemetry.Snapshot) bool { return s.Queries["udp"] == 2 && s.Queries["doh"] == 1 })
	for _, tt := range []struct {
		name      string
		got, want uint64
	}{
		{"queries[udp]", snap.Queries["udp"], 2},
		{"queries[doh]", snap.Queries["doh"], 1},
		{"verdicts[ok]", snap.Verdicts["ok"], 3},
		{"cache misses", snap.CacheEvents["miss"], 1},
		{"cache hits", snap.CacheEvents["hit"], 2},
		{"pool dials", snap.PoolDials, 1},
		{"pool exchanges", snap.PoolExchanges, 1},
	} {
		if tt.got != tt.want {
			t.Errorf("%s = %d, want %d", tt.name, tt.got, tt.want)
		}
	}
	if snap.UpstreamBytesSent == 0 || snap.UpstreamBytesReceived == 0 {
		t.Errorf("upstream byte accounting empty: sent=%d received=%d",
			snap.UpstreamBytesSent, snap.UpstreamBytesReceived)
	}
	if d := snap.Latency["udp"]; d == nil || d.Count != 2 {
		t.Errorf("udp latency distribution = %+v, want count 2", d)
	}
	if snap.UpstreamLatency.Count != 1 {
		t.Errorf("upstream latency count = %d, want 1", snap.UpstreamLatency.Count)
	}

	mu.Lock()
	if len(summaries) != 3 {
		t.Fatalf("listener saw %d summaries, want 3", len(summaries))
	}
	var missSummary *qtrace.Record
	for i := range summaries {
		if summaries[i].Cache == "miss" {
			missSummary = &summaries[i]
		}
	}
	if missSummary == nil || missSummary.Server != up.Host || missSummary.BytesReceived == 0 {
		t.Errorf("miss summary should name the upstream and carry bytes: %+v", missSummary)
	}
	mu.Unlock()

	// Scrape the ops plane the way Prometheus would.
	srv := httptest.NewServer(p.Observability())
	defer srv.Close()

	metrics := httpGet(t, srv.URL+"/metrics")
	for _, want := range []string{
		`dohcost_queries_total{proto="udp"} 2`,
		`dohcost_queries_total{proto="doh"} 1`,
		`dohcost_cache_events_total{event="hit"} 2`,
		"dohcost_pool_exchanges_total 1",
		`dohcost_query_latency_seconds{proto="udp",quantile="0.99"}`,
		"dohcost_cache_entries 1",
		`dohcost_upstream_up{upstream="recursive.upstream"} 1`,
		`dohcost_upstream_exchanges_total{upstream="recursive.upstream"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	var report proxy.CostReport
	if err := json.Unmarshal([]byte(httpGet(t, srv.URL+"/debug/cost")), &report); err != nil {
		t.Fatalf("/debug/cost is not JSON: %v", err)
	}
	if report.Telemetry.Queries["udp"] != 2 {
		t.Errorf("/debug/cost udp queries = %d, want 2", report.Telemetry.Queries["udp"])
	}
	if report.Cache.Hits != 2 || report.Cache.Entries != 1 {
		t.Errorf("/debug/cost cache = %+v, want 2 hits / 1 entry", report.Cache)
	}
	if len(report.Upstreams) != 1 || report.Upstreams[0].Exchanges != 1 {
		t.Errorf("/debug/cost upstreams = %+v, want 1 upstream with 1 exchange", report.Upstreams)
	}
	// Neither a guard nor a bootstrap prober is configured here, so the
	// chain a miss crosses is the bare one.
	if want := []string{"cache", "steer", "pool"}; !slices.Equal(report.Chain, want) {
		t.Errorf("/debug/cost chain = %v, want %v", report.Chain, want)
	}
}

// TestForwardingChainOrder pins the order forward reports: the
// breaker directly behind the cache, so refreshes pass it too, and outside
// the storm detector, so its refusals are not network evidence.
func TestForwardingChainOrder(t *testing.T) {
	up := dnstransport.PoolUpstream{Name: "never-dialed", Dial: func(context.Context) (dnstransport.Resolver, error) {
		return nil, errors.New("not in this test")
	}}
	p, err := proxy.New(proxy.Config{Upstreams: []dnstransport.PoolUpstream{up}, Guard: &guard.Config{}, Bootstrap: &dialer.Prober{}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if want := []string{"cache", "breaker", "storm", "steer", "pool"}; !slices.Equal(p.CostReport().Chain, want) {
		t.Errorf("chain = %v, want %v", p.CostReport().Chain, want)
	}
}

// TestForwardingChainBehaviour drives the chain TestForwardingChainOrder
// names. Breaker-refused misses never reach the storm detector, however
// long their run; a run of upstream failures past the threshold fires it;
// and every admitted miss gives its in-flight slot back.
func TestForwardingChainBehaviour(t *testing.T) {
	storm := &dialer.Storm{Threshold: 3, Cooldown: time.Hour}
	d := deploy(t, loadgen.Scenario{Seed: 46, BootstrapProbe: true, Proxy: proxy.Config{
		UpstreamTimeout: 2 * time.Second,
		// Each client may miss twice before the breaker refuses it.
		Guard: &guard.Config{ClientQPS: 1e6, Burst: 1 << 20, MissRate: 2 * math.Ln2 / 3600, MissHalfLife: time.Hour},
		Storm: storm,
	}})
	p := d.Proxy
	ask := func(client int, name string) dnswire.RCode {
		t.Helper()
		c := resolver(t, d, "tcp", client)
		resp, err := c.Exchange(context.Background(), dnswire.NewQuery(0, dnswire.Name(name), dnswire.TypeA))
		if err != nil {
			t.Fatalf("%s from client %d: %v", name, client, err)
		}
		return resp.RCode
	}

	refused := 0
	for i := 0; i < 8; i++ {
		if ask(0, fmt.Sprintf("n%d.refused.example.", i)) == dnswire.RCodeRefused {
			refused++
		}
	}
	if refused <= storm.Threshold {
		t.Fatalf("%d of 8 misses refused by the breaker, want more than the storm threshold %d", refused, storm.Threshold)
	}
	if got := p.Guard().Report().BreakerRefusals; got != uint64(refused) {
		t.Errorf("breaker refusals = %d, client saw %d REFUSED", got, refused)
	}
	if storm.Fired() != 0 {
		t.Fatalf("storm fired %d times on breaker refusals alone", storm.Fired())
	}

	// Sever the upstream's link, pooled connection included; a fresh
	// client per query keeps each miss under its breaker budget.
	d.Net().SetLinkFlap(loadgen.UpstreamHost, netsim.FlapWindow{End: time.Hour})
	for i := 1; i <= storm.Threshold+1; i++ {
		if rc := ask(i, fmt.Sprintf("n%d.failed.example.", i)); rc != dnswire.RCodeServerFailure {
			t.Fatalf("miss %d with the upstream gone: rcode %v, want SERVFAIL", i, rc)
		}
	}
	if storm.Fired() != 1 {
		t.Errorf("storm fired %d times on %d upstream failures, want 1", storm.Fired(), storm.Threshold+1)
	}
	if got := p.Guard().Report().InflightMisses; got != 0 {
		t.Errorf("%d misses still in flight after every reply", got)
	}
}

// TestProxyTelemetrySERVFAILVerdict checks the failure half of the verdict
// accounting: with every upstream unreachable the pipeline synthesizes
// SERVFAIL, and telemetry must say so rather than counting an ok.
func TestProxyTelemetrySERVFAILVerdict(t *testing.T) {
	d := deploy(t, loadgen.Scenario{Seed: 2, Proxy: proxy.Config{Pool: failFast, UpstreamTimeout: 2 * time.Second}})
	p := d.Proxy
	d.Upstreams()[0].Close() // upstream gone before the first query

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	udp := resolver(t, d, "udp", 0)

	resp, err := udp.Exchange(ctx, dnswire.NewQuery(0, "doomed.example.", dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeServerFailure {
		t.Fatalf("rcode = %v, want SERVFAIL", resp.RCode)
	}
	snap := settled(p, func(s *telemetry.Snapshot) bool { return s.Verdicts["servfail"] == 1 })
	if snap.Verdicts["servfail"] != 1 {
		t.Errorf("servfail verdicts = %d, want 1", snap.Verdicts["servfail"])
	}
	if snap.PoolFailures == 0 {
		t.Error("pool failures should be counted when every upstream is down")
	}
}

// httpGet fetches a URL and returns the body.
func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// settled snapshots the proxy's telemetry once done reports that the
// counters a test is about to assert on have arrived, or two seconds have
// passed: a server finishes a query's transaction just after its reply
// leaves, so the client holding the reply can be a moment ahead of them.
func settled(p *proxy.Proxy, done func(*telemetry.Snapshot) bool) *telemetry.Snapshot {
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		if snap := p.Telemetry().Snapshot(); done(snap) || time.Now().After(deadline) {
			return snap
		}
	}
}
