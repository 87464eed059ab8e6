package proxy_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"dohcost/internal/dnstransport"
	"dohcost/internal/dnswire"
	"dohcost/internal/guard"
	"dohcost/internal/loadgen"
	"dohcost/internal/proxy"
	"dohcost/internal/qtrace"
	"dohcost/internal/telemetry"
)

// scrape is one reading of a proxy's ops plane: /metrics as samples keyed
// by series (name and labels as printed) and families keyed by name with
// their type, and /debug/cost as generic JSON, read by key the way an
// operator's script reads it.
type scrape struct {
	samples  map[string]float64
	families map[string]string
	cost     map[string]any
}

// scrapeOps fetches /debug/cost, then /metrics, from p's Observability.
func scrapeOps(t *testing.T, p *proxy.Proxy) scrape {
	t.Helper()
	srv := httptest.NewServer(p.Observability())
	defer srv.Close()
	s := scrape{samples: map[string]float64{}, families: map[string]string{}}
	if err := json.Unmarshal([]byte(httpGet(t, srv.URL+"/debug/cost")), &s.cost); err != nil {
		t.Fatalf("/debug/cost is not JSON: %v", err)
	}
	sc := bufio.NewScanner(strings.NewReader(httpGet(t, srv.URL+"/metrics")))
	for sc.Scan() {
		line := sc.Text()
		if f, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(f, " ")
			s.families[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("/metrics line %q: %v", line, err)
		}
		s.samples[line[:i]] = v
	}
	return s
}

// field reads a number from the cost report by its JSON path; a missing
// key reads as -1, which no counter equals.
func (s scrape) field(path ...string) float64 {
	var v any = s.cost
	for _, k := range path {
		m, ok := v.(map[string]any)
		if !ok {
			return -1
		}
		v = m[k]
	}
	if f, ok := v.(float64); ok {
		return f
	}
	return -1
}

// shardSum sums one key over every record of the cost report's udp_shards;
// at index, over one element of an array-valued key.
func (s scrape) shardSum(key string, index int) float64 {
	shards, _ := s.cost["udp_shards"].([]any)
	sum := 0.0
	for _, sh := range shards {
		v := sh.(map[string]any)[key]
		if index >= 0 {
			arr, ok := v.([]any)
			if !ok || index >= len(arr) {
				return -1
			}
			v = arr[index]
		}
		f, ok := v.(float64)
		if !ok {
			return -1
		}
		sum += f
	}
	return sum
}

// TestMetricsAgreeWithCostReport: every series /metrics renders from a
// component's own counters equals the field /debug/cost reports for that
// component — the guard's decisions under "guard", the cache's under
// "cache", the UDP serving counters summed over "udp_shards". The proxy
// runs with all three busy: a miss breaker that fires, a one-shard cache
// small enough to evict whose entries expire before its arena rotates (so
// the rotation drops some as evictions), and the real-socket UDP listener
// beside the simulated one.
func TestMetricsAgreeWithCostReport(t *testing.T) {
	d := deploy(t, loadgen.Scenario{Seed: 43, Proxy: proxy.Config{
		UpstreamTimeout: 2 * time.Second,
		CacheBudget:     8 << 10,
		CacheShards:     1,
		MaxTTL:          100 * time.Millisecond,
		// A client may miss about 43 times before the breaker refuses it.
		Guard:     &guard.Config{ClientQPS: 1e6, Burst: 1 << 20, MissRate: 0.5, MissHalfLife: time.Minute},
		UDPListen: "127.0.0.1:0",
		UDPShards: 1,
	}})
	p := d.Proxy
	ctx := context.Background()

	// Each stream client is a host of its own, so its misses are charged to
	// a breaker score of their own.
	query := func(client int, names []dnswire.Name) {
		t.Helper()
		c, err := d.Resolver("tcp", client)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for _, name := range names {
			if _, err := c.Exchange(ctx, dnswire.NewQuery(0, name, dnswire.TypeA)); err != nil {
				t.Fatalf("%s from client %d: %v", name, client, err)
			}
		}
	}
	// 91 names overflow the 8 KiB cache's 73 entries by 18, as many as 80
	// did when an entry also stored its key apart from the reply.
	var names []dnswire.Name
	for i := 0; i < 91; i++ {
		names = append(names, dnswire.Name(fmt.Sprintf("n%d.fill.example.", i)))
	}
	query(0, names[:40])
	query(1, names[40:80])
	query(2, names[80:]) // past the budget: LRU evictions
	if p.CacheStats().Evictions == 0 {
		t.Fatalf("91 names in an 8 KiB cache evicted nothing: %+v", p.CacheStats())
	}
	// Re-asking the newest names once they have expired replaces their
	// entries, leaving dead arena bytes, until the arena rotates; the older
	// survivors, expired and never asked again, are dropped by it.
	for cycle := 0; p.CacheStats().ArenaEpochs == 0; cycle++ {
		if cycle == 20 {
			t.Fatalf("the arena never rotated: %+v", p.CacheStats())
		}
		time.Sleep(150 * time.Millisecond)
		query(3+cycle, names[50:])
	}

	// One simulated UDP client misses past its breaker threshold.
	sim := resolver(t, d, "udp", 30)
	for i := 0; i < 60; i++ {
		if _, err := sim.Exchange(ctx, dnswire.NewQuery(0, dnswire.Name(fmt.Sprintf("n%d.flood.example.", i)), dnswire.TypeA)); err != nil {
			t.Fatal(err)
		}
	}
	if g := p.Guard().Report(); g.BreakerRefusals == 0 {
		t.Fatalf("60 misses from one client never tripped the breaker: %+v", g)
	}

	// And a few queries over the kernel socket.
	kpc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	kernel := dnstransport.NewUDPClient(kpc, p.UDPAddr())
	t.Cleanup(func() { kernel.Close() })
	for i := 0; i < 5; i++ {
		if _, err := kernel.Exchange(ctx, dnswire.NewQuery(0, "kernel.example.", dnswire.TypeA)); err != nil {
			t.Fatal(err)
		}
	}

	s := scrapeOps(t, p)
	if shards, _ := s.cost["udp_shards"].([]any); len(shards) != p.UDPShardCount()+1 {
		t.Errorf("udp_shards lists %d shards, want the kernel listener's %d and the simulated listener's one",
			len(shards), p.UDPShardCount())
	}
	checks := []struct {
		series string
		owner  float64
	}{
		{"dohcost_guard_drops_total", s.field("guard", "drops_total")},
		{"dohcost_guard_slips_total", s.field("guard", "slips_total")},
		{"dohcost_guard_refusals_total", s.field("guard", "refusals_total")},
		{"dohcost_guard_breaker_refusals_total", s.field("guard", "breaker_refusals_total")},
		{"dohcost_guard_cookies_validated_total", s.field("guard", "cookies_validated_total")},
		{"dohcost_guard_cookies_issued_total", s.field("guard", "cookies_issued_total")},
		{"dohcost_cache_evictions_total", s.field("cache", "evictions")},
		{"dohcost_cache_admission_rejects_total", s.field("cache", "admission_rejects")},
		{"dohcost_prefetches_total", s.field("cache", "prefetches")},
		{"dohcost_udp_spills_total", s.shardSum("spills", -1)},
		{"dohcost_udp_batch_reads_total", s.shardSum("reads", -1)},
		{"dohcost_udp_batch_datagrams_total", s.shardSum("datagrams", -1)},
	}
	// The histogram's buckets, in the order METRICS.md gives for
	// batch_size_reads.
	for b, label := range []string{"1", "2-3", "4-7", "8-15", "16-31", "32-63", "64+"} {
		if sum := s.shardSum("batch_size_reads", b); sum != 0 {
			checks = append(checks, struct {
				series string
				owner  float64
			}{fmt.Sprintf("dohcost_udp_batch_size_reads_total{datagrams=%q}", label), sum})
		}
	}
	for _, c := range checks {
		if got, ok := s.samples[c.series]; !ok || got != c.owner {
			t.Errorf("/metrics %s = %v (present %v), /debug/cost owner says %v", c.series, got, ok, c.owner)
		}
	}
	if s.field("guard", "breaker_refusals_total") <= 0 || s.field("cache", "evictions") <= 0 ||
		s.field("cache", "arena_epochs") <= 0 || s.shardSum("reads", -1) <= 0 {
		t.Errorf("the scenario left a counter under test at zero: guard %v, cache %v", s.cost["guard"], s.cost["cache"])
	}
}

// documentedFamilies returns every dohcost_* family named in the first
// column of a docs/METRICS.md table, labels stripped.
func documentedFamilies(t *testing.T) map[string]bool {
	t.Helper()
	doc, err := os.ReadFile("../../docs/METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile("`(dohcost_[a-z0-9_]+)")
	out := map[string]bool{}
	for _, line := range strings.Split(string(doc), "\n") {
		cells := strings.Split(line, "|")
		if !strings.HasPrefix(line, "|") || len(cells) < 3 {
			continue
		}
		for _, m := range name.FindAllStringSubmatch(cells[1], -1) {
			out[m[1]] = true
		}
	}
	return out
}

// TestMetricsDocumented keeps docs/METRICS.md's tables equal to what a
// fully armed proxy emits — guard, tracing, profiling, bootstrap prober,
// racing dialer and the kernel UDP listener, each with traffic through
// it: no family emitted undocumented, none documented that is gone.
func TestMetricsDocumented(t *testing.T) {
	d := deploy(t, loadgen.Scenario{Seed: 44, HappyEyeballs: true, BootstrapProbe: true, Proxy: proxy.Config{
		UpstreamTimeout: 2 * time.Second,
		Guard:           &guard.Config{},
		Tracing:         &qtrace.Config{SampleEvery: 1},
		Profiling:       true,
		UDPListen:       "127.0.0.1:0",
		UDPShards:       1,
	}})
	p := d.Proxy
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := dnstransport.NewUDPClient(pc, p.UDPAddr())
	t.Cleanup(func() { c.Close() })
	for i := 0; i < 2; i++ { // a miss, then a hit
		if _, err := c.Exchange(context.Background(), dnswire.NewQuery(0, "documented.example.", dnswire.TypeA)); err != nil {
			t.Fatal(err)
		}
	}
	settled(p, func(s *telemetry.Snapshot) bool { return s.Queries["udp"] == 2 })

	documented := documentedFamilies(t)
	for family := range scrapeOps(t, p).families {
		if !documented[family] {
			t.Errorf("/metrics emits %s, which no docs/METRICS.md table names", family)
		}
		delete(documented, family)
	}
	for family := range documented {
		t.Errorf("docs/METRICS.md names %s, which a fully armed proxy does not emit", family)
	}
}

// TestUpstreamCountersSumToPoolTotals: with the preferred upstream dead,
// the per-upstream failure and exchange series sum to the pool totals. A
// checkout the pool refuses while the dead upstream rests in backoff
// counts only in dohcost_pool_backoffs_total, not as a failure of its own.
func TestUpstreamCountersSumToPoolTotals(t *testing.T) {
	d := deploy(t, loadgen.Scenario{Seed: 45, Upstreams: 2, Proxy: proxy.Config{UpstreamTimeout: 2 * time.Second}})
	d.Upstreams()[0].Close()
	c := resolver(t, d, "tcp", 0)
	for i := 0; i < 20; i++ {
		if _, err := c.Exchange(context.Background(), dnswire.NewQuery(0, dnswire.Name(fmt.Sprintf("n%d.dead.example.", i)), dnswire.TypeA)); err != nil {
			t.Fatal(err)
		}
	}
	settled(d.Proxy, func(s *telemetry.Snapshot) bool { return s.Queries["tcp"] == 20 })

	s := scrapeOps(t, d.Proxy)
	sum := func(family string) (total float64) {
		for series, v := range s.samples {
			if strings.HasPrefix(series, family+"{") {
				total += v
			}
		}
		return total
	}
	for _, c := range []struct{ perUpstream, pool string }{
		{"dohcost_upstream_failures_total", "dohcost_pool_failures_total"},
		{"dohcost_upstream_exchanges_total", "dohcost_pool_exchanges_total"},
	} {
		if got, want := sum(c.perUpstream), s.samples[c.pool]; got != want {
			t.Errorf("%s sums to %v over upstreams, %s = %v", c.perUpstream, got, c.pool, want)
		}
	}
	if s.samples["dohcost_pool_failures_total"] == 0 || s.samples["dohcost_pool_backoffs_total"] == 0 {
		t.Errorf("the dead upstream was never both failed (%v) and refused in backoff (%v)",
			s.samples["dohcost_pool_failures_total"], s.samples["dohcost_pool_backoffs_total"])
	}
}
