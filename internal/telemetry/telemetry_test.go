package telemetry

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dohcost/internal/qtrace"
)

// TestBucketLayout walks every bucket and checks the log-linear layout is
// gapless and self-consistent: bounds tile the value space, and every
// value maps back into the bucket whose bounds contain it.
func TestBucketLayout(t *testing.T) {
	var prevHi uint64
	for i := 0; i < histBuckets; i++ {
		lo, hi := bucketBounds(i)
		if i > 0 && lo != prevHi {
			t.Fatalf("bucket %d: lo=%d, want %d (gap or overlap)", i, lo, prevHi)
		}
		if hi <= lo {
			t.Fatalf("bucket %d: empty range [%d,%d)", i, lo, hi)
		}
		prevHi = hi
		for _, v := range []uint64{lo, hi - 1} {
			if got := bucketIndex(v); got != i {
				t.Fatalf("bucketIndex(%d) = %d, want %d", v, got, i)
			}
		}
	}
	// Out-of-range values clamp into the top bucket.
	if got := bucketIndex(1 << 60); got != histBuckets-1 {
		t.Fatalf("bucketIndex(2^60) = %d, want top bucket %d", got, histBuckets-1)
	}
}

// TestHistogramQuantileAccuracyConcurrent hammers one histogram from many
// goroutines with a known uniform distribution and checks p50/p95/p99
// land within the structural error bound (1/16 per bucket, allow 10% for
// the interpolation at the edges) — the property that makes quantiles
// trustworthy without sorting or locks.
func TestHistogramQuantileAccuracyConcurrent(t *testing.T) {
	m := New(withShards(8))
	const (
		goroutines = 8
		perG       = 20000
		maxMs      = 1000
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perG; i++ {
				// Uniform latencies in (0, 1s]: quantile q should read ~q·1s.
				d := time.Duration(rng.Int63n(maxMs*1000)+1) * time.Microsecond
				tx := m.Begin(ProtoUDP)
				tx.rec.Start = time.Now().Add(-d) // backdate so Finish observes d
				tx.SetVerdict(VerdictOK)
				tx.Finish()
			}
		}(int64(g) + 1)
	}
	wg.Wait()

	snap := m.Snapshot()
	d := snap.Latency["udp"]
	if d == nil {
		t.Fatal("no udp latency distribution")
	}
	if d.Count != goroutines*perG {
		t.Fatalf("count = %d, want %d (lost observations under concurrency)", d.Count, goroutines*perG)
	}
	for _, tt := range []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 500 * time.Millisecond},
		{0.95, 950 * time.Millisecond},
		{0.99, 990 * time.Millisecond},
	} {
		got := d.Quantile(tt.q)
		err := float64(got-tt.want) / float64(tt.want)
		if err < 0 {
			err = -err
		}
		if err > 0.10 {
			t.Errorf("q%.2f = %v, want %v ± 10%% (err %.1f%%)", tt.q, got, tt.want, err*100)
		}
	}
}

// TestTransactionCountersAndListener drives transactions through every
// annotation path and checks the snapshot and the listener summary agree
// with what happened.
func TestTransactionCountersAndListener(t *testing.T) {
	var summaries []qtrace.Record
	var mu sync.Mutex
	m := New(withShards(2))
	m.SetListener(ListenerFunc(func(s *qtrace.Record) {
		mu.Lock()
		summaries = append(summaries, *s) // the record is valid only for the call
		mu.Unlock()
	}))

	tx := m.Begin(ProtoDoH)
	tx.SetCache(CacheMiss)
	tx.PoolDial()
	tx.ObserveUpstream("recursive0", 3*time.Millisecond)
	tx.AddBytesSent(40)
	tx.AddBytesReceived(120)
	tx.SetVerdict(VerdictOK)
	tx.Finish()
	tx.Finish() // idempotent: must not double count

	tx2 := m.Begin(ProtoUDP)
	tx2.SetCache(CacheHit)
	tx2.SetVerdict(VerdictOK)
	tx2.TCFallback()
	tx2.Finish()

	tx3 := m.Begin(ProtoUDP)
	tx3.SetCache(CacheMiss)
	tx3.PoolFailure()
	tx3.SetVerdict(VerdictServFail)
	tx3.Finish()

	tx4 := m.Begin(ProtoDoT)
	tx4.SetCache(CacheStaleHit)
	tx4.HedgeFired()
	tx4.HedgeWon()
	tx4.SetVerdict(VerdictOK)
	tx4.Finish()

	s := m.Snapshot()
	for _, tt := range []struct {
		name      string
		got, want uint64
	}{
		{"queries[doh]", s.Queries["doh"], 1},
		{"queries[udp]", s.Queries["udp"], 2},
		{"queries[dot]", s.Queries["dot"], 1},
		{"verdicts[ok]", s.Verdicts["ok"], 3},
		{"verdicts[servfail]", s.Verdicts["servfail"], 1},
		{"cache[miss]", s.CacheEvents["miss"], 2},
		{"cache[hit]", s.CacheEvents["hit"], 1},
		{"cache[stale_hit]", s.CacheEvents["stale_hit"], 1},
		{"pool dials", s.PoolDials, 1},
		{"pool exchanges", s.PoolExchanges, 1},
		{"pool failures", s.PoolFailures, 1},
		{"hedges fired", s.HedgesFired, 1},
		{"hedges won", s.HedgesWon, 1},
		{"tc fallbacks", s.TCFallbacks, 1},
		{"bytes sent", s.UpstreamBytesSent, 40},
		{"bytes received", s.UpstreamBytesReceived, 120},
		{"upstream latency count", s.UpstreamLatency.Count, 1},
	} {
		if tt.got != tt.want {
			t.Errorf("%s = %d, want %d", tt.name, tt.got, tt.want)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	if len(summaries) != 4 {
		t.Fatalf("listener got %d summaries, want 4", len(summaries))
	}
	if summaries[3].Cache != "stale_hit" {
		t.Errorf("fourth summary cache = %q, want stale_hit", summaries[3].Cache)
	}
	first := summaries[0]
	if first.Proto != "doh" || first.Server != "recursive0" || first.Verdict != "ok" ||
		first.Cache != "miss" || first.BytesSent != 40 || first.BytesReceived != 120 {
		t.Errorf("unexpected first summary: %+v", first)
	}
	if !summaries[1].TCFallback {
		t.Error("second summary should report the TC fallback")
	}
}

// TestNilMetricsIsNoOp proves the telemetry-off mode: a nil Metrics hands
// out nil Transactions whose every method (and context round-trip) is
// safe, so instrumented packages never branch on enablement.
func TestNilMetricsIsNoOp(t *testing.T) {
	var m *Metrics
	tx := m.Begin(ProtoUDP)
	if tx != nil {
		t.Fatal("nil Metrics should Begin a nil Transaction")
	}
	ctx := NewContext(context.Background(), tx)
	if got := FromContext(ctx); got != nil {
		t.Fatal("nil tx should not be installed in context")
	}
	// None of these may panic.
	tx.SetCache(CacheHit)
	tx.SetVerdict(VerdictOK)
	tx.PoolDial()
	tx.PoolFailure()
	tx.ObserveUpstream("u", time.Millisecond)
	tx.AddBytesSent(1)
	tx.AddBytesReceived(1)
	tx.TCFallback()
	tx.HedgeFired()
	tx.HedgeWon()
	tx.Finish()
	m.SetListener(ListenerFunc(func(*qtrace.Record) {}))
	if s := m.Snapshot(); s == nil || len(s.Queries) != 0 {
		t.Fatal("nil Metrics should snapshot empty")
	}
}

// TestContextRoundTrip checks annotations survive the context plumbing the
// pipeline actually uses, including the WithoutCancel detachment the
// cache applies before going upstream.
func TestContextRoundTrip(t *testing.T) {
	m := New(withShards(1))
	tx := m.Begin(ProtoTCP)
	ctx := NewContext(context.Background(), tx)
	detached := context.WithoutCancel(ctx)
	FromContext(detached).SetCache(CacheMiss)
	FromContext(detached).ObserveUpstream("up", time.Millisecond)
	tx.SetVerdict(VerdictOK)
	tx.Finish()
	s := m.Snapshot()
	if s.CacheEvents["miss"] != 1 || s.PoolExchanges != 1 {
		t.Fatalf("annotations lost across WithoutCancel: %+v", s)
	}
}

// TestQueryContext: a slot's context carries whichever transaction was Set
// last — nil between steps — and its parent's values and cancellation, and
// handing it the next query's transaction allocates nothing.
func TestQueryContext(t *testing.T) {
	type parentKey struct{}
	parent, cancel := context.WithCancel(context.WithValue(context.Background(), parentKey{}, "conn"))
	qc := &QueryContext{Context: parent}
	if FromContext(qc) != nil {
		t.Fatal("a fresh QueryContext carries a transaction")
	}
	m := New(withShards(1))
	for i := 0; i < 2; i++ {
		tx := m.Begin(ProtoUDP)
		qc.Set(tx)
		if FromContext(qc) != tx || FromContext(context.WithoutCancel(qc)) != tx {
			t.Fatalf("step %d: FromContext is not the transaction Set", i)
		}
		if qc.Value(parentKey{}) != "conn" {
			t.Fatalf("step %d: the parent's value is lost", i)
		}
		qc.Set(nil)
		tx.Finish()
	}
	if FromContext(qc) != nil {
		t.Fatal("a cleared QueryContext still carries a transaction")
	}
	tx := m.Begin(ProtoUDP)
	defer tx.Finish()
	if got := testing.AllocsPerRun(100, func() { qc.Set(tx); FromContext(qc).SetCache(CacheMiss); qc.Set(nil) }); got != 0 {
		t.Errorf("a step's Set and FromContext allocate %.1f times, want none", got)
	}
	child, stop := context.WithTimeout(qc, time.Hour)
	defer stop()
	cancel()
	select {
	case <-child.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("a context derived from a QueryContext outlived its parent's cancellation")
	}
	if qc.Err() != context.Canceled {
		t.Errorf("Err = %v, want the parent's", qc.Err())
	}
}

// TestWritePrometheus checks the exposition has the families, labels and
// summary quantiles the docs promise, in scrapeable shape.
func TestWritePrometheus(t *testing.T) {
	m := New(withShards(1))
	tx := m.Begin(ProtoUDP)
	tx.SetCache(CacheHit)
	tx.SetVerdict(VerdictOK)
	tx.Finish()

	var b strings.Builder
	if err := m.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE dohcost_queries_total counter",
		`dohcost_queries_total{proto="udp"} 1`,
		`dohcost_query_verdicts_total{verdict="ok"} 1`,
		`dohcost_cache_events_total{event="hit"} 1`,
		"# TYPE dohcost_query_latency_seconds summary",
		`dohcost_query_latency_seconds{proto="udp",quantile="0.5"}`,
		`dohcost_query_latency_seconds_count{proto="udp"} 1`,
		"dohcost_pool_exchanges_total 0",
		"# TYPE dohcost_hedges_fired_total counter",
		"dohcost_hedges_fired_total 0",
		"dohcost_hedges_won_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}
}

// TestSnapshotUnderLoad takes snapshots while writers are running — the
// scrape-during-traffic case — and checks monotonicity, the only property
// a concurrent scrape can promise.
func TestSnapshotUnderLoad(t *testing.T) {
	m := New(withShards(4))
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				tx := m.Begin(ProtoDoH)
				tx.SetCache(CacheHit)
				tx.SetVerdict(VerdictOK)
				tx.Finish()
			}
		}()
	}
	var last uint64
	for i := 0; i < 50; i++ {
		s := m.Snapshot()
		if s.Queries["doh"] < last {
			t.Fatalf("queries went backwards: %d after %d", s.Queries["doh"], last)
		}
		last = s.Queries["doh"]
	}
	stop.Store(true)
	wg.Wait()
}

// BenchmarkTransactionLifecycle measures the full per-query telemetry
// cost: Begin, three annotations, Finish. This is the budget the proxy
// hot path pays per query.
func BenchmarkTransactionLifecycle(b *testing.B) {
	m := New()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			tx := m.Begin(ProtoUDP)
			tx.SetCache(CacheHit)
			tx.SetVerdict(VerdictOK)
			tx.Finish()
		}
	})
}

// TestBackgroundTransaction checks the cache-refresh accounting mode:
// resource annotations land in the aggregate counters, but Finish records
// no query, verdict, cache event, latency sample or listener call.
func TestBackgroundTransaction(t *testing.T) {
	var calls int
	m := New(withShards(1))
	m.SetListener(ListenerFunc(func(*qtrace.Record) { calls++ }))
	tx := m.BeginBackground()
	tx.PoolDial()
	tx.ObserveUpstream("refresh-target", 2*time.Millisecond)
	tx.AddBytesSent(30)
	tx.AddBytesReceived(90)
	tx.Finish()

	s := m.Snapshot()
	if s.PoolDials != 1 || s.PoolExchanges != 1 || s.UpstreamBytesSent != 30 || s.UpstreamBytesReceived != 90 {
		t.Errorf("background resources lost: %+v", s)
	}
	if s.UpstreamLatency.Count != 1 {
		t.Errorf("background upstream latency lost: %+v", s.UpstreamLatency)
	}
	if len(s.Queries) != 0 || len(s.Verdicts) != 0 || len(s.CacheEvents) != 0 {
		t.Errorf("background transaction counted as a client query: %+v", s)
	}
	if calls != 0 {
		t.Errorf("listener called %d times for background work, want 0", calls)
	}
	var nilM *Metrics
	nilM.BeginBackground().Finish() // nil-safe like Begin
}

// TestListenerPathAllocFree pins the listener's zero-allocation contract:
// Finish hands the Listener the transaction's own record, so a query with
// a listener installed allocates nothing for it.
func TestListenerPathAllocFree(t *testing.T) {
	m := New()
	var sent int
	m.SetListener(ListenerFunc(func(r *qtrace.Record) { sent += r.BytesSent }))
	query := func() {
		tx := m.Begin(ProtoUDP)
		tx.AddBytesSent(40)
		tx.SetVerdict(VerdictOK)
		tx.Finish()
	}
	// Warm the transaction pool.
	for i := 0; i < 100; i++ {
		query()
	}
	if avg := testing.AllocsPerRun(1000, query); avg != 0 {
		t.Errorf("Begin/Finish with a listener allocates %.2f/query, want 0", avg)
	}
	if want := 40 * (100 + 1001); sent != want { // AllocsPerRun runs once more to warm up
		t.Errorf("listener saw %d bytes sent, want %d", sent, want)
	}
}
