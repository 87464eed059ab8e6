package qtrace

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Config parameterizes a Tracer. The zero value is usable: every field has
// a serving-safe default.
type Config struct {
	// capacity is the total kept-trace ring capacity, split across shards
	// (default 1024; tests shrink it). The rings hold the most recent kept
	// traces; older ones are overwritten.
	capacity int
	// SampleEvery is the healthy-query baseline: 1-in-N non-errored,
	// non-slow queries are kept so the rings also show what normal looks
	// like (default 64; negative disables the baseline entirely).
	SampleEvery int
	// SlowFloor is the minimum slow-query threshold (default 10ms). The
	// effective threshold per class is max(SlowFloor, adaptive p99
	// estimate), so on a fast population the floor keeps sub-millisecond
	// noise out of the "slow" verdict, while on a slow population the
	// adaptive estimate rises above the floor and tracks the real tail.
	SlowFloor time.Duration
	// SlowLog, when non-nil, receives one formatted line per over-threshold
	// query with its phase breakdown — the operator's no-scrape-stack view.
	// Writes are serialized by the tracer.
	SlowLog io.Writer `json:"-"`
	// Log, when non-nil, receives every kept trace as one JSONL record
	// (the structured query log). The tracer closes it on Close.
	Log *QueryLog `json:"-"`
}

// Sampling classes: the adaptive threshold is tracked per class so an
// error burst cannot drag the cache-hit threshold around and vice versa.
const (
	classError    = iota // Failed verdicts
	classCache           // answers served from cache memory
	classUpstream        // everything that went upstream
	numClasses
)

// classLabels are the Stats keys for the per-class thresholds.
var classLabels = [numClasses]string{"error", "cache", "upstream"}

// classify buckets a record for threshold tracking. The cache labels
// mirror telemetry.CacheOutcome's strings; qtrace cannot import telemetry
// (telemetry imports qtrace), so the coupling is by label.
func classify(r *Record) int {
	if r.failed() {
		return classError
	}
	switch r.Cache {
	case "hit", "negative_hit", "stale_hit":
		return classCache
	}
	return classUpstream
}

// ringShards is the kept-trace ring's stripe count: enough that concurrent
// keepers (batch UDP shards, stream goroutines) rarely collide on a
// shard's sequence counter.
const ringShards = 8

// slot is one ring cell. Writers claim a slot by sequence number and take
// its mutex with TryLock — a writer that loses the try drops its sample
// instead of blocking, which is what keeps the serving path stall-free;
// readers (the /debug/trace scrape) lock normally.
type slot struct {
	mu   sync.Mutex
	full bool
	rec  Record
}

// ring is one stripe of the kept-trace buffer.
type ring struct {
	seq   atomic.Uint64
	slots []slot
}

// Tracer owns the sampling policy, the kept-trace rings and the optional
// logs. All methods are safe for concurrent use; a nil *Tracer is a valid
// "tracing off" receiver for every method.
type Tracer struct {
	cfg    Config
	shards [ringShards]ring
	cursor atomic.Uint64 // round-robin shard pick for keepers
	tick   atomic.Uint64 // baseline 1-in-N counter

	// thresh is the per-class adaptive p99 estimate in nanoseconds,
	// updated with an asymmetric EWMA (see adapt).
	thresh [numClasses]atomic.Int64

	offered      atomic.Uint64
	keptErrored  atomic.Uint64
	keptSlow     atomic.Uint64
	keptBaseline atomic.Uint64
	ringDropped  atomic.Uint64
	logDropped   atomic.Uint64

	slowMu sync.Mutex // serializes SlowLog writes
}

// New builds a Tracer from cfg, applying defaults for unset fields.
func New(cfg Config) *Tracer {
	if cfg.capacity <= 0 {
		cfg.capacity = 1024
	}
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = 64
	}
	if cfg.SlowFloor <= 0 {
		cfg.SlowFloor = 10 * time.Millisecond
	}
	t := &Tracer{cfg: cfg}
	per := (cfg.capacity + ringShards - 1) / ringShards
	if per < 1 {
		per = 1
	}
	for i := range t.shards {
		t.shards[i].slots = make([]slot, per)
	}
	for c := range t.thresh {
		t.thresh[c].Store(int64(cfg.SlowFloor))
	}
	return t
}

// Close releases the tracer's owned resources (the query log, if any).
func (t *Tracer) Close() error {
	if t == nil || t.cfg.Log == nil {
		return nil
	}
	return t.cfg.Log.Close()
}

// Offer hands a completed record to the sampler, which copies it into a
// ring slot if it keeps it; r is not retained. The caller must have
// filled Latency and the label fields. The keep decision is tail-based:
// errored always, slower than the class's effective threshold always,
// 1-in-SampleEvery baseline otherwise.
func (t *Tracer) Offer(r *Record) {
	if t == nil || r == nil {
		return
	}
	t.offered.Add(1)
	cl := classify(r)
	slow := r.Latency >= t.effectiveThreshold(cl)
	t.adapt(cl, r.Latency)
	keep := false
	switch {
	case r.failed():
		keep = true
		t.keptErrored.Add(1)
	case slow:
		keep = true
		t.keptSlow.Add(1)
	default:
		if t.cfg.SampleEvery > 0 && t.tick.Add(1)%uint64(t.cfg.SampleEvery) == 0 {
			keep = true
			t.keptBaseline.Add(1)
		}
	}
	if slow && t.cfg.SlowLog != nil {
		t.slowLine(r)
	}
	if keep {
		t.store(r)
		if t.cfg.Log != nil {
			if err := t.cfg.Log.Write(r); err != nil {
				t.logDropped.Add(1)
			}
		}
	}
}

// effectiveThreshold is the slow cutoff for a class: the adaptive p99
// estimate, floored by Config.SlowFloor.
func (t *Tracer) effectiveThreshold(cl int) time.Duration {
	th := time.Duration(t.thresh[cl].Load())
	if th < t.cfg.SlowFloor {
		th = t.cfg.SlowFloor
	}
	return th
}

// adapt nudges the class's threshold toward the stream's p99 with an
// asymmetric EWMA (the Frugal-style streaming quantile trick): samples
// above the estimate pull it up with gain 1/8, samples below push it down
// with gain 1/792 ≈ (1/8)·(0.01/0.99), so the estimate settles where ~1%
// of samples exceed it. The load-modify-store race between concurrent
// adapters loses updates occasionally, which an estimator tolerates.
func (t *Tracer) adapt(cl int, d time.Duration) {
	a := &t.thresh[cl]
	cur := a.Load()
	dn := int64(d)
	if dn > cur {
		a.Store(cur + (dn-cur)/8)
	} else {
		a.Store(cur - (cur-dn)/792)
	}
}

// store copies a kept record into a ring slot. The writer claims the next
// slot in a round-robin shard and TryLocks it; on contention (a concurrent
// reader or a lapped writer holds it) the sample is dropped rather than
// waited for — the serving path never blocks on observability.
func (t *Tracer) store(r *Record) {
	sh := &t.shards[t.cursor.Add(1)%ringShards]
	s := &sh.slots[(sh.seq.Add(1)-1)%uint64(len(sh.slots))]
	if !s.mu.TryLock() {
		t.ringDropped.Add(1)
		return
	}
	s.rec = *r
	s.full = true
	s.mu.Unlock()
}

// slowLine emits the one-line console digest for an over-threshold query.
func (t *Tracer) slowLine(r *Record) {
	t.slowMu.Lock()
	defer t.slowMu.Unlock()
	fmt.Fprintf(t.slowLog(), "slow-query %s %s qtype=%d verdict=%s cache=%s upstream=%s total=%.1fms",
		r.Proto, r.QName(), r.QType, r.Verdict, orNone(r.Cache), orNone(r.Server),
		float64(r.Latency)/float64(time.Millisecond))
	for _, sp := range r.Spans() {
		fmt.Fprintf(t.slowLog(), " %s=%.1fms", sp.Phase, float64(sp.Dur)/float64(time.Millisecond))
	}
	io.WriteString(t.slowLog(), "\n")
}

// slowLog returns the configured slow-query writer.
func (t *Tracer) slowLog() io.Writer { return t.cfg.SlowLog }

// orNone maps an empty label to "none" for log readability.
func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}

// Stats is the tracer's own accounting, exposed in /debug/trace and the
// cost report.
type Stats struct {
	// Offered counts completed transactions the sampler examined.
	Offered uint64 `json:"offered"`
	// KeptErrored, KeptSlow and KeptBaseline break down kept traces by
	// the rule that kept them.
	KeptErrored  uint64 `json:"kept_errored"`
	KeptSlow     uint64 `json:"kept_slow"`
	KeptBaseline uint64 `json:"kept_baseline"`
	// RingDropped counts kept traces lost to slot contention (a writer
	// never blocks); LogDropped counts query-log write failures.
	RingDropped uint64 `json:"ring_dropped"`
	LogDropped  uint64 `json:"log_dropped"`
	// SlowThresholdMs is the effective per-class slow cutoff at snapshot
	// time (class → milliseconds).
	SlowThresholdMs map[string]float64 `json:"slow_threshold_ms"`
}

// Stats returns the tracer's current accounting. Nil-safe.
func (t *Tracer) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	s := Stats{
		Offered:         t.offered.Load(),
		KeptErrored:     t.keptErrored.Load(),
		KeptSlow:        t.keptSlow.Load(),
		KeptBaseline:    t.keptBaseline.Load(),
		RingDropped:     t.ringDropped.Load(),
		LogDropped:      t.logDropped.Load(),
		SlowThresholdMs: make(map[string]float64, numClasses),
	}
	for c := 0; c < numClasses; c++ {
		s.SlowThresholdMs[classLabels[c]] = float64(t.effectiveThreshold(c)) / float64(time.Millisecond)
	}
	return s
}

// Filter selects traces from the rings. Zero-valued fields match
// everything.
type Filter struct {
	// Verdict keeps only traces with this verdict label ("ok", "servfail",
	// "canceled").
	Verdict string
	// Upstream keeps only traces attributed to this upstream.
	Upstream string
	// MinDur keeps only traces at least this slow.
	MinDur time.Duration
	// Limit caps the returned slice (default 100), newest first.
	Limit int
}

// SpanView is one phase interval rendered for JSON consumers.
type SpanView struct {
	// Phase is the span's phase label.
	Phase string `json:"phase"`
	// StartMs is the offset from the trace's start in milliseconds
	// (slightly negative for pre-accept work like the guard check).
	StartMs float64 `json:"start_ms"`
	// DurMs is the span length in milliseconds.
	DurMs float64 `json:"duration_ms"`
}

// View is one kept trace rendered for JSON consumers: /debug/trace, the
// loadgen digest and the query log's lines.
type View struct {
	// Time is the query's accept time.
	Time time.Time `json:"time"`
	// DurationMs is the accept-to-finish latency in milliseconds.
	DurationMs float64 `json:"duration_ms"`
	// Proto is the listener transport.
	Proto string `json:"proto"`
	// QName and QType identify the query.
	QName string `json:"qname"`
	QType uint16 `json:"qtype"`
	// Verdict, Cache and Upstream are the transaction's outcome labels
	// (Upstream is the record's Server).
	Verdict  string `json:"verdict"`
	Cache    string `json:"cache,omitempty"`
	Upstream string `json:"upstream,omitempty"`
	// Spans are the phase intervals, in recording order.
	Spans []SpanView `json:"spans"`
}

// viewOf renders a record.
func viewOf(r *Record) View {
	v := View{
		Time:       r.Start,
		DurationMs: float64(r.Latency) / float64(time.Millisecond),
		Proto:      r.Proto,
		QName:      r.QName(),
		QType:      r.QType,
		Verdict:    r.Verdict,
		Cache:      r.Cache,
		Upstream:   r.Server,
		Spans:      make([]SpanView, 0, r.nspans),
	}
	for _, sp := range r.Spans() {
		v.Spans = append(v.Spans, SpanView{
			Phase:   sp.Phase.String(),
			StartMs: float64(sp.Start) / float64(time.Millisecond),
			DurMs:   float64(sp.Dur) / float64(time.Millisecond),
		})
	}
	return v
}

// Traces returns the kept traces matching f, newest first. Nil-safe.
func (t *Tracer) Traces(f Filter) []View {
	if t == nil {
		return nil
	}
	if f.Limit <= 0 {
		f.Limit = 100
	}
	var out []View
	for i := range t.shards {
		sh := &t.shards[i]
		for j := range sh.slots {
			s := &sh.slots[j]
			s.mu.Lock()
			if s.full && matches(&s.rec, f) {
				out = append(out, viewOf(&s.rec))
			}
			s.mu.Unlock()
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Time.After(out[b].Time) })
	if len(out) > f.Limit {
		out = out[:f.Limit]
	}
	return out
}

// matches applies a filter to a record.
func matches(r *Record, f Filter) bool {
	if f.Verdict != "" && r.Verdict != f.Verdict {
		return false
	}
	if f.Upstream != "" && r.Server != f.Upstream {
		return false
	}
	return r.Latency >= f.MinDur
}
