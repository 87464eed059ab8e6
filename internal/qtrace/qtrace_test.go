package qtrace

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// offerRec builds and offers one record with the given outcome (any
// verdict but "ok" is a failure). start is an arbitrary fixed base time
// plus seq, so newest-first ordering in the rings is deterministic.
func offerRec(t *Tracer, seq int, dur time.Duration, verdict, cache, upstream string) {
	r := Record{
		Start:   time.Unix(1700000000, 0).Add(time.Duration(seq) * time.Millisecond),
		Latency: dur,
		Proto:   "udp",
		Verdict: verdict,
		Cache:   cache,
		Server:  upstream,
	}
	r.SetQName([]byte("q.example."), 1)
	r.AddSpan(PhaseParse, 0, time.Microsecond)
	t.Offer(&r)
}

// TestTailSamplerNeverDropsErroredOrSlow is the sampler's property test:
// across a random interleaving of fast, slow and errored offers, every
// errored offer and every over-threshold offer is counted kept — the
// tail-based sampling contract — while the ring has capacity to receive
// them without slot contention.
func TestTailSamplerNeverDropsErroredOrSlow(t *testing.T) {
	tr := New(Config{capacity: 4096, SampleEvery: -1, SlowFloor: 10 * time.Millisecond})
	rng := rand.New(rand.NewSource(7))
	var errored, slow uint64
	for i := 0; i < 1000; i++ {
		switch rng.Intn(3) {
		case 0: // healthy and fast: under every possible threshold
			offerRec(tr, i, time.Millisecond, "ok", "hit", "")
		case 1: // slow: 1s stays >= the adaptive estimate, which approaches
			// it from below and never reaches it
			offerRec(tr, i, time.Second, "ok", "", "up0")
			slow++
		case 2: // errored: kept regardless of duration
			offerRec(tr, i, time.Millisecond, "servfail", "", "up0")
			errored++
		}
	}
	st := tr.Stats()
	if st.Offered != 1000 {
		t.Fatalf("offered = %d, want 1000", st.Offered)
	}
	if st.KeptErrored != errored {
		t.Errorf("kept errored = %d, want %d (errored traces must never be dropped)", st.KeptErrored, errored)
	}
	if st.KeptSlow != slow {
		t.Errorf("kept slow = %d, want %d (over-threshold traces must never be dropped)", st.KeptSlow, slow)
	}
	if st.KeptBaseline != 0 {
		t.Errorf("kept baseline = %d, want 0 with baseline disabled", st.KeptBaseline)
	}
	// Single-goroutine offers can never contend a slot: everything counted
	// kept is really in the rings.
	if st.RingDropped != 0 {
		t.Errorf("ring dropped = %d, want 0", st.RingDropped)
	}
	kept := tr.Traces(Filter{Limit: 1 << 20})
	if got, want := uint64(len(kept)), min64(errored+slow, 4096); got != want {
		t.Errorf("rings hold %d traces, want %d", got, want)
	}
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// TestBaselineSampling pins the 1-in-N healthy baseline.
func TestBaselineSampling(t *testing.T) {
	tr := New(Config{SampleEvery: 4, SlowFloor: time.Hour})
	for i := 0; i < 100; i++ {
		offerRec(tr, i, time.Millisecond, "ok", "hit", "")
	}
	st := tr.Stats()
	if st.KeptBaseline != 25 {
		t.Errorf("kept baseline = %d, want 25 of 100 at 1-in-4", st.KeptBaseline)
	}
	if st.KeptErrored != 0 || st.KeptSlow != 0 {
		t.Errorf("unexpected errored/slow keeps: %+v", st)
	}
}

// TestAdaptiveThresholdTracksTail feeds a steady 100ms population and
// checks the class threshold climbs above the floor toward the stream —
// the adaptation that keeps "slow" meaningful on a slow population.
func TestAdaptiveThresholdTracksTail(t *testing.T) {
	tr := New(Config{SlowFloor: 10 * time.Millisecond, SampleEvery: -1})
	for i := 0; i < 200; i++ {
		offerRec(tr, i, 100*time.Millisecond, "ok", "hit", "")
	}
	st := tr.Stats()
	got := st.SlowThresholdMs["cache"]
	if got <= 10 {
		t.Errorf("cache threshold = %.2fms, want > 10ms after a 100ms stream", got)
	}
	if up := st.SlowThresholdMs["upstream"]; up != 10 {
		t.Errorf("upstream threshold = %.2fms, want untouched 10ms (classes adapt independently)", up)
	}
}

// TestTracesFilter exercises every Filter field against a mixed ring.
func TestTracesFilter(t *testing.T) {
	tr := New(Config{SampleEvery: -1})
	offerRec(tr, 0, time.Second, "servfail", "", "up0")
	offerRec(tr, 1, 2*time.Second, "canceled", "", "up1")
	offerRec(tr, 2, 3*time.Second, "ok", "", "up0")
	for name, tc := range map[string]struct {
		f    Filter
		want int
	}{
		"all":          {Filter{}, 3},
		"verdict":      {Filter{Verdict: "servfail"}, 1},
		"upstream":     {Filter{Upstream: "up0"}, 2},
		"min-dur":      {Filter{MinDur: 1500 * time.Millisecond}, 2},
		"limit":        {Filter{Limit: 2}, 2},
		"combined":     {Filter{Upstream: "up0", MinDur: 2 * time.Second}, 1},
		"match-none":   {Filter{Verdict: "ok", Upstream: "up1"}, 0},
		"limit-excess": {Filter{Limit: 50}, 3},
	} {
		if got := len(tr.Traces(tc.f)); got != tc.want {
			t.Errorf("%s: %d traces, want %d", name, got, tc.want)
		}
	}
	// Newest first: the seq-2 record has the latest start.
	views := tr.Traces(Filter{})
	if len(views) != 3 || views[0].Upstream != "up0" || views[0].DurationMs != 3000 {
		t.Errorf("newest-first order violated: %+v", views)
	}
}

// TestRingWrapKeepsNewest overflows a tiny ring and checks the survivors
// are the most recent keeps.
func TestRingWrapKeepsNewest(t *testing.T) {
	tr := New(Config{capacity: 16, SampleEvery: -1})
	for i := 0; i < 100; i++ {
		offerRec(tr, i, time.Millisecond, "servfail", "", "up0")
	}
	views := tr.Traces(Filter{Limit: 1 << 20})
	if len(views) != 16 {
		t.Fatalf("ring holds %d, want capacity 16", len(views))
	}
	oldest := time.Unix(1700000000, 0).Add(time.Duration(100-16) * time.Millisecond)
	for _, v := range views {
		if v.Time.Before(oldest) {
			t.Errorf("ring kept %v, older than the newest 16 offers (wrap must overwrite oldest)", v.Time)
		}
	}
}

// TestViewSpansAndQName checks the record→View rendering: spans carry
// phase labels and millisecond offsets (negative pre-accept offsets
// included), and the inline qname round-trips.
func TestViewSpansAndQName(t *testing.T) {
	tr := New(Config{SampleEvery: -1})
	r := Record{Start: time.Unix(1700000000, 0), Latency: 6 * time.Millisecond, Proto: "doh", Verdict: "servfail"}
	r.SetQName([]byte("spans.example."), 28)
	r.AddSpan(PhaseGuard, -50*time.Microsecond, 30*time.Microsecond)
	r.AddSpan(PhaseParse, -20*time.Microsecond, 20*time.Microsecond)
	r.AddSpan(PhaseUpstream, time.Millisecond, 4*time.Millisecond)
	tr.Offer(&r)

	views := tr.Traces(Filter{})
	if len(views) != 1 {
		t.Fatalf("traces = %d, want 1", len(views))
	}
	v := views[0]
	if v.QName != "spans.example." || v.QType != 28 || v.Proto != "doh" {
		t.Errorf("identity = %q/%d/%s", v.QName, v.QType, v.Proto)
	}
	if len(v.Spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(v.Spans))
	}
	if v.Spans[0].Phase != "guard" || v.Spans[0].StartMs >= 0 {
		t.Errorf("span 0 = %+v, want pre-accept guard span with negative offset", v.Spans[0])
	}
	if v.Spans[2].Phase != "upstream" || v.Spans[2].DurMs != 4 {
		t.Errorf("span 2 = %+v", v.Spans[2])
	}
}

// TestSpanOverflowDropped pins the fixed-size contract: spans past
// MaxSpans are dropped, never grown.
func TestSpanOverflowDropped(t *testing.T) {
	var r Record
	for i := 0; i < MaxSpans+10; i++ {
		r.AddSpan(PhaseCache, 0, time.Microsecond)
	}
	if got := len(r.Spans()); got != MaxSpans {
		t.Errorf("spans = %d, want capped at %d", got, MaxSpans)
	}
}

// TestQNameTruncation: over-long names truncate at MaxQName instead of
// corrupting the fixed buffer, and a shorter name replaces a longer one.
func TestQNameTruncation(t *testing.T) {
	long := strings.Repeat("a", 2*MaxQName)
	var r Record
	r.SetQName([]byte(long), 1)
	if got := r.QName(); len(got) != MaxQName || got != long[:MaxQName] {
		t.Errorf("SetQName: len %d, want %d", len(got), MaxQName)
	}
	r.SetQName([]byte("short.example."), 28)
	if r.QName() != "short.example." || r.QType != 28 {
		t.Errorf("SetQName over a longer name = %q/%d", r.QName(), r.QType)
	}
}

// TestSlowLogLine checks the console digest: one line per slow query with
// the phase breakdown appended.
func TestSlowLogLine(t *testing.T) {
	var buf bytes.Buffer
	tr := New(Config{SlowFloor: 10 * time.Millisecond, SlowLog: &buf, SampleEvery: -1})
	r := Record{Start: time.Unix(1700000000, 0), Latency: 50 * time.Millisecond, Proto: "udp", Verdict: "ok", Server: "up0"}
	r.SetQName([]byte("slow.example."), 1)
	r.AddSpan(PhaseUpstream, time.Millisecond, 40*time.Millisecond)
	tr.Offer(&r)

	line := buf.String()
	for _, want := range []string{"slow-query", "udp", "slow.example.", "verdict=ok", "upstream=up0", "total=50.0ms", "upstream=40.0ms"} {
		if !strings.Contains(line, want) {
			t.Errorf("slow line %q missing %q", line, want)
		}
	}
	if strings.Count(line, "\n") != 1 {
		t.Errorf("want exactly one line, got %q", line)
	}
}

// TestQueryLogWritesAndRotates drives the JSONL log over its size cap and
// checks the rotation contract: old records land in <path>.1, the live
// file starts fresh, and every line is a parseable record.
func TestQueryLogWritesAndRotates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	ql, err := OpenQueryLog(path, 2048)
	if err != nil {
		t.Fatal(err)
	}
	tr := New(Config{SampleEvery: -1, Log: ql})
	for i := 0; i < 64; i++ {
		offerRec(tr, i, time.Second, "ok", "", "up0") // slow → kept → logged
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if st := tr.Stats(); st.LogDropped != 0 {
		t.Fatalf("log dropped %d writes", st.LogDropped)
	}

	// Rotation is single-level (<path>.1 replaces the previous rotation),
	// so the surviving footprint is the last rotated file plus the live
	// one — both bounded by the cap, every line a parseable record.
	rotated, err := os.ReadFile(path + ".1")
	if err != nil {
		t.Fatalf("no rotated file: %v", err)
	}
	live, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rotated) == 0 || int64(len(rotated)) > 2048 {
		t.Errorf("rotated file %d bytes, want in (0, 2048]", len(rotated))
	}
	if int64(len(live)) > 2048 {
		t.Errorf("live file %d bytes, want <= cap 2048", len(live))
	}
	lines := 0
	for _, chunk := range [][]byte{rotated, live} {
		for _, line := range bytes.Split(bytes.TrimSpace(chunk), []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			lines++
			var rec struct {
				QName      string  `json:"qname"`
				DurationMs float64 `json:"duration_ms"`
				Spans      []struct {
					Phase string `json:"phase"`
				} `json:"spans"`
			}
			if err := json.Unmarshal(line, &rec); err != nil {
				t.Fatalf("bad JSONL line %q: %v", line, err)
			}
			if rec.QName != "q.example." || rec.DurationMs != 1000 || len(rec.Spans) != 1 {
				t.Fatalf("record = %+v", rec)
			}
		}
	}
	if lines == 0 {
		t.Error("no surviving JSONL records after rotation")
	}

	// Writes after Close are reported, not lost silently.
	offerRec(tr, 99, time.Second, "ok", "", "up0")
	if st := tr.Stats(); st.LogDropped != 1 {
		t.Errorf("post-close log write not counted dropped: %+v", st)
	}
}

// TestNilTracerSafe: a nil *Tracer is the documented "tracing off" value
// for every method.
func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	tr.Offer(new(Record))
	tr.Offer(nil)
	if err := tr.Close(); err != nil {
		t.Error(err)
	}
	if got := tr.Traces(Filter{}); got != nil {
		t.Errorf("nil tracer Traces = %v", got)
	}
	if st := tr.Stats(); st.Offered != 0 {
		t.Errorf("nil tracer Stats = %+v", st)
	}
}

// TestConcurrentOfferAndScrape is the package's own -race workout:
// concurrent offerers (mixed outcomes) against a scraping reader.
func TestConcurrentOfferAndScrape(t *testing.T) {
	tr := New(Config{capacity: 64, SampleEvery: 2})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			tr.Traces(Filter{})
			tr.Stats()
		}
	}()
	var workers [4]chan struct{}
	for w := range workers {
		ch := make(chan struct{})
		workers[w] = ch
		go func(w int) {
			defer close(ch)
			for i := 0; i < 500; i++ {
				verdict := "ok"
				if i%7 == 0 {
					verdict = "servfail"
				}
				offerRec(tr, w*1000+i, time.Duration(i)*time.Microsecond, verdict, "hit", "")
			}
		}(w)
	}
	for _, ch := range workers {
		<-ch
	}
	<-done
	if st := tr.Stats(); st.Offered != 2000 {
		t.Errorf("offered = %d, want 2000", st.Offered)
	}
}

// goldenTraces is /debug/trace's JSON for goldenRecord, captured before
// the trace record, the listener's summary and the query log's schema
// became one Record: the rendering must not move.
const goldenTraces = `[{"time":"2023-11-14T22:13:20.123456789Z","duration_ms":6.125,"proto":"doh","qname":"golden.example.","qtype":28,"verdict":"servfail","cache":"miss","upstream":"up0","spans":[{"phase":"guard","start_ms":-0.05,"duration_ms":0.03},{"phase":"cache","start_ms":0.01,"duration_ms":0.0025},{"phase":"upstream","start_ms":1,"duration_ms":4.25}]}]`

// goldenRecord is one failed DoH miss with a pre-accept guard span.
func goldenRecord() Record {
	r := Record{
		Start:   time.Date(2023, 11, 14, 22, 13, 20, 123456789, time.UTC),
		Latency: 6125 * time.Microsecond,
		Proto:   "doh",
		Verdict: "servfail",
		Cache:   "miss",
		Server:  "up0",
	}
	r.SetQName([]byte("golden.example."), 28)
	r.AddSpan(PhaseGuard, -50*time.Microsecond, 30*time.Microsecond)
	r.AddSpan(PhaseCache, 10*time.Microsecond, 2500*time.Nanosecond)
	r.AddSpan(PhaseUpstream, time.Millisecond, 4250*time.Microsecond)
	return r
}

// TestOneRendering pins the record's one JSON rendering: /debug/trace's
// Traces marshal to the golden byte for byte, and the query log's line is
// the same object, View's keys in View's order.
func TestOneRendering(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.jsonl")
	ql, err := OpenQueryLog(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := New(Config{SampleEvery: -1, Log: ql})
	r := goldenRecord()
	tr.Offer(&r)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := json.Marshal(tr.Traces(Filter{}))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != goldenTraces {
		t.Errorf("/debug/trace JSON moved:\n got %s\nwant %s", got, goldenTraces)
	}
	line, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := goldenTraces[1:len(goldenTraces)-1] + "\n"; string(line) != want {
		t.Errorf("query log line is not the trace's View:\n got %s\nwant %s", line, want)
	}
}
