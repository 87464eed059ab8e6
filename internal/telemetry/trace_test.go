package telemetry

import (
	"strings"
	"testing"
	"time"

	"dohcost/internal/dnswire"
	"dohcost/internal/qtrace"
)

// TestTransactionTraceLifecycle walks a traced transaction end to end:
// Begin attaches a record, the Trace* helpers fill spans and identity,
// and Finish stamps the outcome labels and offers it to the sampler.
func TestTransactionTraceLifecycle(t *testing.T) {
	m := New()
	tr := qtrace.New(qtrace.Config{SampleEvery: 1})
	m.SetTracer(tr)
	if !m.Tracing() || m.Tracer() != tr {
		t.Fatal("tracer not installed")
	}

	tx := m.Begin(ProtoDoT)
	if !tx.Traced() {
		t.Fatal("transaction not traced with tracer installed")
	}
	t0 := tx.TraceStart()
	if t0.IsZero() {
		t.Fatal("TraceStart returned zero time on a traced transaction")
	}
	tx.TraceSpan(qtrace.PhaseCache, t0)
	tx.TraceSpanBetween(qtrace.PhaseUpstream, t0, t0.Add(3*time.Millisecond))
	q, ok := dnswire.ParseQuery(packQuery(t, "traced.example."))
	if !ok {
		t.Fatal("fast parse failed")
	}
	tx.TraceQuery(&q)
	tx.AttributeUpstream("up0")
	tx.SetCache(CacheMiss)
	tx.SetVerdict(VerdictServFail)
	tx.Finish()

	views := tr.Traces(qtrace.Filter{})
	if len(views) != 1 {
		t.Fatalf("sampler kept %d traces, want 1", len(views))
	}
	v := views[0]
	if v.QName != "traced.example." || v.QType != uint16(dnswire.TypeA) {
		t.Errorf("identity = %q/%d", v.QName, v.QType)
	}
	if v.Proto != "dot" || v.Verdict != "servfail" || v.Cache != "miss" || v.Upstream != "up0" {
		t.Errorf("labels = %s/%s/%s/%s", v.Proto, v.Verdict, v.Cache, v.Upstream)
	}
	if len(v.Spans) != 2 || v.Spans[0].Phase != "cache" || v.Spans[1].Phase != "upstream" || v.Spans[1].DurMs != 3 {
		t.Errorf("spans = %+v", v.Spans)
	}
	if st := tr.Stats(); st.KeptErrored != 1 {
		t.Errorf("servfail trace not kept as errored: %+v", st)
	}
}

// packQuery renders one A query's wire bytes.
func packQuery(t *testing.T, name dnswire.Name) []byte {
	t.Helper()
	wire, err := dnswire.NewQuery(0x7777, name, dnswire.TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// TestBackgroundTransactionsUntraced: background refreshes are not client
// queries; they must not consume trace records or show up in the rings.
func TestBackgroundTransactionsUntraced(t *testing.T) {
	m := New()
	tr := qtrace.New(qtrace.Config{SampleEvery: 1})
	m.SetTracer(tr)
	tx := m.BeginBackground()
	if tx.Traced() {
		t.Fatal("background transaction carries a trace")
	}
	if !tx.TraceStart().IsZero() {
		t.Fatal("TraceStart on background tx should be the zero no-op")
	}
	tx.SetVerdict(VerdictOK)
	tx.Finish()
	if st := tr.Stats(); st.Offered != 0 {
		t.Errorf("background finish reached the sampler: %+v", st)
	}
}

// TestUntracedHelpersNoop: with no tracer installed, every Trace helper is
// an inert nil test — including on a nil transaction.
func TestUntracedHelpersNoop(t *testing.T) {
	m := New()
	tx := m.Begin(ProtoUDP)
	if tx.Traced() || !tx.TraceStart().IsZero() {
		t.Fatal("transaction traced without a tracer")
	}
	tx.TraceSpan(qtrace.PhaseCache, time.Now())
	tx.TraceQueryName("x.example.", 1)
	tx.SetVerdict(VerdictOK)
	tx.Finish()

	var nilTx *Transaction
	if nilTx.Traced() || !nilTx.TraceStart().IsZero() {
		t.Fatal("nil transaction claims tracing")
	}
	nilTx.TraceSpan(qtrace.PhaseCache, time.Now())
	nilTx.TraceSpanBetween(qtrace.PhaseCache, time.Now(), time.Now())
	nilTx.TraceQueryName("x.example.", 1)
}

// TestTracedPathAllocFree pins the tentpole's zero-allocation contract:
// a fully traced wire-hit-shaped transaction — record acquire, parse span,
// qname capture, cache span, finish, sampler offer with baseline sampling
// active — allocates nothing in steady state, and every query it ran
// reached the tail sampler.
func TestTracedPathAllocFree(t *testing.T) {
	m := New()
	tr := qtrace.New(qtrace.Config{SampleEvery: 16})
	defer tr.Close()
	m.SetTracer(tr)
	wire := packQuery(t, "alloc.example.")
	runs := 0
	hit := func() { tracedWireHit(m, wire); runs++ }
	// Warm the pools (first transactions and records allocate once).
	for i := 0; i < 100; i++ {
		hit()
	}
	if avg := testing.AllocsPerRun(1000, hit); avg != 0 {
		t.Errorf("traced wire-hit path allocates %.2f/op, want 0", avg)
	}
	if st := tr.Stats(); st.Offered != uint64(runs) {
		t.Errorf("tracer offered %d records for %d queries", st.Offered, runs)
	}
}

// TestTraceQueryNameAllocFree: stamping a presentation-form name (the
// Message path's question) into the record allocates nothing, even past
// the 32 bytes a non-escaping conversion can hold on the stack, and the
// record keeps the name.
func TestTraceQueryNameAllocFree(t *testing.T) {
	m := New()
	tr := qtrace.New(qtrace.Config{SampleEvery: 1})
	m.SetTracer(tr)
	name := strings.Repeat("a", 60) + ".example."
	query := func() {
		tx := m.Begin(ProtoTCP)
		tx.TraceQueryName(name, uint16(dnswire.TypeAAAA))
		tx.SetVerdict(VerdictOK)
		tx.Finish()
	}
	for i := 0; i < 100; i++ {
		query()
	}
	if avg := testing.AllocsPerRun(1000, query); avg != 0 {
		t.Errorf("TraceQueryName allocates %.2f/query, want 0", avg)
	}
	if v := tr.Traces(qtrace.Filter{Limit: 1}); len(v) != 1 || v[0].QName != name || v[0].QType != uint16(dnswire.TypeAAAA) {
		t.Errorf("newest trace = %+v, want %s AAAA", v, name)
	}
}

// tracedWireHit mirrors the UDP server's traced fast path shape.
func tracedWireHit(m *Metrics, wire []byte) {
	tParse := time.Now()
	q, ok := dnswire.ParseQuery(wire)
	if !ok {
		panic("fast parse failed")
	}
	tx := m.Begin(ProtoUDP)
	if tx.Traced() {
		tx.TraceSpanBetween(qtrace.PhaseParse, tParse, time.Now())
		tx.TraceQuery(&q)
	}
	tc := tx.TraceStart()
	tx.TraceSpan(qtrace.PhaseCache, tc)
	tw := tx.TraceStart()
	tx.TraceSpan(qtrace.PhaseWrite, tw)
	tx.SetCache(CacheHit)
	tx.SetVerdict(VerdictOK)
	tx.Finish()
}
