// Package telemetry is the per-query cost accounting subsystem: the
// production counterpart of the paper's offline measurements. Where the
// study instruments its clients to report bytes, packets and latency per
// resolution, this package threads a Transaction record through the whole
// serving path — server accept, cache consultation, singleflight
// coalescing, pool checkout, upstream exchange (bytes both ways, TC→TCP
// retries) and final verdict — and aggregates the records into lock-free
// sharded counters and log-linear latency histograms.
//
// The design goals, in order:
//
//   - Zero interference with the hot path. All aggregation is
//     shard-striped atomic adds; there is no lock anywhere, and a nil
//     *Metrics (telemetry disabled) degrades every call to a nil-receiver
//     no-op, so instrumented packages never branch on "is telemetry on".
//   - Quantiles without sorting. Latency histograms are log-linear
//     (16 sub-buckets per power of two), so p50/p95/p99 come from a bucket
//     scan with bounded ~6% relative error and constant memory.
//   - Two consumers: machines scrape Snapshot via the Prometheus text
//     exposition (WritePrometheus) or a JSON report, and embedders can
//     register a per-transaction Listener — the DNSSummary idiom from
//     outline-go-tun2socks — to read each completed query's qtrace.Record,
//     the same record the tracer samples.
//
// Instrumented packages obtain the Transaction with FromContext; servers
// create it with Metrics.Begin and install it in the QueryContext of the
// slot the query's slow step runs in (NewContext where there is none). Because
// dnscache detaches upstream exchanges from client cancellation with
// context.WithoutCancel (which preserves values), annotations made deep in
// the pool and transport layers land on the right record.
package telemetry

import (
	"time"

	"dohcost/internal/dnswire"
	"dohcost/internal/qtrace"
)

// Proto identifies the listener transport that carried a query into the
// server — the paper's comparison axis. The zero value is ProtoTCP so that
// a zero-configured StreamServer labels itself correctly.
type Proto uint8

// The transports the study compares.
const (
	// ProtoTCP is classic DNS over TCP (RFC 1035 §4.2.2 framing).
	ProtoTCP Proto = iota
	// ProtoUDP is classic DNS over UDP datagrams.
	ProtoUDP
	// ProtoDoT is DNS-over-TLS (RFC 7858).
	ProtoDoT
	// ProtoDoH is DNS-over-HTTPS (RFC 8484).
	ProtoDoH

	numProtos
)

// String returns the lower-case label used in metrics ("udp", "tcp",
// "dot", "doh").
func (p Proto) String() string {
	switch p {
	case ProtoUDP:
		return "udp"
	case ProtoTCP:
		return "tcp"
	case ProtoDoT:
		return "dot"
	case ProtoDoH:
		return "doh"
	}
	return "unknown"
}

// DialFamily labels the address family of one socket dial attempt — the
// Happy-Eyeballs dialer's comparison axis. DialFamilyUnknown covers dials
// whose family the recording layer cannot see (the pool's resolver-level
// backoff refusals).
type DialFamily uint8

// Dial attempt address families.
const (
	// DialFamilyUnknown is a dial whose address family is not visible to
	// the recording layer.
	DialFamilyUnknown DialFamily = iota
	// DialFamilyV4 is an IPv4 dial attempt.
	DialFamilyV4
	// DialFamilyV6 is an IPv6 dial attempt.
	DialFamilyV6

	numDialFamilies
)

// String returns the metrics label for the family ("v4", "v6", "unknown").
func (f DialFamily) String() string {
	switch f {
	case DialFamilyV4:
		return "v4"
	case DialFamilyV6:
		return "v6"
	}
	return "unknown"
}

// DialOutcome classifies one dial attempt for the dials_total counters.
type DialOutcome uint8

// Dial attempt outcomes.
const (
	// DialOK is an attempt that established a connection.
	DialOK DialOutcome = iota
	// DialError is an attempt that failed (refused, reset, timed out).
	DialError
	// DialBackoff is a pool checkout refused locally because the slot was
	// still in redial backoff — no socket was dialed.
	DialBackoff

	numDialOutcomes
)

// String returns the metrics label for the outcome ("ok", "error",
// "backoff").
func (o DialOutcome) String() string {
	switch o {
	case DialOK:
		return "ok"
	case DialError:
		return "error"
	}
	return "backoff"
}

// CacheOutcome classifies what the cache did with a query.
type CacheOutcome uint8

// Cache outcomes, in the order a query can experience them.
const (
	// CacheNone means no cache was consulted (no cache in the pipeline).
	CacheNone CacheOutcome = iota
	// CacheHit is a fresh positive answer served from memory.
	CacheHit
	// CacheNegativeHit is a cached NXDOMAIN/NODATA answer (RFC 2308).
	CacheNegativeHit
	// CacheStaleHit is an expired-but-stale answer served from memory while
	// a background refresh re-populates the entry (RFC 8767 serve-stale).
	CacheStaleHit
	// CacheMiss led this query upstream as the singleflight leader.
	CacheMiss
	// CacheCoalesced joined another query's in-flight upstream exchange.
	CacheCoalesced
	// CacheBypass is an uncacheable shape (multi-question, ANY) passed
	// straight through.
	CacheBypass

	numCacheOutcomes
)

// String returns the metrics label for the outcome.
func (o CacheOutcome) String() string {
	switch o {
	case CacheHit:
		return "hit"
	case CacheNegativeHit:
		return "negative_hit"
	case CacheStaleHit:
		return "stale_hit"
	case CacheMiss:
		return "miss"
	case CacheCoalesced:
		return "coalesced"
	case CacheBypass:
		return "bypass"
	}
	return "none"
}

// Verdict is the final fate of a query as the client saw it.
type Verdict uint8

// Verdicts.
const (
	// VerdictNone means the transaction never reached a response (should
	// not happen on complete pipelines; kept for accounting honesty).
	VerdictNone Verdict = iota
	// VerdictOK is a handler-produced response (any RCode the upstream
	// chose, including NXDOMAIN).
	VerdictOK
	// VerdictServFail is a synthesized SERVFAIL from a handler error.
	VerdictServFail
	// VerdictCanceled is a query abandoned by its client (context ended
	// before the handler finished).
	VerdictCanceled

	numVerdicts
)

// String returns the metrics label for the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictOK:
		return "ok"
	case VerdictServFail:
		return "servfail"
	case VerdictCanceled:
		return "canceled"
	}
	return "none"
}

// Transaction is one query's cost record, created at server accept and
// finished when the response (or failure) leaves. It is written by exactly
// one goroutine at a time — the serving goroutine, and during a cache miss
// the singleflight leader, which is the same goroutine — so its fields
// need no synchronization; only Finish publishes into the shared Metrics.
//
// All methods are nil-receiver safe: a pipeline without telemetry passes
// nil Transactions around at the cost of a pointer test per call site.
type Transaction struct {
	m     *Metrics
	sh    *shard
	proto Proto

	cache      CacheOutcome
	verdict    Verdict
	background bool
	finished   bool
	// traced is set at Begin when a tracer is installed on the Metrics:
	// only then do the Trace* methods read the clock and fill rec's qname
	// and spans, and Finish offers rec to the tracer's tail sampler.
	traced bool
	// client is the abuse guard's key for the query's client, when the
	// server set one (SetClient, hasClient): it rides the record the server
	// already carries in the query's context instead of a context layer of
	// its own. The flags pack ahead of it, so the Transaction is 640 B.
	hasClient bool
	client    uint64

	// rec is the query's one record: start, upstream, bytes, retries,
	// qname and spans as they are annotated, labels and latency at Finish,
	// when the tracer and the Listener read it.
	rec qtrace.Record
}

// Listener receives each completed transaction's record. Implementations
// must be fast and safe for concurrent use: they run inline on serving
// goroutines. The record is valid only for the duration of the call —
// the Transaction holding it is recycled after — so a listener that keeps
// it copies the value.
type Listener interface {
	OnTransaction(*qtrace.Record)
}

// ListenerFunc adapts a function to Listener.
type ListenerFunc func(*qtrace.Record)

// OnTransaction implements Listener.
func (f ListenerFunc) OnTransaction(r *qtrace.Record) { f(r) }

// SetClient records the abuse guard's key for the query's client, for the
// stages behind the server that attribute work to it (guard.KeyFromContext).
func (t *Transaction) SetClient(key uint64) {
	if t != nil {
		t.client, t.hasClient = key, true
	}
}

// Client returns the key SetClient recorded, if any.
func (t *Transaction) Client() (key uint64, ok bool) {
	if t == nil {
		return 0, false
	}
	return t.client, t.hasClient
}

// SetCache records the cache's treatment of the query.
func (t *Transaction) SetCache(o CacheOutcome) {
	if t != nil {
		t.cache = o
	}
}

// SetVerdict records the query's final fate.
func (t *Transaction) SetVerdict(v Verdict) {
	if t != nil {
		t.verdict = v
	}
}

// PoolDial counts one fresh upstream connection established for this query
// (initial fill or redial after a failure).
func (t *Transaction) PoolDial() {
	if t != nil {
		t.sh.poolDials.Add(1)
	}
}

// PoolFailure counts one failed upstream attempt — a dial error or a
// broken exchange — before any failover.
func (t *Transaction) PoolFailure() {
	if t != nil {
		t.sh.poolFailures.Add(1)
	}
}

// PoolBackoff counts one pool connection checkout refused locally because
// the slot was still in redial backoff. Counted apart from PoolFailure
// (nothing touched the network) and mirrored into the
// dials_total{family="unknown",outcome="backoff"} ledger.
func (t *Transaction) PoolBackoff() {
	if t != nil {
		t.sh.poolBackoffs.Add(1)
		t.sh.dials[DialFamilyUnknown][DialBackoff].Add(1)
	}
}

// ObserveUpstream records a successful upstream exchange: which upstream
// answered and how long the exchange took (pool checkout excluded).
func (t *Transaction) ObserveUpstream(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.rec.Server = name
	t.sh.poolExchanges.Add(1)
	t.sh.upstreamLatency.observe(d)
}

// AttributeUpstream records which upstream's answer was returned without
// charging any exchange counter or latency sample — for layers whose
// wire-level accounting happened on another Transaction, like the hedged
// steering policy, whose racing legs each carry their own background
// record.
func (t *Transaction) AttributeUpstream(name string) {
	if t != nil {
		t.rec.Server = name
	}
}

// Metrics returns the sink this Transaction reports to (nil for a nil
// Transaction), so a layer holding only the query's record can open
// sibling background records against the same sink.
func (t *Transaction) Metrics() *Metrics {
	if t == nil {
		return nil
	}
	return t.m
}

// AddBytesSent charges n message bytes sent toward an upstream (per
// attempt, so UDP retransmissions count each time).
func (t *Transaction) AddBytesSent(n int) {
	if t != nil && n > 0 {
		t.rec.BytesSent += n
		t.sh.bytesSent.Add(uint64(n))
	}
}

// AddBytesReceived charges n message bytes received from an upstream.
func (t *Transaction) AddBytesReceived(n int) {
	if t != nil && n > 0 {
		t.rec.BytesReceived += n
		t.sh.bytesRecv.Add(uint64(n))
	}
}

// HedgeFired counts one hedge exchange launched for this query: the
// steering layer gave up waiting on its first pick and raced a second
// upstream for the answer.
func (t *Transaction) HedgeFired() {
	if t != nil {
		t.sh.hedgesFired.Add(1)
	}
}

// HedgeWon marks the hedge exchange — not the primary — as the one whose
// answer was returned to the client. The hedges_won/hedges_fired ratio is
// the live usefulness of the hedging policy.
func (t *Transaction) HedgeWon() {
	if t != nil {
		t.sh.hedgesWon.Add(1)
	}
}

// TCFallback marks the exchange as retried over TCP after a truncated UDP
// answer (RFC 7766 §5) — the overhead mode Figure 3's ≤512-byte cliff is
// about.
func (t *Transaction) TCFallback() {
	if t != nil {
		t.rec.TCFallback = true
		t.sh.tcFallbacks.Add(1)
	}
}

// UDPRetransmit counts one UDP query attempt re-sent after a per-attempt
// timeout. On impaired links this is how datagram loss becomes visible in
// the aggregate: each retransmission is a drop the client recovered from.
func (t *Transaction) UDPRetransmit() {
	if t != nil {
		t.rec.UDPRetransmits++
		t.sh.udpRetransmits.Add(1)
	}
}

// Traced reports whether this transaction records its qname and spans —
// the cheap test instrumentation points use to skip clock reads entirely
// when tracing is off.
func (t *Transaction) Traced() bool {
	return t != nil && t.traced
}

// TraceStart returns the current time when the transaction is traced and
// the zero time otherwise, so call sites pay for a clock read only on
// traced queries:
//
//	t0 := tx.TraceStart()
//	... phase work ...
//	tx.TraceSpan(qtrace.PhaseCache, t0)
func (t *Transaction) TraceStart() time.Time {
	if !t.Traced() {
		return time.Time{}
	}
	return time.Now()
}

// TraceSpan records a phase interval from t0 to now on the trace. A zero
// t0 (from TraceStart on an untraced transaction) is a no-op, so the
// TraceStart/TraceSpan pair needs no branching at the call site.
func (t *Transaction) TraceSpan(p qtrace.Phase, t0 time.Time) {
	if !t.Traced() || t0.IsZero() {
		return
	}
	t.rec.AddSpan(p, t0.Sub(t.rec.Start), time.Since(t0))
}

// TraceSpanBetween records a phase interval with an explicit end — for
// work timed before the transaction existed (guard checks and parsing run
// before Begin; their offsets come out slightly negative) or shared
// intervals like the batched-UDP flush.
func (t *Transaction) TraceSpanBetween(p qtrace.Phase, t0, end time.Time) {
	if !t.Traced() || t0.IsZero() {
		return
	}
	t.rec.AddSpan(p, t0.Sub(t.rec.Start), end.Sub(t0))
}

// TraceQuery stamps the record with the wire fast path's parsed query
// identity. The canonical name is rendered into a stack buffer the size of
// the record's, so the traced wire path stays allocation-free.
func (t *Transaction) TraceQuery(q *dnswire.Query) {
	if !t.Traced() {
		return
	}
	var buf [qtrace.MaxQName]byte
	t.rec.SetQName(q.AppendCanonicalName(buf[:0]), uint16(q.Type))
}

// TraceQueryName stamps the record with a query identity already in
// presentation form (the Message path's question name).
func (t *Transaction) TraceQueryName(name string, qtype uint16) {
	if !t.Traced() {
		return
	}
	t.rec.SetQName([]byte(name), qtype)
}

// Finish closes the record: the accept-to-now latency lands in the proto's
// histogram, every counter the transaction accumulated becomes visible in
// snapshots, the tracer (if any) samples the record, and the Listener (if
// any) reads it. Finish must be called exactly once per Begin, and the
// Transaction must not be used afterwards — it goes back to a pool for the
// next query.
func (t *Transaction) Finish() {
	if t == nil || t.finished {
		return
	}
	t.finished = true
	if t.background {
		// Background work (cache refreshes) annotated its resource
		// counters as it went; it is not a client query, so no query,
		// verdict, cache event, latency sample, trace or Listener call.
		txPool.Put(t)
		return
	}
	r := &t.rec
	r.Latency = time.Since(r.Start)
	r.Proto = t.proto.String()
	r.Verdict = t.verdict.String()
	r.Cache = t.cache.String()
	if t.traced {
		// The tracer may have been removed since Begin; a nil Tracer's
		// Offer does nothing.
		t.m.tracer.Load().Offer(r)
	}
	sh := t.sh
	sh.queries[t.proto].Add(1)
	sh.verdicts[t.verdict].Add(1)
	sh.cacheEvents[t.cache].Add(1)
	sh.latency[t.proto].observe(r.Latency)
	if l := t.m.listener.Load(); l != nil {
		l.l.OnTransaction(r)
	}
	txPool.Put(t)
}
