// Package qtrace is the per-query lifecycle tracer: the layer that turns
// "p99 spiked" into "these queries spent their time in that phase". The
// aggregate telemetry (histograms, counters) says how much the population
// paid; qtrace keeps whole individual queries — each annotated with
// monotonic phase spans (parse, guard, cache lookup, admission, steering,
// hedge legs, pool dial, upstream exchange, response write) — so the tail
// can be explained query by query, the per-phase attribution the source
// paper performs offline done live in the serving path.
//
// The design is built around two constraints:
//
//   - The untraced path must cost one flag test per instrumentation point,
//     and the traced fast path must stay allocation-free: the Record is
//     fixed-size — inline span array, inline qname buffer — and lives by
//     value in the query's telemetry Transaction, so tracing allocates
//     nothing of its own.
//   - Keeping everything is pointless and keeping a uniform sample misses
//     the tail, so the keep decision is made at Finish (tail-based
//     sampling): errored queries are always kept, queries slower than an
//     adaptive per-class threshold (an EWMA-tracked p99 estimate) are
//     always kept, and a 1-in-N baseline keeps the healthy population
//     represented. Kept records land in sharded rings whose writers never
//     block (a contended slot is skipped, not waited on).
//
// Record is the one per-query record: the transaction writes it, the
// telemetry Listener reads it, and the tracer copies the ones it keeps.
// Consumers read the rings through Tracer.Traces (the /debug/trace JSON),
// stream kept records to a rotating JSONL query log (QueryLog) in the same
// View rendering, or get a one-line console digest per slow query
// (Config.SlowLog).
package qtrace

import "time"

// Phase identifies one stage of a query's life inside the proxy. Spans are
// recorded against these phases; their order here is the canonical
// pipeline order.
type Phase uint8

// The traced pipeline phases.
const (
	// PhaseParse is wire-format query parsing (fast-path probe or full
	// message decode).
	PhaseParse Phase = iota
	// PhaseGuard is the abuse guard's admission decision (per-packet rate
	// limit, stream check, or the miss-flood breaker).
	PhaseGuard
	// PhaseCache is the cache consultation: lookup, and on a hit the
	// in-place response build.
	PhaseCache
	// PhaseAdmit is cache admission after a miss: entry build, admission
	// filter, insert, evictions.
	PhaseAdmit
	// PhaseSteer is the steering layer's upstream ranking decision.
	PhaseSteer
	// PhaseHedgeLeg is one racing exchange launched by the hedged policy
	// (a query can carry one span per leg).
	PhaseHedgeLeg
	// PhaseDial is a fresh upstream connection dialed for this query.
	PhaseDial
	// PhaseUpstream is the upstream exchange itself (request out to answer
	// in, connection checkout excluded).
	PhaseUpstream
	// PhaseWrite is the response write back toward the client (for the
	// batched UDP path, the shared batch flush).
	PhaseWrite

	numPhases
)

// String returns the phase's label as used in /debug/trace and the query
// log.
func (p Phase) String() string {
	switch p {
	case PhaseParse:
		return "parse"
	case PhaseGuard:
		return "guard"
	case PhaseCache:
		return "cache"
	case PhaseAdmit:
		return "admit"
	case PhaseSteer:
		return "steer"
	case PhaseHedgeLeg:
		return "hedge_leg"
	case PhaseDial:
		return "dial"
	case PhaseUpstream:
		return "upstream"
	case PhaseWrite:
		return "write"
	}
	return "unknown"
}

// MaxSpans is the per-record span capacity. Records are fixed-size so the
// traced path never allocates; a query that somehow exceeds the capacity
// drops further spans rather than growing.
const MaxSpans = 16

// MaxQName is the inline qname buffer size. Presentation-form names longer
// than this (rare — the DNS ceiling is 255 octets but real names are far
// shorter) are truncated in the trace, never in the answer.
const MaxQName = 96

// Span is one recorded phase interval, stored as offsets from the record's
// Start so a Record is position-independent. Start may be slightly
// negative: pre-accept work (guard check, parse) runs before the
// transaction clock starts.
type Span struct {
	// Phase is what the interval covers.
	Phase Phase
	// Start is the offset of the interval's beginning from Record.Start.
	Start time.Duration
	// Dur is the interval's length.
	Dur time.Duration
}

// Record is one query's record — the DNSSummary of outline-go-tun2socks
// with the phase spans added: identity, outcome, upstream bytes and
// latency. The telemetry Transaction holds it by value and writes it from
// one goroutine at a time; at Finish the tracer copies it into a ring slot
// if the sampler keeps it, and the Listener reads it in place. The qname
// and spans are filled only while a tracer is installed.
type Record struct {
	// Start is when the server accepted the query.
	Start time.Time
	// Latency is the accept-to-response duration.
	Latency time.Duration
	// Proto is the listener transport ("udp", "tcp", "dot", "doh").
	Proto string
	// Verdict is "ok", "servfail" or "canceled" ("none" for a query that
	// never reached a response); any other than "ok" is a failure the
	// sampler always keeps.
	Verdict string
	// Cache is the cache outcome label ("hit", "miss", …, or "none").
	Cache string
	// Server names the upstream that answered; empty when the answer came
	// from cache (or the query failed before reaching an upstream).
	Server string
	// BytesSent and BytesReceived are the upstream exchange's message
	// bytes (zero for cache hits).
	BytesSent, BytesReceived int
	// UDPRetransmits counts query attempts re-sent after per-attempt
	// timeouts within this transaction.
	UDPRetransmits int
	// QType is the query type code.
	QType uint16
	// TCFallback reports a UDP answer that arrived truncated and was
	// retried over TCP (RFC 7766 §5).
	TCFallback bool

	qnameLen uint8
	nspans   uint8
	qname    [MaxQName]byte
	spans    [MaxSpans]Span
}

// AddSpan appends one phase interval (offset start, length dur). Spans
// beyond MaxSpans are dropped.
func (r *Record) AddSpan(p Phase, start, dur time.Duration) {
	if int(r.nspans) >= MaxSpans {
		return
	}
	r.spans[r.nspans] = Span{Phase: p, Start: start, Dur: dur}
	r.nspans++
}

// Spans returns the recorded intervals, in recording order. The slice
// aliases the record's inline array.
func (r *Record) Spans() []Span {
	return r.spans[:r.nspans]
}

// SetQName stores the presentation-form query name and type; names over
// MaxQName bytes are truncated. The copy is allocation-free.
func (r *Record) SetQName(name []byte, qtype uint16) {
	r.qnameLen = uint8(copy(r.qname[:], name))
	r.QType = qtype
}

// QName returns the stored query name. The returned string allocates; it
// is meant for view building, not the hot path.
func (r *Record) QName() string {
	return string(r.qname[:r.qnameLen])
}

// failed reports a query whose verdict was not OK.
func (r *Record) failed() bool { return r.Verdict != "ok" }
