package telemetry

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dohcost/internal/qtrace"
)

// shard is one stripe of the aggregate state. Transactions are spread
// round-robin across shards at Begin, so under load each core tends to
// write a different shard and counter updates never rendezvous on one
// cache line — the same trick the sharded cache plays with its locks,
// done here with no locks at all.
type shard struct {
	queries     [numProtos]atomic.Uint64
	verdicts    [numVerdicts]atomic.Uint64
	cacheEvents [numCacheOutcomes]atomic.Uint64

	poolDials      atomic.Uint64
	poolExchanges  atomic.Uint64
	poolFailures   atomic.Uint64
	poolBackoffs   atomic.Uint64
	hedgesFired    atomic.Uint64
	hedgesWon      atomic.Uint64
	tcFallbacks    atomic.Uint64
	udpRetransmits atomic.Uint64
	bytesSent      atomic.Uint64
	bytesRecv      atomic.Uint64

	// Dial-layer ledger: socket dial attempts by family × outcome (the
	// Happy-Eyeballs dialer records v4/v6 attempts; the pool mirrors its
	// backoff refusals under family "unknown"), race wins by family, and
	// per-family attempt latency.
	dials    [numDialFamilies][numDialOutcomes]atomic.Uint64
	dialWins [numDialFamilies]atomic.Uint64

	// The histograms dominate the shard's footprint (and pad the small
	// counter block above away from the next shard's).
	latency         [numProtos]histogram
	upstreamLatency histogram
	dialLatency     [numDialFamilies]histogram
}

// Metrics is the aggregation sink for Transactions. One Metrics instance
// covers one serving deployment (a proxy); create it with New, hand it to
// the servers, and read it with Snapshot. All methods are safe for
// concurrent use, and a nil *Metrics is a valid "telemetry off" sink.
type Metrics struct {
	shards   []*shard
	cursor   atomic.Uint64
	listener atomic.Pointer[listenerBox]
	tracer   atomic.Pointer[qtrace.Tracer]
}

// listenerBox keeps atomic.Pointer to one concrete type regardless of the
// Listener implementation stored.
type listenerBox struct{ l Listener }

// Option configures New.
type Option func(*Metrics)

// withShards overrides the shard count (tests).
func withShards(n int) Option {
	return func(m *Metrics) { m.shards = make([]*shard, nextPow2(n)) }
}

// New builds a Metrics with one shard per CPU (rounded up to a power of
// two, capped at 64).
func New(opts ...Option) *Metrics {
	m := &Metrics{}
	for _, o := range opts {
		o(m)
	}
	if m.shards == nil {
		n := runtime.GOMAXPROCS(0)
		if n > 64 {
			n = 64
		}
		m.shards = make([]*shard, nextPow2(n))
	}
	for i := range m.shards {
		m.shards[i] = new(shard)
	}
	return m
}

// nextPow2 rounds n up to a power of two, minimum 1.
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// SetListener installs (or, with nil, removes) the per-transaction
// callback. Safe to call while serving.
func (m *Metrics) SetListener(l Listener) {
	if m == nil {
		return
	}
	if l == nil {
		m.listener.Store(nil)
		return
	}
	m.listener.Store(&listenerBox{l: l})
}

// SetTracer installs (or, with nil, removes) the per-query lifecycle
// tracer: while installed, every Transaction begun records its qname and
// phase spans, and its Finish offers the record to the tracer's tail
// sampler. Safe to call while serving.
func (m *Metrics) SetTracer(tr *qtrace.Tracer) {
	if m == nil {
		return
	}
	m.tracer.Store(tr)
}

// Tracer returns the installed lifecycle tracer, or nil. Nil-safe.
func (m *Metrics) Tracer() *qtrace.Tracer {
	if m == nil {
		return nil
	}
	return m.tracer.Load()
}

// Tracing reports whether a lifecycle tracer is installed — the cheap
// gate servers use to decide whether pre-Begin work (guard checks,
// parsing) is worth timestamping at all.
func (m *Metrics) Tracing() bool {
	return m != nil && m.tracer.Load() != nil
}

// txPool recycles Transaction records. Beyond saving the allocation, the
// pool is what makes the shard striping effective: sync.Pool is
// per-P-local, so a serving goroutine tends to get back a record it (or a
// neighbour on the same core) finished, carrying a shard whose counter
// cache lines are already resident on that core. Round-robin assignment
// only seeds records the pool has never seen.
var txPool = sync.Pool{New: func() any { return new(Transaction) }}

// Begin opens a Transaction for a query arriving over proto. On a nil
// Metrics it returns a nil Transaction, whose every method is a no-op.
// Each Transaction must be finished exactly once and not touched after
// Finish: the record is recycled.
func (m *Metrics) Begin(proto Proto) *Transaction {
	if m == nil {
		return nil
	}
	tx := txPool.Get().(*Transaction)
	sh := tx.sh
	if sh == nil || tx.m != m {
		sh = m.shards[m.cursor.Add(1)&uint64(len(m.shards)-1)]
	}
	*tx = Transaction{m: m, sh: sh, proto: proto, traced: m.tracer.Load() != nil}
	tx.rec.Start = time.Now()
	return tx
}

// BeginBackground opens a Transaction for internal background work — the
// cache's serve-stale and prefetch refreshes. Resource annotations (pool
// dials, failures, exchanges, upstream latency, bytes) land in the
// aggregate counters exactly as for client queries, so the upstream cost
// the resilience features generate stays visible in /metrics; Finish,
// however, records no query, verdict, cache event or latency sample and
// calls neither the tracer nor a Listener — background work is not a
// client query, so it records no spans either.
func (m *Metrics) BeginBackground() *Transaction {
	tx := m.Begin(ProtoUDP) // proto is irrelevant: a background Finish records none
	if tx != nil {
		tx.background, tx.traced = true, false
	}
	return tx
}

// pick returns a shard for Metrics-level (not per-Transaction) counters,
// round-robin like Begin so concurrent shard readers don't rendezvous on
// one cache line.
func (m *Metrics) pick() *shard {
	return m.shards[m.cursor.Add(1)&uint64(len(m.shards)-1)]
}

// ObserveDial records one socket dial attempt: its address family, its
// outcome, and its duration (which lands in the per-family dial latency
// distribution). The Happy-Eyeballs dialer is the primary writer; any
// layer that dials sockets directly may record here too.
func (m *Metrics) ObserveDial(fam DialFamily, outcome DialOutcome, d time.Duration) {
	if m == nil {
		return
	}
	if fam >= numDialFamilies {
		fam = DialFamilyUnknown
	}
	if outcome >= numDialOutcomes {
		outcome = DialError
	}
	sh := m.pick()
	sh.dials[fam][outcome].Add(1)
	sh.dialLatency[fam].observe(d)
}

// DialWin records which family's attempt won a Happy-Eyeballs dial race
// (or was the sole attempt that established the connection).
func (m *Metrics) DialWin(fam DialFamily) {
	if m == nil {
		return
	}
	if fam >= numDialFamilies {
		fam = DialFamilyUnknown
	}
	m.pick().dialWins[fam].Add(1)
}

// ctxKey is the context key for the Transaction.
type ctxKey struct{}

// NewContext returns ctx carrying tx; instrumented layers downstream
// retrieve it with FromContext. A nil tx returns ctx unchanged.
func NewContext(ctx context.Context, tx *Transaction) context.Context {
	if tx == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, tx)
}

// QueryContext is a context that carries one query's Transaction at a time:
// a serving slot keeps one for its whole life, over a parent that outlives
// the slot (a connection's context, or a server's), and Sets each query's
// transaction for the length of its step — so handing a query its context
// allocates nothing, where NewContext costs a layer per query. A context
// derived from it is valid only until the step returns: the next query's
// Set changes what it carries. Between steps it carries nil. Deadline, Done
// and Err are the parent's, so a context derived from it is cancelled with
// the parent without a goroutine of its own.
type QueryContext struct {
	context.Context // the parent, fixed for the QueryContext's life
	tx              *Transaction
}

// Set installs tx as the transaction the context carries; nil clears it.
func (c *QueryContext) Set(tx *Transaction) { c.tx = tx }

// Value implements context.Context: the transaction Set installed, for
// FromContext, and the parent's values otherwise.
func (c *QueryContext) Value(key any) any {
	if key == (ctxKey{}) {
		return c.tx
	}
	return c.Context.Value(key)
}

// FromContext returns the Transaction carried by ctx, or nil — which is a
// fully usable no-op Transaction — when there is none.
func FromContext(ctx context.Context) *Transaction {
	tx, _ := ctx.Value(ctxKey{}).(*Transaction)
	return tx
}

// Snapshot merges every shard into one coherent view. Counters are read
// with atomic loads, so a snapshot taken under load is a consistent-enough
// scrape (individual counters are exact; cross-counter skew is bounded by
// in-flight transactions). A nil Metrics yields an empty snapshot.
func (m *Metrics) Snapshot() *Snapshot {
	s := &Snapshot{
		Queries:         map[string]uint64{},
		Verdicts:        map[string]uint64{},
		CacheEvents:     map[string]uint64{},
		Latency:         map[string]*Distribution{},
		UpstreamLatency: &Distribution{},
	}
	if m == nil {
		return s
	}
	var latency [numProtos]Distribution
	var latCount, latSum [numProtos]uint64
	var upCount, upSum uint64
	var dialLat [numDialFamilies]Distribution
	var dialCount, dialSum [numDialFamilies]uint64
	var dials [numDialFamilies][numDialOutcomes]uint64
	var dialWins [numDialFamilies]uint64
	for _, sh := range m.shards {
		for p := Proto(0); p < numProtos; p++ {
			s.Queries[p.String()] += sh.queries[p].Load()
			c, sum := latency[p].merge(&sh.latency[p])
			latCount[p] += c
			latSum[p] += sum
		}
		for v := Verdict(0); v < numVerdicts; v++ {
			s.Verdicts[v.String()] += sh.verdicts[v].Load()
		}
		for o := CacheOutcome(0); o < numCacheOutcomes; o++ {
			s.CacheEvents[o.String()] += sh.cacheEvents[o].Load()
		}
		s.PoolDials += sh.poolDials.Load()
		s.PoolExchanges += sh.poolExchanges.Load()
		s.PoolFailures += sh.poolFailures.Load()
		s.PoolBackoffs += sh.poolBackoffs.Load()
		for f := DialFamily(0); f < numDialFamilies; f++ {
			for o := DialOutcome(0); o < numDialOutcomes; o++ {
				dials[f][o] += sh.dials[f][o].Load()
			}
			dialWins[f] += sh.dialWins[f].Load()
			c, sum := dialLat[f].merge(&sh.dialLatency[f])
			dialCount[f] += c
			dialSum[f] += sum
		}
		s.HedgesFired += sh.hedgesFired.Load()
		s.HedgesWon += sh.hedgesWon.Load()
		s.TCFallbacks += sh.tcFallbacks.Load()
		s.UDPRetransmits += sh.udpRetransmits.Load()
		s.UpstreamBytesSent += sh.bytesSent.Load()
		s.UpstreamBytesReceived += sh.bytesRecv.Load()
		c, sum := s.UpstreamLatency.merge(&sh.upstreamLatency)
		upCount += c
		upSum += sum
	}
	// Drop zero-valued labels so scrapes and JSON stay readable; a proxy
	// without DoT traffic should not advertise a dot series.
	for k, v := range s.Queries {
		if v == 0 {
			delete(s.Queries, k)
		}
	}
	for k, v := range s.Verdicts {
		if v == 0 {
			delete(s.Verdicts, k)
		}
	}
	for k, v := range s.CacheEvents {
		if v == 0 {
			delete(s.CacheEvents, k)
		}
	}
	for p := Proto(0); p < numProtos; p++ {
		if latCount[p] == 0 {
			continue
		}
		latency[p].finalize(latCount[p], latSum[p])
		d := latency[p]
		s.Latency[p.String()] = &d
	}
	s.UpstreamLatency.finalize(upCount, upSum)
	for f := DialFamily(0); f < numDialFamilies; f++ {
		for o := DialOutcome(0); o < numDialOutcomes; o++ {
			if dials[f][o] == 0 {
				continue
			}
			if s.Dials == nil {
				s.Dials = map[string]map[string]uint64{}
			}
			if s.Dials[f.String()] == nil {
				s.Dials[f.String()] = map[string]uint64{}
			}
			s.Dials[f.String()][o.String()] = dials[f][o]
		}
		if dialWins[f] > 0 {
			if s.DialWins == nil {
				s.DialWins = map[string]uint64{}
			}
			s.DialWins[f.String()] = dialWins[f]
		}
		if dialCount[f] > 0 {
			dialLat[f].finalize(dialCount[f], dialSum[f])
			d := dialLat[f]
			if s.DialLatency == nil {
				s.DialLatency = map[string]*Distribution{}
			}
			s.DialLatency[f.String()] = &d
		}
	}
	return s
}

// Snapshot is a merged view of a Metrics at one instant, shaped for the
// /debug/cost JSON report; WritePrometheus renders the same data in the
// Prometheus text exposition.
type Snapshot struct {
	// Queries counts completed transactions by listener transport.
	Queries map[string]uint64 `json:"queries_total"`
	// Verdicts counts final fates ("ok", "servfail", "canceled").
	Verdicts map[string]uint64 `json:"verdicts_total"`
	// CacheEvents counts cache outcomes ("hit", "negative_hit", "miss",
	// "coalesced", "bypass"; "none" when no cache was in the path).
	CacheEvents map[string]uint64 `json:"cache_events_total"`
	// PoolDials counts fresh upstream connections established.
	PoolDials uint64 `json:"pool_dials_total"`
	// PoolExchanges counts successful upstream exchanges.
	PoolExchanges uint64 `json:"pool_exchanges_total"`
	// PoolFailures counts failed upstream attempts (dial errors, broken
	// exchanges) before failover; PoolBackoffs counts checkouts refused
	// locally in redial backoff, kept apart so /debug/cost does not read
	// a resting upstream as a failing one.
	PoolFailures uint64 `json:"pool_failures_total"`
	PoolBackoffs uint64 `json:"pool_backoffs_total"`
	// Dials is the dial-layer ledger: family ("v4", "v6", "unknown") →
	// outcome ("ok", "error", "backoff") → attempts. DialWins counts
	// Happy-Eyeballs race wins per family, and DialLatency holds the
	// per-family attempt duration distributions.
	Dials       map[string]map[string]uint64 `json:"dials_total,omitempty"`
	DialWins    map[string]uint64            `json:"dial_wins_total,omitempty"`
	DialLatency map[string]*Distribution     `json:"dial_latency,omitempty"`
	// HedgesFired counts hedge exchanges launched by the steering layer;
	// HedgesWon counts the ones whose answer beat the primary back.
	HedgesFired uint64 `json:"hedges_fired_total"`
	HedgesWon   uint64 `json:"hedges_won_total"`
	// TCFallbacks counts truncated UDP answers retried over TCP.
	TCFallbacks uint64 `json:"udp_tc_tcp_retries_total"`
	// UDPRetransmits counts UDP query attempts re-sent after a per-attempt
	// timeout — the client-visible face of datagram loss on the path.
	UDPRetransmits uint64 `json:"udp_retransmits_total"`
	// UpstreamBytesSent / UpstreamBytesReceived are upstream message
	// bytes, the paper's Figure 3 axis.
	UpstreamBytesSent     uint64 `json:"upstream_bytes_sent_total"`
	UpstreamBytesReceived uint64 `json:"upstream_bytes_received_total"`
	// Latency holds the accept-to-response distribution per transport.
	Latency map[string]*Distribution `json:"query_latency"`
	// UpstreamLatency is the upstream-exchange distribution (cache misses
	// only, checkout excluded).
	UpstreamLatency *Distribution `json:"upstream_latency"`
}
