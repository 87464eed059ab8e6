// Package steer is the adaptive upstream-steering layer between the
// forwarding proxy and the connection pool: it decides *which* upstream
// answers each query, using a live per-upstream latency and health model
// instead of the pool's static preference order.
//
// The paper's central finding is that DoH cost is dominated by resolver
// choice and network conditions, not by the transport itself — and Hounsel
// et al. show resolver choice swings tail latency more than the
// DoH-vs-Do53 decision. Production resolvers therefore steer: they rank
// upstreams by smoothed RTT, hedge slow exchanges, and keep probing
// demoted upstreams so a recovered one can win traffic back. This package
// is that closed loop, fed by the same per-exchange outcomes the
// telemetry subsystem records.
//
// Three policies are provided:
//
//   - PolicyFailover preserves the pre-steering behaviour: the pool's
//     static order with health-based failover. The Steerer still scores
//     every exchange, so /debug/cost shows the model the other policies
//     would act on.
//   - PolicyFastest sends each query to the upstream with the lowest
//     effective score (EWMA SRTT inflated by failure rate), with periodic
//     exploration probes to non-best upstreams so scores never go stale.
//   - PolicyHedged sends to the best upstream and, if no answer arrives
//     within the hedge delay (configured, or derived per query from the
//     primary's SRTT + 4·RTTVAR — roughly its live p95), fires the same
//     query at the runner-up; the first answer wins and the loser's
//     exchange is cancelled.
//
// The Steerer is a dnstransport.Resolver and WireResolver, so it slots
// between the cache and the pool without either knowing; queries pass
// through it as the packed bytes the pool's clients send.
package steer

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"dohcost/internal/dnstransport"
	"dohcost/internal/dnswire"
	"dohcost/internal/qtrace"
	"dohcost/internal/telemetry"
)

// Policy selects how the steerer spreads queries over the pool's
// upstreams.
type Policy uint8

// The steering policies.
const (
	// PolicyFailover is the pool's native behaviour: static preference
	// order with health-based failover.
	PolicyFailover Policy = iota
	// PolicyFastest routes each query to the lowest-scored upstream, with
	// periodic exploration probes keeping every score live.
	PolicyFastest
	// PolicyHedged races a delayed second exchange against the primary;
	// the first answer wins and the loser is cancelled.
	PolicyHedged
)

// String returns the flag/metrics label for the policy.
func (p Policy) String() string {
	switch p {
	case PolicyFastest:
		return "fastest"
	case PolicyHedged:
		return "hedged"
	}
	return "failover"
}

// ParsePolicy maps a policy name ("failover", "fastest", "hedged") to its
// Policy; the empty string is PolicyFailover, matching a zero Config.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "failover":
		return PolicyFailover, nil
	case "fastest":
		return PolicyFastest, nil
	case "hedged":
		return PolicyHedged, nil
	}
	return PolicyFailover, fmt.Errorf("steer: unknown policy %q (want failover, fastest or hedged)", s)
}

// Valid reports whether p is one of the declared policies.
func (p Policy) Valid() bool { return p <= PolicyHedged }

// MarshalText implements encoding.TextMarshaler, so flags print and JSON
// echoes the policy by name.
func (p Policy) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler over ParsePolicy, which
// is how flag.TextVar rejects a misspelt -policy at parse time.
func (p *Policy) UnmarshalText(text []byte) error {
	v, err := ParsePolicy(string(text))
	if err != nil {
		return err
	}
	*p = v
	return nil
}

// Backend is the upstream capability the steerer drives. dnstransport.Pool
// implements it; tests substitute scripted fakes.
type Backend interface {
	// ExchangeWire is the backend's native (failover-ordered) exchange,
	// appending the reply to dst as dnstransport.WireResolver does.
	ExchangeWire(ctx context.Context, query, dst []byte) ([]byte, error)
	// ExchangeUpstreamWire aims one exchange at upstream i, no failover.
	ExchangeUpstreamWire(ctx context.Context, i int, query, dst []byte) ([]byte, error)
	// NumUpstreams reports the upstream count; UpstreamName names them in
	// preference order; UpstreamHealthy reports backoff state.
	NumUpstreams() int
	UpstreamName(i int) string
	UpstreamHealthy(i int) bool
	// SetExchangeObserver installs the per-attempt outcome callback the
	// steerer scores from.
	SetExchangeObserver(dnstransport.ExchangeObserver)
	// Close releases the backend.
	Close() error
}

// Config tunes a Steerer. The zero value is PolicyFailover with default
// knobs.
type Config struct {
	// Policy selects the steering behaviour.
	Policy Policy
	// HedgeDelay is how long PolicyHedged waits before firing the second
	// exchange. Zero derives the delay per query from the primary's live
	// latency model — SRTT + 4·RTTVAR, the TCP RTO formula, which sits
	// near the attempt distribution's p95 — clamped to
	// [MinHedgeDelay, MaxHedgeDelay] (DefaultHedgeDelay while the primary
	// is unsampled).
	HedgeDelay time.Duration
	// exploreEvery is PolicyFastest's exploration cadence: every Nth query
	// is routed to a non-best upstream, rotating through the runners-up,
	// so a demoted upstream keeps producing fresh samples and can win
	// traffic back after it recovers. Zero means DefaultExploreEvery;
	// negative disables exploration (tests pin the ranking with it).
	exploreEvery int
}

// Steering timing defaults.
const (
	// DefaultExploreEvery is PolicyFastest's exploration cadence: one probe
	// per 16 queries.
	DefaultExploreEvery = 16
	// DefaultHedgeDelay is the adaptive hedge delay before the primary has
	// any samples.
	DefaultHedgeDelay = 25 * time.Millisecond
	// MinHedgeDelay and MaxHedgeDelay clamp the adaptive hedge delay.
	MinHedgeDelay = time.Millisecond
	MaxHedgeDelay = 2 * time.Second
)

// Steerer routes queries over a Backend's upstreams according to a Policy,
// scoring every exchange attempt (its own and anything else the backend
// carries) through the backend's ExchangeObserver. It implements
// dnstransport.Resolver. Safe for concurrent use.
type Steerer struct {
	backend Backend
	cfg     Config
	scores  []*score
	byName  map[string]int
	n       atomic.Uint64 // query counter driving the exploration cadence
}

// New wraps backend with a steering layer and installs the scorer as the
// backend's exchange observer (every policy's traffic feeds the model, so
// switching policies at deploy time starts from live scores, and
// PolicyFailover deployments still expose the model in their cost report).
func New(backend Backend, cfg Config) *Steerer {
	if cfg.exploreEvery == 0 {
		cfg.exploreEvery = DefaultExploreEvery
	}
	n := backend.NumUpstreams()
	s := &Steerer{
		backend: backend,
		cfg:     cfg,
		scores:  make([]*score, n),
		byName:  make(map[string]int, n),
	}
	for i := 0; i < n; i++ {
		s.scores[i] = &score{}
		s.byName[backend.UpstreamName(i)] = i
	}
	backend.SetExchangeObserver(s.observe)
	return s
}

// observe feeds one exchange attempt into the upstream's score. Attempts
// that died with the caller's cancellation are ignored: a hedge loser
// cancelled because its rival answered first says nothing about the
// upstream it was aimed at.
func (s *Steerer) observe(name string, d time.Duration, err error) {
	if err != nil && errors.Is(err, context.Canceled) {
		return
	}
	if i, ok := s.byName[name]; ok {
		s.scores[i].observe(d, err == nil)
	}
}

// Seed primes upstream name's model with one synthetic observation — a
// bootstrap probe's verdict, typically — and is a no-op once the upstream
// has real samples or when the name is unknown. ok=false plants d (the
// probe timeout) as the RTT with a zero success rate, ranking the
// upstream behind every healthy one from the first query; ok=true plants
// the probe's measured RTT as a normal first sample.
func (s *Steerer) Seed(name string, d time.Duration, ok bool) {
	if i, known := s.byName[name]; known {
		s.scores[i].seed(d, ok)
	}
}

// Close implements Resolver: the backend (and its pooled connections) is
// released.
func (s *Steerer) Close() error { return s.backend.Close() }

// Exchange implements Resolver over ExchangeWire.
func (s *Steerer) Exchange(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	return dnstransport.ExchangeMessage(ctx, s, q)
}

// ExchangeWire implements WireResolver, dispatching on the configured
// policy.
func (s *Steerer) ExchangeWire(ctx context.Context, query, dst []byte) ([]byte, error) {
	switch s.cfg.Policy {
	case PolicyFastest:
		return s.exchangeFastest(ctx, query, dst)
	case PolicyHedged:
		return s.exchangeHedged(ctx, query, dst)
	}
	return s.backend.ExchangeWire(ctx, query, dst)
}

// rank orders upstream indices by effective score, best first. Unhealthy
// upstreams (pool backoff) sort after every healthy one regardless of
// latency; unsampled upstreams score zero and therefore sort first among
// the healthy — which is what seeds the model on a cold start.
func (s *Steerer) rank() []int {
	n := len(s.scores)
	order := make([]int, n)
	costs := make([]float64, n)
	for i := 0; i < n; i++ {
		order[i] = i
		costs[i] = s.scores[i].cost()
		if !s.backend.UpstreamHealthy(i) {
			costs[i] += downPenalty
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return costs[order[a]] < costs[order[b]] })
	return order
}

// downPenalty pushes upstreams in failure backoff behind every healthy
// one while preserving their relative latency order.
const downPenalty = float64(24 * time.Hour)

// exchangeFastest routes to the best-ranked upstream, falling through the
// ranking on failure. Every DefaultExploreEvery-th query instead probes
// one of the runners-up (rotating, so each gets refreshed in turn).
func (s *Steerer) exchangeFastest(ctx context.Context, query, dst []byte) ([]byte, error) {
	tx := telemetry.FromContext(ctx)
	ts := tx.TraceStart()
	order := s.rank()
	if ee := s.cfg.exploreEvery; ee > 0 && len(order) > 1 {
		if n := s.n.Add(1); n%uint64(ee) == 0 {
			// Rotate the probed upstream to the front rather than swapping:
			// the rest keep their rank order, so a failed probe falls back
			// to the actual best, not to whichever runner-up inherited the
			// probe's slot.
			pick := 1 + int((n/uint64(ee))%uint64(len(order)-1))
			probed := order[pick]
			copy(order[1:pick+1], order[:pick])
			order[0] = probed
		}
	}
	tx.TraceSpan(qtrace.PhaseSteer, ts)
	var lastErr error
	for _, i := range order {
		if err := ctx.Err(); err != nil {
			if lastErr == nil {
				lastErr = err
			}
			break
		}
		resp, err := s.backend.ExchangeUpstreamWire(ctx, i, query, dst)
		if err == nil {
			return resp, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// exchangeHedged sends to the best-ranked upstream and races the runner-up
// after the hedge delay (or immediately, when the primary fails outright
// first). The first answer wins; the deferred cancel reaps the loser, and
// the pool's cancellation-neutral accounting keeps the loser's upstream
// unblamed. With both legs failed, the remaining ranked upstreams are
// tried in order, preserving the pool's never-give-up-silently property.
//
// The racing legs must not share the caller's telemetry Transaction — it
// is single-goroutine property that is recycled after the response
// leaves, and the losing leg can still be mid-exchange then. Each leg
// instead carries its own background Transaction against the same sink:
// dials, failures, bytes and exchange latency land in the aggregate
// counters with exactly the measurement windows the other policies use,
// and the caller's record is only attributed the winning upstream's name
// (plus the hedge counters), never written from a leg goroutine. For the
// same reason each leg answers into a buffer of its own, never dst: the
// winner's reply is copied into dst here, and a loser still mid-exchange
// writes only into its own.
func (s *Steerer) exchangeHedged(ctx context.Context, query, dst []byte) ([]byte, error) {
	tx := telemetry.FromContext(ctx)
	ts := tx.TraceStart()
	order := s.rank()
	tx.TraceSpan(qtrace.PhaseSteer, ts)
	if len(order) == 1 {
		return s.backend.ExchangeUpstreamWire(ctx, order[0], query, dst)
	}
	// The caller may recycle ctx, query and dst the moment this call
	// returns, and the losing leg can still be using them then: the legs run
	// under a context of their own — ctx's deadline, none of its values —
	// share a copy of the query and answer into buffers of their own.
	hctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if d, ok := ctx.Deadline(); ok {
		var stop context.CancelFunc
		hctx, stop = context.WithDeadline(hctx, d)
		defer stop()
	}
	query = append([]byte(nil), query...)

	type outcome struct {
		resp  []byte
		err   error
		hedge bool
	}
	results := make(chan outcome, 2)
	// Leg launch times live on the serving goroutine: each leg's
	// PhaseHedgeLeg span is recorded on the caller's trace when its
	// outcome arrives here, never from a leg goroutine (the caller's
	// record is single-goroutine property, like its counters).
	var legStart [2]time.Time
	launch := func(up int, hedge bool) {
		if tx.Traced() {
			idx := 0
			if hedge {
				idx = 1
			}
			legStart[idx] = time.Now()
		}
		legTx := tx.Metrics().BeginBackground()
		legCtx := telemetry.NewContext(hctx, legTx)
		go func() {
			resp, err := s.backend.ExchangeUpstreamWire(legCtx, up, query, nil)
			legTx.Finish()
			results <- outcome{resp, err, hedge}
		}()
	}
	launch(order[0], false)
	start := time.Now()
	timer := time.NewTimer(s.hedgeDelay(order[0]))
	defer timer.Stop()

	hedged, primaryFailed := false, false
	pending := 1
	var firstErr error
	fireHedge := func() {
		hedged = true
		pending++
		tx.HedgeFired()
		launch(order[1], true)
	}
	for {
		select {
		case <-timer.C:
			if !hedged {
				fireHedge()
			}
		case out := <-results:
			if tx.Traced() {
				idx := 0
				if out.hedge {
					idx = 1
				}
				tx.TraceSpanBetween(qtrace.PhaseHedgeLeg, legStart[idx], time.Now())
			}
			if out.err == nil {
				win := order[0]
				if out.hedge {
					win = order[1]
					tx.HedgeWon()
					if !primaryFailed {
						// The cancelled primary produces no sample of its
						// own (cancellations are ignored by the scorer), so
						// an always-losing primary would stay at cost zero
						// and hog the top rank forever. Charge it a
						// censored sample instead: its true RTT is at least
						// the time that had elapsed when its rival's answer
						// arrived. A primary that FAILED was already scored
						// as a failure and earns no such success sample.
						s.scores[order[0]].observe(time.Since(start), true)
					}
				}
				tx.AttributeUpstream(s.backend.UpstreamName(win))
				return append(dst, out.resp...), nil
			}
			pending--
			if firstErr == nil {
				firstErr = out.err
			}
			if !out.hedge {
				primaryFailed = true
			}
			if ctx.Err() != nil {
				return nil, firstErr
			}
			if !hedged {
				// The primary failed before the delay elapsed: there is no
				// point waiting out the timer, fire the hedge now.
				fireHedge()
			} else if pending == 0 {
				return s.exchangeRest(ctx, order[2:], query, dst, firstErr)
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// exchangeRest walks the post-hedge remainder of the ranking; firstErr is
// returned when nothing answers.
func (s *Steerer) exchangeRest(ctx context.Context, order []int, query, dst []byte, firstErr error) ([]byte, error) {
	for _, i := range order {
		if ctx.Err() != nil {
			break
		}
		if resp, err := s.backend.ExchangeUpstreamWire(ctx, i, query, dst); err == nil {
			return resp, nil
		}
	}
	return nil, firstErr
}

// hedgeDelay resolves the wait before the second exchange: the configured
// fixed delay, or the primary's SRTT + 4·RTTVAR clamped to the default
// window (DefaultHedgeDelay while unsampled).
func (s *Steerer) hedgeDelay(primary int) time.Duration {
	if s.cfg.HedgeDelay > 0 {
		return s.cfg.HedgeDelay
	}
	d := s.scores[primary].rto()
	if d == 0 {
		return DefaultHedgeDelay
	}
	if d < MinHedgeDelay {
		return MinHedgeDelay
	}
	if d > MaxHedgeDelay {
		return MaxHedgeDelay
	}
	return d
}

// UpstreamScore snapshots one upstream's steering model for the cost
// report.
type UpstreamScore struct {
	// Name is the upstream's pool name.
	Name string `json:"name"`
	// SRTTMs and RTTVarMs are the smoothed RTT model in milliseconds.
	SRTTMs   float64 `json:"srtt_ms"`
	RTTVarMs float64 `json:"rttvar_ms"`
	// SuccessRate is the attempt-success EWMA in [0,1].
	SuccessRate float64 `json:"success_rate"`
	// Samples counts the attempts scored so far.
	Samples uint64 `json:"samples"`
	// Healthy mirrors the pool's backoff state at snapshot time.
	Healthy bool `json:"healthy"`
}

// Report is the steering section of the proxy's /debug/cost payload: the
// active policy and the live model it acts on, best-ranked first.
type Report struct {
	// Policy is the active policy label.
	Policy string `json:"policy"`
	// HedgeDelayMs is the configured fixed hedge delay; 0 means adaptive.
	HedgeDelayMs float64 `json:"hedge_delay_ms"`
	// Upstreams lists the per-upstream models in current rank order.
	Upstreams []UpstreamScore `json:"upstreams"`
}

// Report snapshots the steering state.
func (s *Steerer) Report() Report {
	r := Report{
		Policy:       s.cfg.Policy.String(),
		HedgeDelayMs: float64(s.cfg.HedgeDelay) / float64(time.Millisecond),
	}
	for _, i := range s.rank() {
		snap := s.scores[i].snapshot()
		snap.Name = s.backend.UpstreamName(i)
		snap.Healthy = s.backend.UpstreamHealthy(i)
		r.Upstreams = append(r.Upstreams, snap)
	}
	return r
}

var (
	_ dnstransport.Resolver     = (*Steerer)(nil)
	_ dnstransport.WireResolver = (*Steerer)(nil)
	_ Backend                   = (*dnstransport.Pool)(nil)
)
