package dnstransport

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dohcost/internal/dnswire"
	"dohcost/internal/qtrace"
	"dohcost/internal/telemetry"
)

// PoolUpstream names one upstream resolver deployment and how to open a
// persistent connection to it. Dial is called whenever the pool needs a
// fresh connection (initial fill, or redial after a failure); it should
// return a persistent Resolver (StreamClient, DoHClient, …) and honor the
// context, which carries the triggering exchange's deadline.
type PoolUpstream struct {
	Name string
	Dial func(ctx context.Context) (Resolver, error)
}

// PoolConfig tunes a Pool.
type PoolConfig struct {
	// ConnsPerUpstream is the number of persistent connections multiplexed
	// per upstream; 0 means 2. NewPool allocates every slot up front, so a
	// configuration surface caps it at MaxConnsPerUpstream.
	ConnsPerUpstream int
	// MaxFailures is how many consecutive exchange failures mark an
	// upstream down; 0 means 3.
	MaxFailures int
	// BackoffBase seeds the exponential redial/health backoff; 0 means
	// 100ms.
	BackoffBase time.Duration
	// BackoffMax caps the backoff; 0 means 15s.
	BackoffMax time.Duration

	// now is the clock, replaceable in tests.
	now func() time.Time
	// rand is the backoff jitter source in [0,1), replaceable in tests.
	rand func() float64
}

// MaxConnsPerUpstream is the ceiling configuration surfaces hold
// ConnsPerUpstream to: far past any multiplexing an upstream rewards.
const MaxConnsPerUpstream = 1 << 10

func (c PoolConfig) withDefaults() PoolConfig {
	if c.ConnsPerUpstream <= 0 {
		c.ConnsPerUpstream = 2
	}
	if c.MaxFailures <= 0 {
		c.MaxFailures = 3
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 100 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 15 * time.Second
	}
	if c.now == nil {
		c.now = time.Now
	}
	if c.rand == nil {
		c.rand = rand.Float64
	}
	return c
}

// Pool is a Resolver and WireResolver that multiplexes queries over N
// persistent connections per upstream, with per-upstream health tracking,
// exponential-backoff redial of broken connections, and failover across
// upstreams in the order given. It is the production counterpart of the paper's persistent-
// connection scenarios: connection setup — the dominant DoH cost in
// Figures 3–5 — is paid once per pooled connection instead of per query.
//
// Safe for concurrent use.
type Pool struct {
	cfg PoolConfig
	ups []*poolUpstream

	observer atomic.Pointer[ExchangeObserver]
	closed   atomic.Bool
}

// ExchangeObserver receives the outcome of every exchange attempt the pool
// runs: the upstream's name, the attempt's duration (connection checkout
// included, so setup cost — the dominant DoH cost — is visible), and the
// error (nil on success). Attempts abandoned by the caller's cancellation
// are reported with context.Canceled; scorers should ignore those — a
// cancelled hedge loser says nothing about the upstream. Checkouts refused
// locally because the slot is in redial backoff (ErrBackoff) are not
// reported at all: nothing touched the network, and the dial failure that
// started the backoff was already observed. A deadline that
// expired mid-exchange is charged like any failure, by the pool and by
// scorers alike: an upstream that ate the whole budget is exactly what the
// model must learn. Observers run inline on the exchange path and must be
// fast and concurrency-safe.
type ExchangeObserver func(upstream string, d time.Duration, err error)

// SetExchangeObserver installs (or, with nil, removes) the per-attempt
// outcome callback. Safe to call while exchanges run; the steering layer
// installs its scorer here so every policy's traffic feeds the same model.
func (p *Pool) SetExchangeObserver(fn ExchangeObserver) {
	if fn == nil {
		p.observer.Store(nil)
		return
	}
	p.observer.Store(&fn)
}

// observe reports one attempt outcome to the installed observer, if any.
func (p *Pool) observe(name string, d time.Duration, err error) {
	if fn := p.observer.Load(); fn != nil {
		(*fn)(name, d, err)
	}
}

// poolConn is one persistent connection slot, lazily dialed. w is r's wire
// capability (AsWire), resolved once at dial time.
type poolConn struct {
	mu       sync.Mutex
	r        Resolver
	w        WireResolver
	redialAt time.Time
	backoff  time.Duration
}

// poolUpstream is one upstream's connection set and health state.
type poolUpstream struct {
	name  string
	dial  func(ctx context.Context) (Resolver, error)
	conns []*poolConn
	next  atomic.Uint64 // round-robin cursor over conns

	mu        sync.Mutex
	failures  int // consecutive failures across all conns
	downUntil time.Time
	backoff   time.Duration
	exchanges int64
	errors    int64
}

// UpstreamStats snapshots one upstream's health. The JSON tags match the
// snake_case style of the telemetry snapshot, which sits next to these
// in the proxy's /debug/cost report.
type UpstreamStats struct {
	Name      string `json:"name"`
	Exchanges int64  `json:"exchanges"` // successful exchanges
	Failures  int64  `json:"failures"`  // failed exchanges, dial errors included; backoff refusals not
	Down      bool   `json:"down"`      // currently marked down (in backoff)
}

// NewPool builds a pool over the given upstreams. The first upstream is
// preferred; later ones serve as failover targets while earlier ones are
// marked down.
func NewPool(upstreams []PoolUpstream, cfg PoolConfig) (*Pool, error) {
	if len(upstreams) == 0 {
		return nil, fmt.Errorf("dnstransport: pool needs at least one upstream")
	}
	cfg = cfg.withDefaults()
	p := &Pool{cfg: cfg}
	for _, u := range upstreams {
		pu := &poolUpstream{name: u.Name, dial: u.Dial}
		for i := 0; i < cfg.ConnsPerUpstream; i++ {
			pu.conns = append(pu.conns, &poolConn{})
		}
		p.ups = append(p.ups, pu)
	}
	return p, nil
}

// Close implements Resolver: every pooled connection is closed and the pool
// refuses further exchanges.
func (p *Pool) Close() error {
	p.closed.Store(true)
	for _, u := range p.ups {
		for _, c := range u.conns {
			c.mu.Lock()
			if c.r != nil {
				c.r.Close()
				c.r, c.w = nil, nil
			}
			c.mu.Unlock()
		}
	}
	return nil
}

// Stats snapshots per-upstream health counters.
func (p *Pool) Stats() []UpstreamStats {
	now := p.cfg.now()
	out := make([]UpstreamStats, 0, len(p.ups))
	for _, u := range p.ups {
		u.mu.Lock()
		out = append(out, UpstreamStats{
			Name:      u.name,
			Exchanges: u.exchanges,
			Failures:  u.errors,
			Down:      now.Before(u.downUntil),
		})
		u.mu.Unlock()
	}
	return out
}

// healthy reports whether the upstream is accepting traffic.
func (u *poolUpstream) healthy(now time.Time) bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	return !now.Before(u.downUntil)
}

// succeed resets the upstream's failure accounting.
func (u *poolUpstream) succeed() {
	u.mu.Lock()
	u.exchanges++
	u.failures = 0
	u.backoff = 0
	u.downUntil = time.Time{}
	u.mu.Unlock()
}

// nextBackoff advances an exponential backoff: base on the first failure,
// doubling up to the cap afterwards. The growth itself is deterministic;
// the delay actually slept is spread by jitterBackoff so peers broken at
// the same instant do not retry in lockstep.
func nextBackoff(cur time.Duration, cfg PoolConfig) time.Duration {
	if cur == 0 {
		return cfg.BackoffBase
	}
	if cur *= 2; cur > cfg.BackoffMax {
		return cfg.BackoffMax
	}
	return cur
}

// jitterBackoff spreads a backoff delay uniformly over [d/2, d) — the
// "equal jitter" scheme. Without it, every connection to an upstream that
// died at one instant computes the same deterministic schedule and redials
// in lockstep, aiming a thundering herd at the recovering upstream.
func jitterBackoff(d time.Duration, cfg PoolConfig) time.Duration {
	if d <= 0 {
		return d
	}
	half := d / 2
	return half + time.Duration(cfg.rand()*float64(half))
}

// fail counts one failure toward the upstream's health and, past the
// threshold, marks it down with jittered exponential backoff. A refused
// attempt (a slot in redial backoff) is charged to health only: it is not
// a failed exchange, so UpstreamStats.Failures does not count it.
func (u *poolUpstream) fail(cfg PoolConfig, refused bool) {
	u.mu.Lock()
	if !refused {
		u.errors++
	}
	u.failures++
	if u.failures >= cfg.MaxFailures {
		u.backoff = nextBackoff(u.backoff, cfg)
		u.downUntil = cfg.now().Add(jitterBackoff(u.backoff, cfg))
	}
	u.mu.Unlock()
}

// get returns the slot's live resolver, dialing if the slot is empty and
// its redial backoff has elapsed; dialed reports whether this checkout
// established a fresh connection. A slot still in backoff refuses with an
// error wrapping ErrBackoff so callers can tell local refusal from a dial
// that actually failed.
func (c *poolConn) get(ctx context.Context, p *Pool, u *poolUpstream) (r Resolver, w WireResolver, dialed bool, err error) {
	cfg := p.cfg
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.r != nil {
		return c.r, c.w, false, nil
	}
	if cfg.now().Before(c.redialAt) {
		return nil, nil, false, fmt.Errorf("dnstransport: pool upstream %s: %w", u.name, ErrBackoff)
	}
	// Re-check under the slot lock: Close sets the flag before walking the
	// slots, so either we see it here or Close's walk will close whatever
	// we dial. Without this check a racing Exchange could redial after
	// Close passed this slot and leak the connection.
	if p.closed.Load() {
		return nil, nil, false, ErrClosed
	}
	r, err = u.dial(ctx)
	if err != nil {
		c.noteBroken(cfg)
		return nil, nil, false, fmt.Errorf("dnstransport: pool dial %s: %w", u.name, err)
	}
	c.r, c.w = r, AsWire(r)
	c.backoff = 0
	return r, c.w, true, nil
}

// drop discards the slot's resolver after a failure; the next get redials
// once the backoff elapses.
func (c *poolConn) drop(r Resolver, cfg PoolConfig) {
	c.mu.Lock()
	if c.r == r && r != nil {
		r.Close()
		c.r, c.w = nil, nil
	}
	c.noteBroken(cfg)
	c.mu.Unlock()
}

// noteBroken advances the slot's redial backoff. The next dial time is
// jittered so slots broken together spread their redials. Caller holds
// c.mu.
func (c *poolConn) noteBroken(cfg PoolConfig) {
	c.backoff = nextBackoff(c.backoff, cfg)
	c.redialAt = cfg.now().Add(jitterBackoff(c.backoff, cfg))
}

// Exchange implements Resolver over ExchangeWire.
func (p *Pool) Exchange(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	return ExchangeMessage(ctx, p, q)
}

// ExchangeWire implements WireResolver. The query goes to the first healthy
// upstream's next pooled connection; on failure the connection is dropped
// for redial, the upstream's health is charged, and the exchange fails over
// to the next upstream, appending to dst afresh: whatever a failed attempt
// left in dst's spare capacity is overwritten. When every upstream is
// marked down the pool tries them anyway — returning an error without
// asking the network would turn a transient blip into an outage.
func (p *Pool) ExchangeWire(ctx context.Context, query, dst []byte) ([]byte, error) {
	if p.closed.Load() {
		return nil, ErrClosed
	}
	now := p.cfg.now()
	var lastErr error
	for _, skipDown := range []bool{true, false} {
		for _, u := range p.ups {
			if skipDown && !u.healthy(now) {
				continue
			}
			if !skipDown && u.healthy(now) {
				continue // already tried in the first pass
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			resp, err := p.exchangeVia(ctx, u, query, dst)
			if err == nil {
				return resp, nil
			}
			lastErr = err
			if ctx.Err() != nil {
				return nil, lastErr
			}
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("dnstransport: pool: no upstream available")
	}
	return nil, lastErr
}

// exchangeVia runs one exchange attempt on u's next connection. The
// query's telemetry Transaction (when present in ctx) is charged for the
// checkout — fresh dials, failed attempts — and credited with the
// answering upstream's name and exchange latency on success; the pool's
// ExchangeObserver (when installed) sees the attempt either way. An
// exchange that failed because the caller *cancelled* charges nothing —
// the upstream did nothing wrong, so neither the connection nor the
// upstream's health pays for a hedge loser's cancellation or a departed
// client. A deadline expiring mid-exchange is an ordinary failure: a
// black-holing upstream must still be marked down.
func (p *Pool) exchangeVia(ctx context.Context, u *poolUpstream, query, dst []byte) ([]byte, error) {
	tx := telemetry.FromContext(ctx)
	start := time.Now()
	slot := u.conns[u.next.Add(1)%uint64(len(u.conns))]
	r, w, dialed, err := slot.get(ctx, p, u)
	if dialed {
		tx.PoolDial()
		if tx.Traced() {
			// The dial span separates connection setup from the exchange
			// itself — the paper's connection-setup vs resolution split.
			tx.TraceSpanBetween(qtrace.PhaseDial, start, time.Now())
		}
	}
	if err != nil {
		if errors.Is(err, ErrBackoff) {
			// The slot refused locally: nothing touched the network, so the
			// observer (scoreboard) learns nothing and telemetry counts the
			// refusal apart from dial failures — conflating the two made
			// /debug/cost overstate how broken an upstream was while it was
			// merely resting. Health IS still charged: an upstream whose
			// only slots are resting cannot serve, and counting refusals
			// toward MaxFailures is what lets the pool mark it down and
			// skip it instead of bouncing off the backoff every query.
			tx.PoolBackoff()
			u.fail(p.cfg, true)
			return nil, err
		}
		tx.PoolFailure()
		u.fail(p.cfg, false)
		p.observe(u.name, time.Since(start), err)
		return nil, err
	}
	t0 := time.Now()
	resp, err := w.ExchangeWire(ctx, query, dst)
	if tx.Traced() {
		// Recorded for failures too: a trace of a SERVFAIL query should
		// show where the time went before the attempt died.
		tx.TraceSpanBetween(qtrace.PhaseUpstream, t0, time.Now())
	}
	if err != nil {
		if !errors.Is(ctx.Err(), context.Canceled) {
			tx.PoolFailure()
			slot.drop(r, p.cfg)
			u.fail(p.cfg, false)
		}
		p.observe(u.name, time.Since(start), err)
		return nil, err
	}
	tx.ObserveUpstream(u.name, time.Since(t0))
	u.succeed()
	p.observe(u.name, time.Since(start), nil)
	return resp, nil
}

// NumUpstreams reports how many upstreams the pool multiplexes.
func (p *Pool) NumUpstreams() int { return len(p.ups) }

// UpstreamName returns the configured name of upstream i, in the
// preference order NewPool received.
func (p *Pool) UpstreamName(i int) string { return p.ups[i].name }

// UpstreamHealthy reports whether upstream i is currently accepting
// traffic (not marked down in failure backoff).
func (p *Pool) UpstreamHealthy(i int) bool { return p.ups[i].healthy(p.cfg.now()) }

// ExchangeUpstreamWire runs one exchange against upstream i specifically —
// no failover — so a steering layer can aim traffic by score instead of by
// static preference order. Connection checkout, health accounting and
// redial backoff work exactly as in ExchangeWire; the upstream is tried
// even when marked down, because a directed probe is how a steering policy
// discovers recovery.
func (p *Pool) ExchangeUpstreamWire(ctx context.Context, i int, query, dst []byte) ([]byte, error) {
	if p.closed.Load() {
		return nil, ErrClosed
	}
	if i < 0 || i >= len(p.ups) {
		return nil, fmt.Errorf("dnstransport: pool has no upstream %d", i)
	}
	return p.exchangeVia(ctx, p.ups[i], query, dst)
}

var (
	_ Resolver     = (*Pool)(nil)
	_ WireResolver = (*Pool)(nil)
)
