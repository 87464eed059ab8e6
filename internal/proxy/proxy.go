// Package proxy assembles the production forwarding path the study's
// findings point at: the full listener set (UDP :53, TCP :53, DoT :853,
// DoH :443) in front of a sharded TTL cache with singleflight coalescing
// and a pool of persistent upstream connections with failover.
//
// The paper shows DoH's cost is dominated by connection setup and
// resolver-side behaviour; a forwarding proxy amortizes the former with
// the connection pool and erases most of the latter with the cache, which
// is exactly how the public resolvers in Table 1 keep their DoH latencies
// close to UDP.
package proxy

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"dohcost/internal/dialer"
	"dohcost/internal/dnscache"
	"dohcost/internal/dnsserver"
	"dohcost/internal/dnstransport"
	"dohcost/internal/dnswire"
	"dohcost/internal/guard"
	"dohcost/internal/netsim"
	"dohcost/internal/qtrace"
	"dohcost/internal/steer"
	"dohcost/internal/telemetry"
	"dohcost/internal/tlsx"
	"dohcost/internal/udpio"
)

// Config assembles a forwarding proxy. It is the one place a proxy knob is
// declared: New validates it (Validate) before building anything,
// BindFlags is the only flag table over it, and loadgen.Scenario carries
// one instead of mirroring its fields. Fields tagged json:"-" are wiring
// (live objects and callbacks); the rest are plain data, so an echoed
// Config shows an operator the effective knobs.
type Config struct {
	// Upstreams are the recursive resolvers to forward cache misses to, in
	// failover preference order. Required.
	Upstreams []dnstransport.PoolUpstream `json:"-"`
	// Pool tunes the upstream connection pool (conns per upstream, at most
	// dnstransport.MaxConnsPerUpstream; health thresholds, backoff).
	Pool dnstransport.PoolConfig
	// CacheBudget bounds the response cache in accounted bytes
	// (dnscache.WithMemoryBudget) and arms TinyLFU admission
	// (dnscache.WithTinyLFU), the combination built for heavy-tailed name
	// streams. 0 keeps the dnscache default budget, admitting every insert
	// and evicting LRU.
	CacheBudget int64
	// CacheShards sets the cache's lock partitions, at most
	// dnscache.MaxShards; 0 means the default.
	CacheShards int
	// MaxTTL caps cached TTLs; 0 means the dnscache default (24 h).
	MaxTTL time.Duration
	// UpstreamTimeout bounds each forwarded exchange (on top of the
	// client-connection-lifetime context); 0 means
	// dnscache.DefaultExchangeTimeout.
	UpstreamTimeout time.Duration
	// Chain supplies TLS material for the DoT and DoH listeners; nil
	// serves UDP/TCP only.
	Chain *tlsx.Chain `json:"-"`
	// Endpoints configures DoH paths; nil serves the RFC default.
	Endpoints []dnsserver.Endpoint
	// MaxUDPSize caps UDP response datagrams below the client's EDNS
	// buffer (resolver max-udp-size policy); responses over the cap are
	// truncated so clients retry over TCP instead of losing oversized
	// datagrams on small-MTU paths. Zero applies no cap.
	MaxUDPSize int
	// UDPBatch is the UDPListen serve loop's vector size: up to UDPBatch
	// datagrams per read syscall, cache hits flushed in one write syscall
	// (dnsserver.UDPServer.ServeBatch). Zero means dnsserver.DefaultBatch
	// (32). The simulated-network listener runs the same loop, but its
	// sockets move one datagram per call whatever the vector — which is
	// why Validate rejects a UDPBatch (or UDPShards) without UDPListen.
	UDPBatch int
	// UDPListen, when non-empty, additionally serves classic UDP DNS on
	// real kernel sockets at this address (e.g. "127.0.0.1:5300") with
	// the batched loop — the deployment face of the serving path, where
	// recvmmsg/sendmmsg and SO_REUSEPORT sharding actually pay off.
	UDPListen string
	// UDPShards is the SO_REUSEPORT socket count for UDPListen; 0 means
	// one per GOMAXPROCS, and platforms without SO_REUSEPORT clamp to 1.
	UDPShards int
	// Policy selects the upstream steering policy: steer.PolicyFailover
	// (the zero value and the pre-steering behaviour: static preference
	// order with health failover), PolicyFastest (SRTT-ranked with periodic
	// exploration probes) or PolicyHedged (a delayed second exchange races
	// the primary, first answer wins).
	Policy steer.Policy
	// HedgeDelay is the hedged policy's wait before the second exchange;
	// 0 adapts per query to the primary upstream's live SRTT + 4·RTTVAR.
	HedgeDelay time.Duration
	// ServeStale keeps expired cache entries answerable this long past
	// expiry (RFC 8767): stale hits are served immediately while one
	// background refresh re-populates the entry. Zero disables.
	ServeStale time.Duration
	// PrefetchWindow refreshes hot cache entries in the background when a
	// hit finds them within this much of expiry. Zero disables.
	PrefetchWindow time.Duration
	// Guard, when non-nil, arms the abuse guard (internal/guard) on every
	// listener: per-client response rate limiting with slip/TC on UDP,
	// honest REFUSED on stream transports, RFC 7873 server cookies whose
	// holders bypass the UDP limits, and a cache-miss circuit breaker
	// between the cache and the upstream steerer. Zero-valued fields take
	// the guard defaults; nil serves unguarded.
	Guard *guard.Config
	// Dialer, when non-nil, is the Happy-Eyeballs racing dialer the
	// Upstreams' Dial closures were built over. The proxy does not dial
	// through it directly — the closures already do — but registering it
	// here puts its per-upstream race memory (winning family, demotion
	// state) into CostReport and /debug/cost.
	Dialer *dialer.HappyEyeballs `json:"-"`
	// Bootstrap, when non-nil, is the reachability prober: Start sweeps
	// it synchronously before the listeners come up, seeding the
	// steering scoreboard with per-upstream verdicts so the first real
	// queries never explore a combination the probe saw black-hole, and
	// an error storm on the forwarding path kicks an asynchronous
	// re-sweep (network-change recovery). Its Seeder defaults to the
	// proxy's steerer when unset.
	Bootstrap *dialer.Prober `json:"-"`
	// Storm tunes the error-storm detector that triggers Bootstrap
	// re-sweeps; nil with Bootstrap set uses the dialer defaults
	// (5 consecutive failures, 30 s cooldown).
	Storm *dialer.Storm `json:"-"`
	// Telemetry, when non-nil, is the metrics sink shared with the caller;
	// nil makes the proxy create its own (telemetry is always on — its
	// hot path is sharded atomics, cheap enough to never gate). A listener
	// receiving one Summary per completed query — the DNSSummary idiom —
	// is registered on the sink (Proxy.Telemetry().SetListener), so
	// proxies sharing a sink share their listener too.
	Telemetry *telemetry.Metrics `json:"-"`
	// Tracing, when non-nil, arms per-query lifecycle tracing
	// (internal/qtrace): every serving layer records monotonic phase
	// spans into a per-transaction record, and completed records are
	// tail-sampled — errored always, slower than the adaptive per-class
	// p99 always, 1-in-SampleEvery otherwise — into a lock-free ring
	// served on /debug/trace. Zero-valued fields take the qtrace
	// defaults; nil keeps the untraced zero-overhead path.
	Tracing *qtrace.Config
	// Profiling mounts net/http/pprof under /debug/pprof/ on the
	// Observability handler and appends Go runtime gauges (goroutines,
	// heap bytes, GC pause p99) to /metrics. Off by default: the ops
	// plane should opt into exposing profiles.
	Profiling bool
}

// Proxy is a forwarding resolver deployment: cache → singleflight →
// steering → upstream pool, exposed over every transport the study
// compares. The steering layer (internal/steer) decides which upstream a
// miss is forwarded to — static failover order, SRTT-ranked fastest, or
// hedged — and the cache can serve stale and prefetch around it. A miss
// travels the whole chain as packed bytes (dnstransport.WireResolver).
type Proxy struct {
	cfg    Config // as validated by New
	pool   *dnstransport.Pool
	cache  *dnscache.Cache
	fwd    forward // what the cache forwards a miss to
	server *dnsserver.Server
	run    *dnsserver.Running
	tel    *telemetry.Metrics

	// Real-socket batched UDP listener (Config.UDPListen), alongside the
	// simulated-network listener set.
	udpSrv   *dnsserver.UDPServer
	udpConns []udpio.BatchConn
	udpWG    sync.WaitGroup

	// tracer is the query tracer built from Config.Tracing.
	tracer *qtrace.Tracer
}

// Validate rejects a configuration that can be shown to be nonsense,
// before anything is built from it: no upstreams, an out-of-range enum, a
// negative size or duration, a shard or connection count past its ceiling,
// and knobs that would be silently inert (UDP serve-loop tuning without
// the real-socket listener, a storm detector without the prober it kicks).
// It does not police combinations that are merely unused — a HedgeDelay
// under a non-hedged Policy is legal, so a policy sweep can hold it
// constant.
func (c *Config) Validate() error {
	if len(c.Upstreams) == 0 {
		return errors.New("proxy: no upstreams configured")
	}
	return c.validateKnobs()
}

// validateKnobs is Validate without the upstream requirement: the part a
// flag set can check at parse time, before its caller has wired upstreams.
func (c *Config) validateKnobs() error {
	if !c.Policy.Valid() {
		return fmt.Errorf("proxy: Policy %d out of range", c.Policy)
	}
	for _, f := range [...]struct {
		name string
		v    int64
	}{
		{"CacheBudget", c.CacheBudget}, {"CacheShards", int64(c.CacheShards)},
		{"MaxUDPSize", int64(c.MaxUDPSize)}, {"UDPShards", int64(c.UDPShards)},
		{"UDPBatch", int64(c.UDPBatch)}, {"MaxTTL", int64(c.MaxTTL)},
		{"UpstreamTimeout", int64(c.UpstreamTimeout)}, {"HedgeDelay", int64(c.HedgeDelay)},
		{"ServeStale", int64(c.ServeStale)}, {"PrefetchWindow", int64(c.PrefetchWindow)},
	} {
		if f.v < 0 {
			return fmt.Errorf("proxy: %s must not be negative", f.name)
		}
	}
	if c.CacheShards > dnscache.MaxShards {
		return fmt.Errorf("proxy: CacheShards %d exceeds %d", c.CacheShards, dnscache.MaxShards)
	}
	if c.Pool.ConnsPerUpstream > dnstransport.MaxConnsPerUpstream {
		return fmt.Errorf("proxy: Pool.ConnsPerUpstream %d exceeds %d", c.Pool.ConnsPerUpstream, dnstransport.MaxConnsPerUpstream)
	}
	if c.UDPListen == "" && (c.UDPShards > 0 || c.UDPBatch > 0) {
		return errors.New("proxy: UDPShards/UDPBatch (-udp-shards/-udp-batch) tune the UDPListen (-udp-listen) serve loop and do nothing without it")
	}
	if c.Storm != nil && c.Bootstrap == nil {
		return errors.New("proxy: Storm set without Bootstrap: the storm detector only triggers bootstrap re-sweeps")
	}
	return nil
}

// New builds the forwarding pipeline. Close releases it.
func New(cfg Config) (*Proxy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pool, err := dnstransport.NewPool(cfg.Upstreams, cfg.Pool)
	if err != nil {
		return nil, err
	}
	var opts []dnscache.Option
	if cfg.CacheBudget > 0 {
		opts = append(opts, dnscache.WithMemoryBudget(cfg.CacheBudget), dnscache.WithTinyLFU())
	}
	if cfg.CacheShards > 0 {
		opts = append(opts, dnscache.WithShards(cfg.CacheShards))
	}
	if cfg.MaxTTL > 0 {
		opts = append(opts, dnscache.WithMaxTTL(cfg.MaxTTL))
	}
	if cfg.ServeStale > 0 {
		opts = append(opts, dnscache.WithServeStale(cfg.ServeStale))
	}
	if cfg.PrefetchWindow > 0 {
		opts = append(opts, dnscache.WithPrefetch(cfg.PrefetchWindow))
	}
	if cfg.UpstreamTimeout > 0 {
		// One bound for every upstream exchange the cache starts: a miss's
		// flight, a background refresh, an uncacheable query passing through.
		opts = append(opts, dnscache.WithExchangeTimeout(cfg.UpstreamTimeout))
	}
	tel := cfg.Telemetry
	if tel == nil {
		tel = telemetry.New()
	}
	// …and background refreshes' upstream traffic stays visible in the
	// cost accounting.
	opts = append(opts, dnscache.WithTelemetry(tel))
	var tracer *qtrace.Tracer
	if cfg.Tracing != nil {
		tracer = qtrace.New(*cfg.Tracing)
		tel.SetTracer(tracer)
	}
	st := steer.New(pool, steer.Config{Policy: cfg.Policy, HedgeDelay: cfg.HedgeDelay})

	fwd := forward{steer: st}
	if cfg.Guard != nil {
		fwd.guard = guard.New(*cfg.Guard)
	}
	if bootstrap := cfg.Bootstrap; bootstrap != nil {
		if bootstrap.Seeder == nil {
			bootstrap.Seeder = st
		}
		fwd.storm = cfg.Storm
		if fwd.storm == nil {
			fwd.storm = &dialer.Storm{}
		}
		if fwd.storm.OnStorm == nil {
			fwd.storm.OnStorm = func() { bootstrap.Kick(context.Background()) }
		}
	}
	p := &Proxy{
		cfg:    cfg,
		pool:   pool,
		fwd:    fwd,
		tel:    tel,
		tracer: tracer,
	}
	p.cache = dnscache.New(&p.fwd, opts...)
	p.server = &dnsserver.Server{
		Handler:   p.Handler(),
		Chain:     cfg.Chain,
		Endpoints: cfg.Endpoints,
		// Out-of-order replies on TCP and DoT: the paper found only
		// Cloudflare did this, and credits it for DoT's best-case behaviour.
		DoTOutOfOrder: true,
		MaxUDPSize:    cfg.MaxUDPSize,
		Guard:         fwd.guard,
		Telemetry:     tel,
	}
	return p, nil
}

// forward is the forwarding chain between the cache and the upstream pool,
// the one place its order is decided. A miss crosses, outermost first:
//
//   - the guard's cache-miss circuit breaker (nil: no Config.Guard). It
//     sits directly behind the cache, so every miss — foreground or
//     background refresh — passes AdmitMiss before it can occupy an
//     upstream connection, and outside the storm note: breaker-refused
//     misses are policy, not network evidence;
//   - the steerer, which picks the upstream and fails over across the pool;
//   - the error-storm note (nil: no Config.Bootstrap; Config.Storm, or a
//     default detector). It watches final forwarding outcomes: a query fails
//     there only after steering and failover exhausted every upstream — and
//     a run of those is what an access-network change looks like. Watching
//     per-attempt pool events instead would starve the detector the moment
//     the pool's slots settle into redial backoff (refusals bypass the
//     observer).
type forward struct {
	guard *guard.Guard
	storm *dialer.Storm
	steer *steer.Steerer
}

// ExchangeWire implements dnstransport.WireResolver. A breaker-refused miss
// returns guard.ErrMissBudget without touching the steerer; the serving
// handler maps that to a DNS REFUSED.
func (f *forward) ExchangeWire(ctx context.Context, query, dst []byte) ([]byte, error) {
	if f.guard != nil {
		// The breaker decision is the guard phase of a forwarded miss; on
		// the listener side the guard runs before the transaction exists,
		// so this span is the one place miss admission shows up in a trace.
		tx := telemetry.FromContext(ctx)
		tg := tx.TraceStart()
		err := f.guard.AdmitMiss(ctx)
		tx.TraceSpan(qtrace.PhaseGuard, tg)
		if err != nil {
			return nil, err
		}
		defer f.guard.MissDone()
	}
	resp, err := f.steer.ExchangeWire(ctx, query, dst)
	// Caller cancellations are neither success nor failure — a departed
	// client says nothing about the network.
	if f.storm != nil && (err == nil || !errors.Is(err, context.Canceled)) {
		f.storm.Note(err)
	}
	return resp, err
}

// Exchange implements dnstransport.Resolver over ExchangeWire.
func (f *forward) Exchange(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	return dnstransport.ExchangeMessage(ctx, f, q)
}

// Close implements dnstransport.Resolver.
func (f *forward) Close() error { return f.steer.Close() }

// chain names the stages a miss crosses, in order.
func (f *forward) chain() []string {
	chain := []string{"cache"}
	if f.guard != nil {
		chain = append(chain, "breaker")
	}
	if f.storm != nil {
		chain = append(chain, "storm")
	}
	return append(chain, "steer", "pool")
}

// fastHandler is the proxy's serving handler. It implements the three
// steps the servers know about: the wire fast path (ServeDNSWire: a
// packed-cache hit copied, ID-patched and TTL-decayed straight into the
// server's pooled buffer — no Unpack, no clone, no Pack), the wire miss
// (ServeDNSWireMiss: the query's own bytes through cache → singleflight →
// forwarding chain and the upstream's bytes back, bounded by the upstream
// timeout) and, for a shape ParseQuery declines, the Message step
// (ServeDNS, one adapter over the same miss, behind
// dnsserver.MessageAdapter).
type fastHandler struct{ p *Proxy }

// ServeDNS implements dnsserver.Handler. Errors propagate to the server
// layer, which synthesizes SERVFAIL.
func (h fastHandler) ServeDNS(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	resp, err := h.p.cache.Exchange(ctx, q)
	if err != nil && errors.Is(err, guard.ErrMissBudget) {
		return refused(q), nil
	}
	return resp, err
}

// refused answers a breaker-refused miss. It is a policy decision, not a
// server failure: REFUSED lets well-behaved clients back off or fail over
// instead of retrying a SERVFAIL.
func refused(q *dnswire.Message) *dnswire.Message {
	r := q.Reply()
	r.RCode = dnswire.RCodeRefused
	return r
}

// ServeDNSWire implements dnsserver.WireResponder: the zero-allocation
// cache-hit pipeline. Telemetry verdicts are unchanged from the Message
// path — the server began tx and records the ok verdict; only the cache
// outcome is annotated here.
func (h fastHandler) ServeDNSWire(tx *telemetry.Transaction, q *dnswire.Query, dst []byte, limit int) ([]byte, bool) {
	resp, outcome, ok := h.p.cache.ServeWire(tx, q, dst, limit)
	if !ok {
		return nil, false
	}
	tx.SetCache(outcome)
	return resp, true
}

// ServeDNSWireMiss implements dnsserver.WireMissResponder: the reply lands
// in the server's buffer, appended by the cache or, on a miss, by the
// upstream's transport client. A breaker-refused miss is answered REFUSED
// here, from the query's own bytes.
func (h fastHandler) ServeDNSWireMiss(ctx context.Context, q *dnswire.Query, dst []byte) ([]byte, error) {
	if !q.Parsed() {
		return dnsserver.MessageAdapter{Handler: h}.ServeDNSWireMiss(ctx, q, dst)
	}
	resp, err := h.p.cache.ExchangeQuery(ctx, q, dst)
	if err != nil && errors.Is(err, guard.ErrMissBudget) {
		return q.AppendReply(dst, dnswire.RCodeRefused), nil
	}
	return resp, err
}

// Handler returns the forwarding handler, usable behind any dnsserver
// transport: answer from cache, coalesce concurrent identical misses, and
// forward to the upstream pool under the upstream timeout. The handler
// also implements dnsserver.WireResponder and WireMissResponder, so
// servers that consult the wire steps serve hits and misses alike without
// building a Message.
func (p *Proxy) Handler() dnsserver.Handler {
	return fastHandler{p: p}
}

// Start brings up the full listener set on a simulated network host
// (UDP/TCP :53, and with a Chain, DoT :853 and DoH :443), plus — when
// Config.UDPListen is set — the real-socket batched UDP listener.
func (p *Proxy) Start(n *netsim.Network, host string) error {
	if p.run != nil {
		return fmt.Errorf("proxy: already started")
	}
	if p.cfg.Bootstrap != nil {
		// Sweep reachability before accepting queries: by the time the
		// listeners are up, the steering scoreboard already knows which
		// upstream×protocol combinations are dead, so the first clients
		// never pay to rediscover them.
		p.cfg.Bootstrap.Run(context.Background())
	}
	run, err := p.server.Start(n, host)
	if err != nil {
		return err
	}
	p.run = run
	if p.cfg.UDPListen != "" {
		if err := p.startUDPListen(); err != nil {
			p.run.Close()
			p.run = nil
			return err
		}
	}
	return nil
}

// startUDPListen binds the SO_REUSEPORT shard sockets and serves them
// with the batched loop.
func (p *Proxy) startUDPListen() error {
	conns, err := udpio.ListenShards("udp", p.cfg.UDPListen, p.cfg.UDPShards)
	if err != nil {
		return fmt.Errorf("proxy: udp listen %s: %w", p.cfg.UDPListen, err)
	}
	p.udpConns = conns
	p.udpSrv = &dnsserver.UDPServer{
		Handler:   p.Handler(),
		Guard:     p.fwd.guard,
		Telemetry: p.tel,
	}
	p.udpWG.Add(1)
	go func() {
		defer p.udpWG.Done()
		p.udpSrv.ServeBatch(conns, p.cfg.UDPBatch)
	}()
	return nil
}

// UDPAddr returns the real-socket UDP listener's bound address, or nil
// without Config.UDPListen — the way to discover the port after ":0".
func (p *Proxy) UDPAddr() net.Addr {
	if len(p.udpConns) == 0 {
		return nil
	}
	return p.udpConns[0].LocalAddr()
}

// UDPShardCount reports how many SO_REUSEPORT shard sockets the
// real-socket UDP listener bound (0 without Config.UDPListen). Unlike
// UDPShardStats it is populated as soon as Start returns, without
// waiting for the serve loops to spin up.
func (p *Proxy) UDPShardCount() int {
	return len(p.udpConns)
}

// UDPShardStats snapshots the per-shard serving counters of every UDP
// listener: the real-socket listener's shards (Config.UDPListen) first,
// then the simulated listener's; nil before Start.
func (p *Proxy) UDPShardStats() []dnsserver.UDPShardStats {
	var out []dnsserver.UDPShardStats
	if p.udpSrv != nil {
		out = p.udpSrv.ShardStats()
	}
	if p.run != nil {
		out = append(out, p.run.UDPShardStats()...)
	}
	return out
}

// Close stops the listeners (if started) and releases the cache and every
// pooled upstream connection.
func (p *Proxy) Close() error {
	for _, c := range p.udpConns {
		c.Close()
	}
	p.udpWG.Wait()
	p.udpConns = nil
	p.udpSrv = nil
	if p.run != nil {
		p.run.Close()
		p.run = nil
	}
	err := p.cache.Close() // closes the steerer, and beneath it the pool
	if p.tracer != nil {
		// After the cache is down no foreground transaction can finish;
		// closing last means every trace had its chance to reach the log.
		p.tracer.Close()
	}
	return err
}

// CacheStats snapshots cache effectiveness.
func (p *Proxy) CacheStats() dnscache.Stats { return p.cache.Stats() }

// UpstreamStats snapshots per-upstream pool health.
func (p *Proxy) UpstreamStats() []dnstransport.UpstreamStats { return p.pool.Stats() }

// SteeringReport snapshots the steering layer: the active policy and each
// upstream's live SRTT/success model, best-ranked first.
func (p *Proxy) SteeringReport() steer.Report { return p.fwd.steer.Report() }

// Guard returns the proxy's abuse guard, or nil when Config.Guard was not
// set — for tests and embedders that want the live Report.
func (p *Proxy) Guard() *guard.Guard { return p.fwd.guard }

// Bootstrap returns the proxy's reachability prober, or nil when
// Config.Bootstrap was not set — for embedders that want to Kick a
// re-sweep on an external network-change signal.
func (p *Proxy) Bootstrap() *dialer.Prober { return p.cfg.Bootstrap }

// Telemetry returns the proxy's metrics sink, for snapshots beyond what
// CostReport packages or for registering a transaction Listener late.
func (p *Proxy) Telemetry() *telemetry.Metrics { return p.tel }

// CacheReport is the cache section of a CostReport.
type CacheReport struct {
	dnscache.Stats
	// Entries is the live entry count; Shards the lock-partition count.
	Entries int `json:"entries"`
	Shards  int `json:"shards"`
	// BudgetBytes is the cache's byte budget: Config.CacheBudget, or the
	// dnscache default.
	BudgetBytes int64 `json:"budget_bytes"`
	// HitRatio is cache-answered lookups — fresh and stale hits — over
	// all lookups (hits+stale_hits+misses+coalesced), 0–1. Stale hits
	// count as hits: with serve-stale carrying traffic through an
	// upstream outage, the ratio must show the cache working, not
	// collapsing.
	HitRatio float64 `json:"hit_ratio"`
}

// CostReport is the /debug/cost payload: the telemetry snapshot joined
// with the structural state only the proxy can see — cache occupancy and
// per-upstream pool health.
type CostReport struct {
	Telemetry *telemetry.Snapshot          `json:"telemetry"`
	Cache     CacheReport                  `json:"cache"`
	Upstreams []dnstransport.UpstreamStats `json:"upstreams"`
	Steering  steer.Report                 `json:"steering"`
	// Chain names the stages a cache miss crosses, in order; "breaker" and
	// "storm" appear only when configured (Config.Guard, Config.Bootstrap).
	Chain []string `json:"chain"`
	// Guard is the abuse guard's decision counters and live breaker state;
	// omitted when the proxy runs unguarded.
	Guard *guard.Report `json:"guard,omitempty"`
	// Dialer is the Happy-Eyeballs race memory (winning family per
	// upstream, demotion state); omitted without Config.Dialer.
	Dialer *dialer.Report `json:"dialer,omitempty"`
	// Bootstrap is the reachability prober's cached verdict table;
	// omitted without Config.Bootstrap.
	Bootstrap *dialer.ProbeReport `json:"bootstrap,omitempty"`
	// StormsFired counts error storms that triggered a bootstrap
	// re-sweep.
	StormsFired int `json:"storms_fired,omitempty"`
	// UDPShards is every UDP listener's per-shard serving counters (see
	// UDPShardStats); omitted before Start.
	UDPShards []dnsserver.UDPShardStats `json:"udp_shards,omitempty"`
	// Trace is the tail sampler's decision counters and live slow
	// thresholds; omitted without Config.Tracing.
	Trace *qtrace.Stats `json:"trace,omitempty"`
}

// CostReport assembles the current cost view of the proxy.
func (p *Proxy) CostReport() CostReport {
	cs := p.cache.Stats()
	cr := CacheReport{
		Stats:       cs,
		Entries:     p.cache.Len(),
		Shards:      p.cache.Shards(),
		BudgetBytes: p.cache.MemoryBudget(),
	}
	if total := cs.Hits + cs.StaleHits + cs.Misses + cs.Coalesced; total > 0 {
		cr.HitRatio = float64(cs.Hits+cs.StaleHits) / float64(total)
	}
	report := CostReport{
		Telemetry: p.tel.Snapshot(),
		Cache:     cr,
		Upstreams: p.pool.Stats(),
		Steering:  p.fwd.steer.Report(),
		Chain:     p.fwd.chain(),
		UDPShards: p.UDPShardStats(),
	}
	if p.fwd.guard != nil {
		gr := p.fwd.guard.Report()
		report.Guard = &gr
	}
	if p.cfg.Dialer != nil {
		dr := p.cfg.Dialer.Report()
		report.Dialer = &dr
	}
	if p.cfg.Bootstrap != nil {
		br := p.cfg.Bootstrap.Report()
		report.Bootstrap = &br
	}
	if p.fwd.storm != nil {
		report.StormsFired = p.fwd.storm.Fired()
	}
	if p.tracer != nil {
		ts := p.tracer.Stats()
		report.Trace = &ts
	}
	return report
}

// Tracer returns the proxy's query tracer, or nil when Config.Tracing was
// not set — for embedders that want Traces or Stats without HTTP.
func (p *Proxy) Tracer() *qtrace.Tracer { return p.tracer }

// Observability returns an HTTP handler exposing the proxy's runtime cost
// accounting on two paths:
//
//   - /metrics — Prometheus text exposition: telemetry counters and
//     latency summaries plus scrape-time gauges for cache occupancy and
//     per-upstream health (and, with Config.Profiling, Go runtime
//     gauges).
//   - /debug/cost — the CostReport as JSON, for humans and scripts.
//   - /debug/trace — sampled query traces as JSON (Config.Tracing),
//     filterable with ?verdict=, ?upstream=, ?min_ms= and ?n=.
//   - /debug/pprof/ — the stdlib profiler (Config.Profiling).
//
// The handler is stdlib net/http (the ops plane runs on a real socket,
// not the simulated network) and is safe to serve while the proxy is
// under load.
func (p *Proxy) Observability() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		report := p.CostReport()
		if err := report.Telemetry.WritePrometheus(w); err != nil {
			return
		}
		writeReport(w, report)
		if p.cfg.Profiling {
			writeRuntimeGauges(w)
		}
	})
	mux.HandleFunc("/debug/cost", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(p.CostReport())
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		if p.tracer == nil {
			http.Error(w, "tracing disabled (set proxy.Config.Tracing)", http.StatusNotFound)
			return
		}
		q := r.URL.Query()
		f := qtrace.Filter{
			Verdict:  q.Get("verdict"),
			Upstream: q.Get("upstream"),
		}
		if v := q.Get("min_ms"); v != "" {
			ms, err := strconv.ParseFloat(v, 64)
			if err != nil {
				http.Error(w, "bad min_ms: "+err.Error(), http.StatusBadRequest)
				return
			}
			f.MinDur = time.Duration(ms * float64(time.Millisecond))
		}
		if v := q.Get("n"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				http.Error(w, "bad n: "+err.Error(), http.StatusBadRequest)
				return
			}
			f.Limit = n
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(TraceReport{Stats: p.tracer.Stats(), Traces: p.tracer.Traces(f)})
	})
	if p.cfg.Profiling {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// TraceReport is the /debug/trace payload: the tail sampler's counters
// followed by the sampled traces, newest first.
type TraceReport struct {
	// Stats counts offers, keeps by reason, and drops, and reports the
	// live adaptive slow thresholds per class.
	Stats qtrace.Stats `json:"stats"`
	// Traces are the ring's sampled records after filtering.
	Traces []qtrace.View `json:"traces"`
}

// writeReport appends the series /metrics renders from the components
// that own them rather than from the telemetry snapshot — cache occupancy
// and decisions, UDP serving counters summed over every shard, per-upstream
// pool and steering state, the guard's decisions — read from the same
// CostReport /debug/cost serves, so the two endpoints can never disagree.
// The exposition format itself lives in telemetry.TextWriter.
func writeReport(w io.Writer, report CostReport) error {
	t := telemetry.NewTextWriter(w)
	c := &report.Cache
	t.Gauge("dohcost_cache_entries", "Live cache entries.", c.Entries)
	t.Gauge("dohcost_cache_hit_ratio", "Fresh+stale hits over all lookups since start.", c.HitRatio)
	t.Gauge("dohcost_cache_bytes_live", "Accounted bytes of live cache entries (payload + keys + index overhead).", c.BytesLive)
	t.Counter("dohcost_cache_evictions_total", "Cache entries evicted: LRU evictions past the bounds on insert, and expired entries dropped at arena rotation.", c.Evictions)
	t.Counter("dohcost_cache_admission_rejects_total", "Cache insert candidates refused by the TinyLFU admission filter.", c.AdmissionRejects)
	t.Counter("dohcost_prefetches_total", "Near-expiry background cache refreshes triggered by hits on hot names.", c.Prefetches)
	t.Counter("dohcost_cache_arena_epochs_total", "Cache arena epoch rotations (live entries compacted, slabs recycled).", c.ArenaEpochs)
	t.Counter("dohcost_cache_sketch_resets_total", "TinyLFU sketch aging resets (counters halved, doorkeeper cleared).", c.SketchResets)

	var udp dnsserver.UDPShardStats
	for _, sh := range report.UDPShards {
		udp.Reads += sh.Reads
		udp.Datagrams += sh.Datagrams
		udp.Spills += sh.Spills
		for b, n := range sh.BatchSizes {
			udp.BatchSizes[b] += n
		}
	}
	t.Counter("dohcost_udp_spills_total", "UDP slow-path hand-offs that had to start a goroutine (no parked slow-step slot free).", udp.Spills)
	t.Counter("dohcost_udp_batch_reads_total", "Batched UDP read syscalls (recvmmsg wakeups) on the serving path.", udp.Reads)
	t.Counter("dohcost_udp_batch_datagrams_total", "Datagrams returned by batched UDP reads; divide by reads for datagrams per syscall.", udp.Datagrams)
	if udp.Reads > 0 {
		t.Family("dohcost_udp_batch_size_reads_total", "Batched UDP reads by datagrams-returned bucket.", "counter")
		for b, n := range udp.BatchSizes {
			if n > 0 {
				t.LabeledValue("dohcost_udp_batch_size_reads_total", "datagrams", dnsserver.BatchSizeBuckets[b], n)
			}
		}
	}

	t.Family("dohcost_upstream_exchanges_total", "Successful exchanges per upstream.", "counter")
	for _, u := range report.Upstreams {
		t.LabeledValue("dohcost_upstream_exchanges_total", "upstream", u.Name, u.Exchanges)
	}
	t.Family("dohcost_upstream_failures_total", "Failed exchanges per upstream; backoff refusals count only in dohcost_pool_backoffs_total.", "counter")
	for _, u := range report.Upstreams {
		t.LabeledValue("dohcost_upstream_failures_total", "upstream", u.Name, u.Failures)
	}
	t.Family("dohcost_upstream_up", "Whether the upstream is accepting traffic (0 = in backoff).", "gauge")
	for _, u := range report.Upstreams {
		up := 1
		if u.Down {
			up = 0
		}
		t.LabeledValue("dohcost_upstream_up", "upstream", u.Name, up)
	}
	t.Family("dohcost_upstream_srtt_seconds", "Steering model: smoothed RTT per upstream (0 until sampled).", "gauge")
	for _, u := range report.Steering.Upstreams {
		t.LabeledValue("dohcost_upstream_srtt_seconds", "upstream", u.Name, u.SRTTMs/1e3)
	}
	t.Family("dohcost_upstream_success_rate", "Steering model: attempt-success EWMA per upstream.", "gauge")
	for _, u := range report.Steering.Upstreams {
		t.LabeledValue("dohcost_upstream_success_rate", "upstream", u.Name, u.SuccessRate)
	}
	if b := report.Bootstrap; b != nil {
		t.Counter("dohcost_bootstrap_sweeps_total", "Completed reachability probe sweeps.", b.Sweeps)
		t.Family("dohcost_bootstrap_target_ok", "Latest probe verdict per upstream/protocol combination (1 = reachable).", "gauge")
		for _, v := range b.Verdicts {
			ok := 0
			if v.OK {
				ok = 1
			}
			t.LabeledValue2("dohcost_bootstrap_target_ok", "upstream", v.Upstream, "proto", v.Proto, ok)
		}
		t.Counter("dohcost_storms_fired_total", "Error storms that triggered a bootstrap re-sweep.", report.StormsFired)
	}
	if g := report.Guard; g != nil {
		t.Counter("dohcost_guard_drops_total", "UDP datagrams silently discarded by the abuse guard's per-client rate limit.", g.Drops)
		t.Counter("dohcost_guard_slips_total", "Rate-limited UDP queries answered with a minimal TC=1 slip instead of a drop.", g.Slips)
		t.Counter("dohcost_guard_refusals_total", "Queries answered REFUSED by the abuse guard (stream rate limit or miss breaker).", g.Refusals)
		t.Counter("dohcost_guard_breaker_refusals_total", "Cache misses refused by the miss-flood circuit breaker.", g.BreakerRefusals)
		t.Counter("dohcost_guard_cookies_validated_total", "UDP queries whose DNS server cookie validated, earning the rate-limit bypass.", g.CookiesValidated)
		t.Counter("dohcost_guard_cookies_issued_total", "Fresh DNS server cookies attached to responses.", g.CookiesIssued)
		t.Gauge("dohcost_guard_inflight_misses", "Cache misses currently holding a breaker slot.", g.InflightMisses)
		t.Gauge("dohcost_guard_cookie_epoch", "Current server-cookie rotation epoch (0 when cookies are disabled).", g.CookieEpoch)
	}
	if tr := report.Trace; tr != nil {
		t.Counter("dohcost_trace_offered_total", "Completed transactions offered to the tail sampler.", tr.Offered)
		t.Family("dohcost_trace_kept_total", "Traces kept by the tail sampler, by reason.", "counter")
		t.LabeledValue("dohcost_trace_kept_total", "reason", "errored", tr.KeptErrored)
		t.LabeledValue("dohcost_trace_kept_total", "reason", "slow", tr.KeptSlow)
		t.LabeledValue("dohcost_trace_kept_total", "reason", "baseline", tr.KeptBaseline)
		t.Counter("dohcost_trace_ring_dropped_total", "Kept traces dropped at the ring (slot contended mid-write).", tr.RingDropped)
		t.Family("dohcost_trace_slow_threshold_seconds", "Live adaptive slow threshold per trace class.", "gauge")
		for _, cl := range [...]string{"error", "cache", "upstream"} {
			t.LabeledValue("dohcost_trace_slow_threshold_seconds", "class", cl, tr.SlowThresholdMs[cl]/1e3)
		}
	}
	return t.Err()
}
