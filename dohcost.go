// Package dohcost reproduces "An Empirical Study of the Cost of
// DNS-over-HTTPS" (Boettger et al., IMC '19) as a runnable Go system: every
// DNS transport the paper compares (UDP, TCP, DNS-over-TLS, DNS-over-HTTPS
// on HTTP/1.1 and HTTP/2), the resolver deployments they talked to, a
// simulated network to carry it all hermetically, and one experiment runner
// per table and figure in the paper.
//
// This package is the facade: it wires the substrate packages together for
// the common workflows. Construct an Environment (a simulated client +
// local/Cloudflare-like/Google-like resolver topology), obtain Resolvers
// over any transport, exchange queries, and run the paper's experiments.
//
//	env, err := dohcost.NewEnvironment(dohcost.EnvironmentConfig{Seed: 1})
//	defer env.Close()
//	r, err := env.DoH(dohcost.Cloudflare, dohcost.Options{Persistent: true})
//	resp, err := r.Exchange(ctx, dohcost.NewQuery("example.com", dohcost.TypeA))
//
// The experiment entry points mirror the paper's artefacts: RunFigure1,
// RunTables (Tables 1–2), RunFigure2 (head-of-line blocking), RunOverhead
// (Figures 3–5), and RunFigure6 (page-load study). Each returns a result
// with a Render function producing the rows the paper reports.
package dohcost

import (
	"context"
	"fmt"
	"net"

	"dohcost/internal/core"
	"dohcost/internal/dialer"
	"dohcost/internal/dnscache"
	"dohcost/internal/dnsserver"
	"dohcost/internal/dnstransport"
	"dohcost/internal/dnswire"
	"dohcost/internal/guard"
	"dohcost/internal/loadgen"
	"dohcost/internal/netsim"
	"dohcost/internal/proxy"
	"dohcost/internal/qtrace"
	"dohcost/internal/steer"
	"dohcost/internal/telemetry"
	"dohcost/internal/tlsx"
)

// Re-exported fundamental types. The facade aliases rather than wraps so
// the full substrate capability stays reachable.
type (
	// Resolver is a DNS client over some transport.
	Resolver = dnstransport.Resolver
	// Cost is the measured wire cost of one exchange.
	Cost = dnstransport.Cost
	// CostRecorder receives per-exchange costs.
	CostRecorder = dnstransport.CostRecorder
	// CostFunc adapts a function to CostRecorder.
	CostFunc = dnstransport.CostFunc
	// Message is a DNS message in unpacked form.
	Message = dnswire.Message
	// Name is a domain name in presentation form.
	Name = dnswire.Name
	// Type is a DNS RR type.
	Type = dnswire.Type
)

// Common query types.
const (
	TypeA     = dnswire.TypeA
	TypeAAAA  = dnswire.TypeAAAA
	TypeCNAME = dnswire.TypeCNAME
	TypeTXT   = dnswire.TypeTXT
	TypeCAA   = dnswire.TypeCAA
)

// ResolverHost identifies one of the environment's resolver deployments.
type ResolverHost string

// The environment's resolvers: the university-local resolver and the two
// cloud deployments with Cloudflare-like and Google-like certificates.
const (
	Local      ResolverHost = core.LocalHost
	Cloudflare ResolverHost = core.CFHost
	Google     ResolverHost = core.GOHost
)

// Options tunes a resolver handle.
type Options struct {
	// Persistent keeps connections across exchanges (stream transports).
	Persistent bool
	// HTTP1 selects pipelined HTTP/1.1 instead of HTTP/2 for DoH.
	HTTP1 bool
	// Recorder receives per-exchange wire costs when set.
	Recorder CostRecorder
}

// EnvironmentConfig configures the simulated study network.
type EnvironmentConfig = core.TopologyConfig

// Environment is the standard study topology, ready to hand out resolvers.
type Environment struct {
	topo        *core.Topology
	proxies     []*proxy.Proxy
	proxyChains []proxyChain
}

// proxyChain records the certificate material of a started proxy.
type proxyChain struct {
	host  string
	chain *tlsx.Chain
}

// NewEnvironment builds and starts the simulated network.
func NewEnvironment(cfg EnvironmentConfig) (*Environment, error) {
	topo, err := core.NewTopology(cfg)
	if err != nil {
		return nil, err
	}
	return &Environment{topo: topo}, nil
}

// Close stops all deployments, including any started proxies.
func (e *Environment) Close() {
	for _, p := range e.proxies {
		p.Close()
	}
	e.proxies = nil
	e.topo.Close()
}

// UDP returns a classic RFC 1035 resolver toward host, with the RFC 7766
// TCP fallback for truncated responses.
func (e *Environment) UDP(host ResolverHost, opts Options) (Resolver, error) {
	c, err := e.topo.UDPResolver(core.ClientHost, string(host))
	if err != nil {
		return nil, err
	}
	c.Recorder = opts.Recorder
	// The TCP retry leg of a truncated exchange is wire traffic too: give
	// the fallback the same recorder so its cost is not silently dropped.
	if fb, ok := c.Fallback.(*dnstransport.StreamClient); ok {
		fb.Recorder = opts.Recorder
	}
	return c, nil
}

// DoT returns a DNS-over-TLS resolver toward host (RFC 7858).
func (e *Environment) DoT(host ResolverHost, opts Options) (Resolver, error) {
	c, err := e.topo.DoTResolver(core.ClientHost, string(host))
	if err != nil {
		return nil, err
	}
	c.Persistent = opts.Persistent
	c.Recorder = opts.Recorder
	return c, nil
}

// DoH returns a DNS-over-HTTPS resolver toward host (RFC 8484).
func (e *Environment) DoH(host ResolverHost, opts Options) (Resolver, error) {
	mode := dnstransport.ModeH2
	if opts.HTTP1 {
		mode = dnstransport.ModeH1
	}
	c, err := e.topo.DoHResolver(core.ClientHost, string(host), mode, opts.Persistent)
	if err != nil {
		return nil, err
	}
	c.Recorder = opts.Recorder
	return c, nil
}

// NewQuery builds a recursion-desired query with EDNS(0), accepting names
// with or without the trailing dot.
func NewQuery(name string, t Type) *Message {
	return dnswire.NewQuery(0, dnswire.Name(name).Canonical(), t)
}

// ParseType maps an RR type mnemonic ("A", "AAAA", …) to its Type.
func ParseType(s string) (Type, bool) { return dnswire.ParseType(s) }

// WithCache wraps any resolver with a sharded, TTL-respecting,
// singleflight-coalescing cache — the production-mode counterpart of the
// paper's deliberately cold-cache methodology. Closing the returned
// resolver closes the upstream.
func WithCache(upstream Resolver, opts ...CacheOption) Resolver {
	return dnscache.New(upstream, opts...)
}

// Cache configuration, re-exported from the sharded cache.
type (
	// CacheOption configures WithCache.
	CacheOption = dnscache.Option
	// CacheStats counts cache effectiveness.
	CacheStats = dnscache.Stats
)

// Re-exported cache options.
var (
	CacheMaxEntries  = dnscache.WithMaxEntries
	CacheTTLBounds   = dnscache.WithTTLBounds
	CacheShards      = dnscache.WithShards
	CacheNegativeTTL = dnscache.WithNegativeTTL
	// CacheMemoryBudget bounds the cache by accounted bytes (entry payload
	// + key + index overhead) instead of entry count — the bound that stays
	// honest when answer sizes vary.
	CacheMemoryBudget = dnscache.WithMemoryBudget
	// CacheTinyLFU enables frequency-gated admission: an insert that would
	// evict must beat its victims' estimated lookup frequency (per-shard
	// count-min sketch with doorkeeper), protecting the working set from
	// one-hit-wonder floods.
	CacheTinyLFU = dnscache.WithTinyLFU
	// CacheServeStale keeps expired entries answerable for a window past
	// expiry (RFC 8767), served immediately while one background refresh
	// re-populates them.
	CacheServeStale = dnscache.WithServeStale
	// CachePrefetch refreshes hot entries in the background when a hit
	// finds them within the window of expiry.
	CachePrefetch = dnscache.WithPrefetch
	// CacheRefreshTimeout bounds each background refresh exchange.
	CacheRefreshTimeout = dnscache.WithRefreshTimeout
)

// Upstream pooling, re-exported from dnstransport.
type (
	// Pool multiplexes queries over persistent upstream connections with
	// health tracking and failover.
	Pool = dnstransport.Pool
	// PoolUpstream names one upstream and how to connect to it.
	PoolUpstream = dnstransport.PoolUpstream
	// PoolConfig tunes a Pool.
	PoolConfig = dnstransport.PoolConfig
	// UpstreamStats snapshots one pooled upstream's health.
	UpstreamStats = dnstransport.UpstreamStats
)

// NewPool builds a pooled resolver over the given upstreams.
func NewPool(upstreams []PoolUpstream, cfg PoolConfig) (*Pool, error) {
	return dnstransport.NewPool(upstreams, cfg)
}

// Adaptive upstream steering, re-exported from internal/steer: the layer
// between the cache and the pool that decides which upstream answers each
// query from a live per-upstream EWMA SRTT + success model. A
// ForwardingProxyConfig selects the policy by name (Policy, HedgeDelay,
// ExploreEvery); these re-exports serve embedders composing the layers by
// hand.
type (
	// Steerer routes queries over a pool's upstreams by policy.
	Steerer = steer.Steerer
	// SteeringPolicy selects failover, fastest or hedged routing.
	SteeringPolicy = steer.Policy
	// SteeringConfig tunes a Steerer.
	SteeringConfig = steer.Config
	// SteeringBackend is the upstream capability a Steerer drives (a *Pool).
	SteeringBackend = steer.Backend
	// SteeringReport is the steering section of a proxy cost report.
	SteeringReport = steer.Report
	// SteeringUpstreamScore is one upstream's live latency/health model.
	SteeringUpstreamScore = steer.UpstreamScore
)

// The steering policies.
const (
	// SteerFailover preserves the pool's static preference order.
	SteerFailover = steer.PolicyFailover
	// SteerFastest routes to the lowest-SRTT upstream with exploration.
	SteerFastest = steer.PolicyFastest
	// SteerHedged races a delayed second exchange, first answer wins.
	SteerHedged = steer.PolicyHedged
)

// ParseSteeringPolicy maps a policy name to its SteeringPolicy.
var ParseSteeringPolicy = steer.ParsePolicy

// NewSteerer wraps a pool (or any SteeringBackend) with a steering layer.
func NewSteerer(backend SteeringBackend, cfg SteeringConfig) *Steerer {
	return steer.New(backend, cfg)
}

// Forwarding proxy, re-exported from internal/proxy.
type (
	// ForwardingProxy serves the full listener set through cache →
	// singleflight → upstream pool.
	ForwardingProxy = proxy.Proxy
	// ForwardingProxyConfig assembles a ForwardingProxy.
	ForwardingProxyConfig = proxy.Config
	// ProxyCostReport is the /debug/cost payload of a ForwardingProxy.
	ProxyCostReport = proxy.CostReport
)

// Per-query lifecycle tracing (internal/qtrace), armed through
// ForwardingProxyConfig.Tracing: every served query records monotonic
// phase spans (parse, guard, cache, steer, hedge legs, dial, upstream,
// write) and a tail-based sampler keeps errored queries, queries slower
// than an adaptive per-class p99, and a 1-in-N healthy baseline in a
// lock-free ring served on /debug/trace.
type (
	// TraceConfig tunes the tracer (zero values take defaults).
	TraceConfig = qtrace.Config
	// QueryTracer owns the sampling policy and kept-trace rings; obtain a
	// ForwardingProxy's with its Tracer method.
	QueryTracer = qtrace.Tracer
	// TraceStats is the sampler's decision counters and live thresholds.
	TraceStats = qtrace.Stats
	// TraceFilter selects traces from the rings.
	TraceFilter = qtrace.Filter
	// TraceView is one kept trace rendered for JSON consumers.
	TraceView = qtrace.View
	// TraceSpanView is one phase interval of a TraceView.
	TraceSpanView = qtrace.SpanView
	// TraceQueryLog is the size-rotated JSONL query log
	// (TraceConfig.Log).
	TraceQueryLog = qtrace.QueryLog
)

// NewQueryTracer builds a standalone tracer, for embedders serving DNS
// without the proxy assembly: install it on a Telemetry sink with
// SetTracer.
func NewQueryTracer(cfg TraceConfig) *QueryTracer { return qtrace.New(cfg) }

// OpenTraceQueryLog opens (appending) a JSONL query log rotated at
// maxBytes (0 = the 64 MiB default), for TraceConfig.Log.
func OpenTraceQueryLog(path string, maxBytes int64) (*TraceQueryLog, error) {
	return qtrace.OpenQueryLog(path, maxBytes)
}

// Abuse guard (internal/guard), armed through ForwardingProxyConfig.Guard:
// per-client response rate limiting with RRL slip/TC=1 on UDP and honest
// REFUSED on stream transports, RFC 7873 server cookies whose holders
// bypass the UDP limits, and a cache-miss circuit breaker in front of the
// upstream path.
type (
	// AbuseGuard is the live guard; obtain a ForwardingProxy's with its
	// Guard method.
	AbuseGuard = guard.Guard
	// AbuseGuardConfig tunes the guard (zero values take defaults).
	AbuseGuardConfig = guard.Config
	// AbuseGuardReport is the guard's decision counters and breaker state.
	AbuseGuardReport = guard.Report
)

// ErrMissBudget is how the guard's circuit breaker refuses a cache miss;
// the serving layer answers REFUSED when an exchange returns it.
var ErrMissBudget = guard.ErrMissBudget

// Resilient upstream connectivity (internal/dialer), wired through
// ForwardingProxyConfig.Dialer / .Bootstrap / .Storm: a Happy-Eyeballs
// (RFC 8305) racing dialer with per-upstream winner memory, a
// reachability prober that seeds the steering scoreboard before the
// listeners come up, and an error-storm detector that triggers re-probes
// on suspected network changes.
type (
	// RacingDialer races IPv4 and IPv6 dial attempts with staggered
	// starts and remembers the winning family per upstream.
	RacingDialer = dialer.HappyEyeballs
	// RacingDialerConfig assembles a RacingDialer.
	RacingDialerConfig = dialer.Config
	// RacingDialerReport is the dialer section of a proxy cost report.
	RacingDialerReport = dialer.Report
	// BootstrapProber sweeps upstream×protocol reachability and caches
	// verdicts.
	BootstrapProber = dialer.Prober
	// BootstrapTarget is one upstream×protocol probe.
	BootstrapTarget = dialer.Target
	// BootstrapVerdict is one cached probe outcome.
	BootstrapVerdict = dialer.Verdict
	// BootstrapReport is the prober's verdict table snapshot.
	BootstrapReport = dialer.ProbeReport
	// ErrorStorm detects runs of consecutive upstream failures and fires
	// a (rate-limited) network-change callback.
	ErrorStorm = dialer.Storm
)

// NewRacingDialer builds a Happy-Eyeballs dialer; Config.Resolve and
// Config.Dial are required.
func NewRacingDialer(cfg RacingDialerConfig) *RacingDialer { return dialer.New(cfg) }

// NewAbuseGuard builds a standalone guard around a telemetry sink (nil is
// fine), for embedders serving DNS without the proxy assembly.
func NewAbuseGuard(cfg AbuseGuardConfig, tel *Telemetry) *AbuseGuard { return guard.New(cfg, tel) }

// Per-query cost telemetry, re-exported from internal/telemetry. A
// ForwardingProxy always carries a Telemetry sink; embedders can also
// build one with NewTelemetry and pass it through ForwardingProxyConfig
// to share a sink across deployments, or register a TransactionListener
// (the DNSSummary idiom) to stream one summary per completed query.
type (
	// Telemetry is the lock-free sharded metrics sink.
	Telemetry = telemetry.Metrics
	// TelemetryOption configures NewTelemetry.
	TelemetryOption = telemetry.Option
	// TelemetrySnapshot is a merged view of a Telemetry at one instant.
	TelemetrySnapshot = telemetry.Snapshot
	// TransactionSummary is one completed query's cost record.
	TransactionSummary = telemetry.Summary
	// TransactionListener receives one TransactionSummary per query.
	TransactionListener = telemetry.Listener
	// TransactionListenerFunc adapts a function to TransactionListener.
	TransactionListenerFunc = telemetry.ListenerFunc
)

// NewTelemetry builds a telemetry sink (one shard per CPU).
func NewTelemetry(opts ...TelemetryOption) *Telemetry { return telemetry.New(opts...) }

// TelemetryWithListener registers a per-transaction listener at
// construction time.
var TelemetryWithListener = telemetry.WithListener

// NewForwardingProxy builds a forwarding proxy from explicit configuration.
func NewForwardingProxy(cfg ForwardingProxyConfig) (*ForwardingProxy, error) {
	return proxy.New(cfg)
}

// StartProxy deploys a forwarding proxy on the environment's network at
// host, forwarding cache misses to the named study resolvers in failover
// order (DoT toward resolvers with TLS deployments, TCP toward the local
// one). The proxy serves UDP/TCP :53, DoT :853 and DoH :443 with its own
// certificate chain, retrievable via ProxyChain for client trust.
func (e *Environment) StartProxy(host string, upstreams ...ResolverHost) (*ForwardingProxy, error) {
	if len(upstreams) == 0 {
		return nil, fmt.Errorf("dohcost: StartProxy needs at least one upstream")
	}
	chain, err := tlsx.GenerateChain(tlsx.CloudflareLike(host))
	if err != nil {
		return nil, err
	}
	var ups []PoolUpstream
	for _, u := range upstreams {
		ups = append(ups, e.poolUpstream(host, u))
	}
	p, err := proxy.New(proxy.Config{
		Upstreams: ups,
		Chain:     chain,
		Endpoints: []dnsserver.Endpoint{{Path: "/dns-query", Wire: true, JSON: true}},
	})
	if err != nil {
		return nil, err
	}
	if err := p.Start(e.topo.Net, host); err != nil {
		p.Close()
		return nil, err
	}
	e.proxies = append(e.proxies, p)
	e.proxyChains = append(e.proxyChains, proxyChain{host: host, chain: chain})
	return p, nil
}

// ProxyChain returns the certificate chain of a proxy started by
// StartProxy, for building DoT/DoH clients that trust it.
func (e *Environment) ProxyChain(host string) *tlsx.Chain {
	for _, pc := range e.proxyChains {
		if pc.host == host {
			return pc.chain
		}
	}
	return nil
}

// ProxyUDP returns a classic UDP resolver toward a proxy started with
// StartProxy, with the same RFC 7766 TCP fallback Environment.UDP wires.
func (e *Environment) ProxyUDP(host string, opts Options) (Resolver, error) {
	pc, err := e.topo.Net.ListenPacket("")
	if err != nil {
		return nil, err
	}
	c := dnstransport.NewUDPClient(pc, netsim.Addr(host+":53"))
	fb := dnstransport.NewTCPClient(func(ctx context.Context) (net.Conn, error) {
		return e.topo.Net.DialContext(ctx, core.ClientHost, host+":53")
	})
	fb.Recorder = opts.Recorder
	c.Fallback = fb
	c.Recorder = opts.Recorder
	return c, nil
}

// ProxyDoH returns a DoH resolver toward a proxy started with StartProxy,
// trusting the proxy's own certificate chain.
func (e *Environment) ProxyDoH(host string, opts Options) (Resolver, error) {
	chain := e.ProxyChain(host)
	if chain == nil {
		return nil, fmt.Errorf("dohcost: no proxy started at %s", host)
	}
	mode := dnstransport.ModeH2
	if opts.HTTP1 {
		mode = dnstransport.ModeH1
	}
	return &dnstransport.DoHClient{
		Dial: func(ctx context.Context) (net.Conn, error) {
			return e.topo.Net.DialContext(ctx, core.ClientHost, host+":443")
		},
		TLS:        chain.ClientConfig(host),
		Mode:       mode,
		Persistent: opts.Persistent,
		Recorder:   opts.Recorder,
	}, nil
}

// poolUpstream wires one study resolver as a pool target: DoT where the
// deployment has a TLS stack, plain TCP otherwise.
func (e *Environment) poolUpstream(from string, host ResolverHost) PoolUpstream {
	return PoolUpstream{Name: string(host), Dial: func(ctx context.Context) (Resolver, error) {
		if c, err := e.topo.DoTResolver(from, string(host)); err == nil {
			return c, nil
		}
		return dnstransport.NewTCPClient(func(ctx context.Context) (net.Conn, error) {
			return e.topo.Net.DialContext(ctx, from, string(host)+":53")
		}), nil
	}}
}

// Network impairment and multi-client load generation, re-exported from
// internal/netsim and internal/loadgen. An ImpairmentProfile names one of
// the degraded access-network regimes ("broadband", "4g", "3g",
// "lossy-wifi", "satellite"); a LoadScenario replays an Alexa-derived
// workload from N concurrent clients against a forwarding proxy over any
// subset of the four transports under one of those profiles.
type (
	// ImpairmentProfile is a named access-network impairment (link delay,
	// jitter, loss, reordering, MTU, bandwidth).
	ImpairmentProfile = netsim.Profile
	// LoadScenario configures one load-generation run.
	LoadScenario = loadgen.Scenario
	// LoadResult is one load-generation run's harvest.
	LoadResult = loadgen.Result
	// TransportLoadResult is one transport's slice of a LoadResult.
	TransportLoadResult = loadgen.TransportResult
	// AttackLoadResult is the flooder population's slice of a LoadResult.
	AttackLoadResult = loadgen.AttackResult
)

// DialFaultProfile is a named dial-level impairment regime for an
// upstream's dual-homed addresses ("broken-v6", "flaky-dial"), applied
// through LoadScenario.DialFault or netsim directly.
type DialFaultProfile = netsim.DialProfile

// Impairment profile registry and scenario rendering, re-exported.
var (
	// ImpairmentProfiles lists the built-in profiles.
	ImpairmentProfiles = netsim.Profiles
	// ImpairmentProfileNames lists the built-in profile names.
	ImpairmentProfileNames = netsim.ProfileNames
	// LookupImpairmentProfile resolves a profile by name.
	LookupImpairmentProfile = netsim.LookupProfile
	// DialFaultProfiles lists the built-in dial-fault profiles.
	DialFaultProfiles = netsim.DialProfiles
	// DialFaultProfileNames lists the built-in dial-fault profile names.
	DialFaultProfileNames = netsim.DialProfileNames
	// LookupDialFaultProfile resolves a dial-fault profile by name.
	LookupDialFaultProfile = netsim.LookupDialProfile
	// RenderScenario formats a LoadResult as a per-transport table.
	RenderScenario = loadgen.Render
)

// RunScenario executes a load-generation scenario: it deploys an upstream
// resolver and a forwarding proxy on a fresh simulated network, applies the
// scenario's impairment profile to every client's access link, replays the
// workload per transport, and harvests the telemetry.
func RunScenario(s LoadScenario) (*LoadResult, error) { return loadgen.Run(s) }

// Experiment results and runners, re-exported from the study core.
type (
	// Figure1Result is the queries-per-page survey (Figure 1).
	Figure1Result = core.Fig1Result
	// Figure2Result is the head-of-line-blocking comparison (Figure 2).
	Figure2Result = core.Fig2Result
	// OverheadResult covers byte/packet/layer costs (Figures 3–5).
	OverheadResult = core.OverheadResult
	// Figure6Result is the page-load study (Figure 6).
	Figure6Result = core.Fig6Result
	// TablesResult is the landscape survey (Tables 1–2).
	TablesResult = core.TableResult
)

// RunFigure1 regenerates Figure 1 (and the §4 corpus statistics).
func RunFigure1(pages int, seed int64) *Figure1Result {
	return core.RunFig1(core.Fig1Config{Pages: pages, Seed: seed})
}

// RunTables regenerates Tables 1 and 2 by deploying and probing the nine
// providers.
func RunTables(seed int64) (*TablesResult, error) { return core.RunTables(seed) }

// RunFigure2 regenerates Figure 2. A zero config runs the paper's
// parameters (100 queries, 10 qps, 1-in-25 delayed 1 s), which takes about
// 80 seconds of real time across the eight runs.
func RunFigure2(cfg core.Fig2Config) (*Figure2Result, error) { return core.RunFig2(cfg) }

// RunOverhead regenerates Figures 3, 4 and 5 over a sample of the synthetic
// Alexa corpus.
func RunOverhead(domains int, seed int64) (*OverheadResult, error) {
	return core.RunOverhead(core.OverheadConfig{Domains: domains, Seed: seed})
}

// RunOverheadUnder is RunOverhead with the client's access link degraded by
// the named impairment profile ("broadband", "4g", "3g", "lossy-wifi",
// "satellite") — the §4 measurements re-run in the regimes where the cost
// ranking shifts.
func RunOverheadUnder(profile string, domains int, seed int64) (*OverheadResult, error) {
	return core.RunOverhead(core.OverheadConfig{Domains: domains, Seed: seed, Profile: profile})
}

// RunFigure6 regenerates Figure 6.
func RunFigure6(cfg core.Fig6Config) (*Figure6Result, error) { return core.RunFig6(cfg) }

// Render functions, re-exported for the cmd tools and examples.
var (
	RenderFigure1  = core.RenderFig1
	RenderFigure2  = core.RenderFig2
	RenderFig3Fig4 = core.RenderFig3Fig4
	RenderFig5     = core.RenderFig5
	RenderFigure6  = core.RenderFig6
	RenderTables   = core.RenderTables
)

// Version identifies the reproduction release.
const Version = "1.0.0"

// String implements fmt.Stringer for ResolverHost.
func (h ResolverHost) String() string { return string(h) }
