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
// Three experiment entry points mirror the paper's artefacts with
// parameters an outside module can pass: RunFigure1, RunTables (Tables
// 1–2) and RunOverhead (Figures 3–5). Each returns a result with a Render
// function producing the rows the paper reports. Figure 2 (head-of-line
// blocking) and Figure 6 (page-load study) are cmd/dohbench and
// cmd/dohpageload.
package dohcost

import (
	"context"
	"fmt"
	"net"

	"dohcost/internal/core"
	"dohcost/internal/dialer"
	"dohcost/internal/dnsserver"
	"dohcost/internal/dnstransport"
	"dohcost/internal/dnswire"
	"dohcost/internal/guard"
	"dohcost/internal/loadgen"
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
	topo    *core.Topology
	proxies []startedProxy
}

// startedProxy is one StartProxy deployment and its certificate material.
type startedProxy struct {
	host  string
	chain *tlsx.Chain
	proxy *proxy.Proxy
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
	for _, sp := range e.proxies {
		sp.proxy.Close()
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

// Forwarding proxy, re-exported from internal/proxy. ForwardingProxyConfig
// is the one configuration surface: it is validated once (its Validate
// method, run first by NewForwardingProxy), and LoadScenario.Proxy carries
// one. The aliases and constants below are what an embedder must be able
// to name to fill it; reports and stats come back as method results
// (CacheStats, UpstreamStats, SteeringReport, CostReport, Guard, Tracer)
// and need no names here.
type (
	// ForwardingProxy serves the full listener set through cache →
	// singleflight → steering → upstream pool.
	ForwardingProxy = proxy.Proxy
	// ForwardingProxyConfig assembles a ForwardingProxy.
	ForwardingProxyConfig = proxy.Config
	// PoolUpstream is one of ForwardingProxyConfig.Upstreams: name and dial.
	PoolUpstream = dnstransport.PoolUpstream
	// PoolConfig tunes the connection pool (ForwardingProxyConfig.Pool).
	PoolConfig = dnstransport.PoolConfig
	// AbuseGuardConfig arms the abuse guard (ForwardingProxyConfig.Guard):
	// per-client response rate limiting with RRL slip/TC=1 on UDP and
	// honest REFUSED on stream transports, RFC 7873 server cookies, and a
	// cache-miss circuit breaker. Zero values take defaults.
	AbuseGuardConfig = guard.Config
	// TraceConfig arms per-query lifecycle tracing
	// (ForwardingProxyConfig.Tracing): phase spans per served query,
	// tail-sampled onto /debug/trace. Zero values take defaults.
	TraceConfig = qtrace.Config
)

// The steering policies (ForwardingProxyConfig.Policy).
const (
	// SteerFailover preserves the pool's static preference order.
	SteerFailover = steer.PolicyFailover
	// SteerFastest routes to the lowest-SRTT upstream with exploration.
	SteerFastest = steer.PolicyFastest
	// SteerHedged races a delayed second exchange, first answer wins.
	SteerHedged = steer.PolicyHedged
)

// OpenTraceQueryLog opens (appending) a JSONL query log rotated at
// maxBytes (0 = the 64 MiB default), for TraceConfig.Log.
func OpenTraceQueryLog(path string, maxBytes int64) (*qtrace.QueryLog, error) {
	return qtrace.OpenQueryLog(path, maxBytes)
}

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
	// BootstrapProber sweeps upstream×protocol reachability and caches
	// verdicts.
	BootstrapProber = dialer.Prober
	// BootstrapTarget is one upstream×protocol probe.
	BootstrapTarget = dialer.Target
	// ErrorStorm detects runs of consecutive upstream failures and fires
	// a (rate-limited) network-change callback.
	ErrorStorm = dialer.Storm
)

// NewRacingDialer builds a Happy-Eyeballs dialer; Config.Resolve and
// Config.Dial are required.
func NewRacingDialer(cfg RacingDialerConfig) *RacingDialer { return dialer.New(cfg) }

// Per-query cost telemetry, re-exported from internal/telemetry. A
// ForwardingProxy always carries a Telemetry sink; embedders can also
// build one with NewTelemetry and pass it through ForwardingProxyConfig
// to share a sink across deployments, or register a TransactionListener
// (the DNSSummary idiom) to read each completed query's record.
type (
	// Telemetry is the lock-free sharded metrics sink.
	Telemetry = telemetry.Metrics
	// TransactionSummary is one completed query's record, the one the
	// tracer samples; a listener gets it only for the call's duration.
	TransactionSummary = qtrace.Record
	// TransactionListener receives one TransactionSummary per query.
	TransactionListener = telemetry.Listener
	// TransactionListenerFunc adapts a function to TransactionListener.
	TransactionListenerFunc = telemetry.ListenerFunc
)

// NewTelemetry builds a telemetry sink (one shard per CPU).
func NewTelemetry() *Telemetry { return telemetry.New() }

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
	e.proxies = append(e.proxies, startedProxy{host: host, chain: chain, proxy: p})
	return p, nil
}

// ProxyChain returns the certificate chain of a proxy started by
// StartProxy, for building DoT/DoH clients that trust it.
func (e *Environment) ProxyChain(host string) *tlsx.Chain {
	for _, sp := range e.proxies {
		if sp.host == host {
			return sp.chain
		}
	}
	return nil
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

// Multi-client load generation, re-exported from internal/loadgen. A
// LoadScenario replays an Alexa-derived workload from N concurrent clients
// against a forwarding proxy over any subset of the four transports, with
// every client's access link degraded by a named impairment profile
// ("broadband", "4g", "3g", "lossy-wifi", "satellite"); its Proxy field is
// the ForwardingProxyConfig of the proxy under test.
type (
	// LoadScenario configures one load-generation run.
	LoadScenario = loadgen.Scenario
	// LoadResult is one load-generation run's harvest.
	LoadResult = loadgen.Result
)

// RenderScenario formats a LoadResult as a per-transport table.
var RenderScenario = loadgen.Render

// RunScenario executes a load-generation scenario: it deploys an upstream
// resolver and a forwarding proxy on a fresh simulated network, applies the
// scenario's impairment profile to every client's access link, replays the
// workload per transport, and harvests the telemetry.
func RunScenario(s LoadScenario) (*LoadResult, error) { return loadgen.Run(s) }

// Experiment results and runners, re-exported from the study core.
type (
	// Figure1Result is the queries-per-page survey (Figure 1).
	Figure1Result = core.Fig1Result
	// OverheadResult covers byte/packet/layer costs (Figures 3–5).
	OverheadResult = core.OverheadResult
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

// Render functions for the results above, re-exported from the study core.
var (
	RenderFigure1  = core.RenderFig1
	RenderFig3Fig4 = core.RenderFig3Fig4
	RenderFig5     = core.RenderFig5
	RenderTables   = core.RenderTables
)
