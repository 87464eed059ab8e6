// Package loadgen drives multi-client workloads against the forwarding
// proxy under configurable network impairment — the scenario harness the
// paper's methodology implies but never ships. Where internal/core replays
// the paper's controlled single-client experiments, loadgen answers the
// production question: with N concurrent stub resolvers on a degraded
// access network (3G, lossy Wi-Fi, satellite, …), how do Do53, TCP, DoT
// and DoH compare on latency, bytes and failure rate?
//
// A Scenario deploys one upstream recursive resolver and one forwarding
// proxy on a simulated network, gives every client its own host (and
// therefore its own deterministically seeded impairment schedule — see
// netsim), and replays an Alexa-derived query workload per transport under
// a closed-loop (send, wait, think) or open-loop (Poisson arrivals)
// model. All reported numbers are harvested from internal/telemetry: each
// client query runs inside its own Transaction, so latency quantiles,
// byte counts, retransmissions, TC fallbacks and failure verdicts come
// from the same accounting subsystem the proxy exposes in production.
//
// Closed-loop runs with one seed reproduce their aggregate counters
// (queries, failures, retransmissions, bytes, cache events) exactly:
// every client's traffic is sequential, so the per-link RNGs replay the
// same loss/jitter/reorder schedule on every run. Open-loop arrivals
// allow in-flight overlap per client, which trades that exactness for
// arrival realism.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/netip"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dohcost/internal/alexa"
	"dohcost/internal/dialer"
	"dohcost/internal/dnsserver"
	"dohcost/internal/dnstransport"
	"dohcost/internal/dnswire"
	"dohcost/internal/netsim"
	"dohcost/internal/proxy"
	"dohcost/internal/qtrace"
	"dohcost/internal/telemetry"
	"dohcost/internal/tlsx"
)

// Simulated host names of a scenario deployment.
const (
	// ProxyHost is where the forwarding proxy serves all four transports.
	ProxyHost = "proxy.dns"
	// UpstreamHost is the recursive resolver behind the proxy.
	UpstreamHost = "recursive.upstream"
)

// Transports lists every transport a Scenario can drive, in the paper's
// comparison order.
var Transports = []string{"udp", "tcp", "dot", "doh"}

// Scenario configures one load-generation run. The zero value is usable:
// defaults are filled by Run.
type Scenario struct {
	// Profile names the netsim impairment profile on every client's access
	// link ("broadband", "4g", "3g", "lossy-wifi", "satellite"); empty runs
	// ideal links. The proxy↔upstream link is always clean — the degraded
	// regime under study is the access network, as in Hounsel et al.
	Profile string
	// Transports is the subset of transports to drive, in order; nil runs
	// all four.
	Transports []string
	// Clients is the number of concurrent simulated clients per transport
	// (default 10). Each client gets its own simulated host.
	Clients int
	// Queries is the total query count per transport, split across clients
	// (default 1000).
	Queries int
	// Seed drives the workload, the arrival processes, and (via netsim)
	// every link's impairment schedule.
	Seed int64
	// Arrival selects the load model: "closed" (default) has each client
	// wait for a response (plus Think) before its next query; "open" issues
	// queries at per-client Poisson arrival times regardless of completions.
	Arrival string
	// Rate is the open-loop per-client arrival rate in queries/second
	// (default 20).
	Rate float64
	// Think is the closed-loop pause between a response and the client's
	// next query (default 0: back-to-back).
	Think time.Duration
	// Names is how many distinct query names each client cycles through
	// (default 16). Smaller means a hotter proxy cache. Names are disjoint
	// across clients and transports, so cache behaviour is per-client
	// deterministic. Ignored when ZipfNames selects the heavy-tailed
	// generator.
	Names int
	// ZipfNames, when positive, replaces the per-client Alexa name cycles
	// with ranks drawn from a Zipf distribution over this many distinct
	// names, shared by all clients of a transport — the heavy-tailed
	// popularity real DoH client traffic shows, and the regime where cache
	// admission policy decides the hit rate. Supports universes of 10M+
	// names (ranks are sampled in closed form, never materialized).
	ZipfNames int
	// ZipfS is the Zipf exponent (default 1.0, the classic web skew).
	ZipfS float64
	// Timeout bounds one whole client query, fallback legs included
	// (default 10s).
	Timeout time.Duration
	// UDPAttemptTimeout is the UDP client's per-attempt wait before it
	// retransmits; zero derives max(6×(profile delay+jitter), 500ms) so
	// impaired paths retry on genuine loss, not on their own tail latency.
	UDPAttemptTimeout time.Duration
	// UpstreamRTT is the clean proxy↔upstream round trip (default 4ms).
	UpstreamRTT time.Duration
	// Upstreams is how many recursive resolvers stand behind the proxy
	// (default 1); the pool prefers them in index order.
	Upstreams int
	// DegradedUpstreamRTT, when positive, slows the FIRST (preferred)
	// upstream's proxy↔upstream link to this round trip while the others
	// keep UpstreamRTT — the one-degraded-upstream regime where steering
	// policies separate: static failover keeps paying the degraded RTT
	// because the upstream still answers, while fastest/hedged route
	// around it.
	DegradedUpstreamRTT time.Duration
	// Attackers, when positive, adds that many flooder clients running
	// concurrently with every transport leg: each blasts random-subdomain
	// queries over UDP (cache-busting — every query is a guaranteed miss)
	// from its own simulated host at AttackQPS. This is the adversarial
	// population the proxy's abuse guard exists for; the flooders' harvest
	// lands in Result.Attack, on a telemetry sink separate from the honest
	// clients'.
	Attackers int
	// AttackQPS is each flooder's target query rate (default 200).
	AttackQPS float64
	// HappyEyeballs dual-homes every upstream (v4.<host> and v6.<host>
	// each run a full resolver) and opens the proxy's upstream
	// connections through the RFC 8305 racing dialer instead of a direct
	// single-homed dial: family-interleaved staggered attempts, first
	// established connection wins, winning family remembered per
	// upstream. This is the substrate the dial-fault scenarios measure
	// recovery on.
	HappyEyeballs bool
	// HEStagger overrides the racing dialer's connection-attempt delay
	// (default dialer.DefaultStagger, the RFC's 250 ms).
	HEStagger time.Duration
	// DialFault names a netsim dial impairment profile ("broken-v6",
	// "flaky-dial") applied to every upstream's address pair. Most
	// profiles need HappyEyeballs set to matter: without dual-homing
	// only the profile's V4 fault lands, on the single-homed host.
	DialFault string
	// FlapAfter, when positive, schedules a link flap on upstream 0 (all
	// of its homes): the link drops FlapAfter after the clients start
	// and recovers after FlapFor (default 100 ms) — the mid-run network
	// change the dialer/pool/steering stack must ride out without
	// client-visible failures.
	FlapAfter time.Duration
	FlapFor   time.Duration
	// BootstrapProbe sweeps upstream reachability through the proxy's
	// bootstrap prober before the listeners come up, seeding the
	// steering scoreboard (and, with HappyEyeballs, warming each
	// upstream's winning-family memory) so the first client queries
	// never explore a dead combination.
	BootstrapProbe bool
	// Proxy configures the forwarding proxy under test — every proxy knob
	// (cache bound and admission, steering policy, serve-stale, guard,
	// tracing, the real-socket UDP listener, …) exactly as proxy.New takes
	// it. Deploy overlays what the topology owns — Upstreams, Chain,
	// Endpoints, Dialer, Bootstrap, Telemetry and the MTU-derived
	// MaxUDPSize — and rejects a scenario that set any of those itself.
	// With Proxy.Tracing armed the harvest grows Result.Cost.Trace and
	// Result.SlowTraces; with Proxy.Guard armed, Result.Cost.Guard.
	Proxy proxy.Config
}

// withDefaults fills unset fields.
func (s Scenario) withDefaults() (Scenario, netsim.Profile, error) {
	var prof netsim.Profile
	if s.Profile != "" {
		p, ok := netsim.LookupProfile(s.Profile)
		if !ok {
			return s, prof, fmt.Errorf("loadgen: unknown impairment profile %q (have %v)", s.Profile, netsim.ProfileNames())
		}
		prof = p
	}
	if s.Transports == nil {
		s.Transports = Transports
	}
	for _, tr := range s.Transports {
		switch tr {
		case "udp", "tcp", "dot", "doh":
		default:
			return s, prof, fmt.Errorf("loadgen: unknown transport %q (have %v)", tr, Transports)
		}
	}
	if s.Clients <= 0 {
		s.Clients = 10
	}
	if s.Queries <= 0 {
		s.Queries = 1000
	}
	switch s.Arrival {
	case "":
		s.Arrival = "closed"
	case "closed", "open":
	default:
		return s, prof, fmt.Errorf("loadgen: unknown arrival model %q (want closed or open)", s.Arrival)
	}
	if s.Rate <= 0 {
		s.Rate = 20
	}
	if s.Names <= 0 {
		s.Names = 16
	}
	if s.ZipfNames > 0 && s.ZipfS <= 0 {
		s.ZipfS = 1.0
	}
	if s.Timeout <= 0 {
		s.Timeout = 10 * time.Second
	}
	if s.UDPAttemptTimeout <= 0 {
		s.UDPAttemptTimeout = 6 * (prof.Link.Delay + prof.Link.Jitter)
		if s.UDPAttemptTimeout < 500*time.Millisecond {
			s.UDPAttemptTimeout = 500 * time.Millisecond
		}
	}
	if s.UpstreamRTT <= 0 {
		s.UpstreamRTT = 4 * time.Millisecond
	}
	if s.Upstreams <= 0 {
		s.Upstreams = 1
	}
	if p := &s.Proxy; p.Upstreams != nil || p.Chain != nil || p.Endpoints != nil || p.Dialer != nil ||
		p.Bootstrap != nil || p.Telemetry != nil || p.MaxUDPSize != 0 {
		return s, prof, errors.New("loadgen: Scenario.Proxy must leave Upstreams, Chain, Endpoints, Dialer, Bootstrap, Telemetry and MaxUDPSize unset: the scenario topology supplies them")
	}
	if s.Attackers > 0 && s.AttackQPS <= 0 {
		s.AttackQPS = 200
	}
	if s.DialFault != "" {
		if _, ok := netsim.LookupDialProfile(s.DialFault); !ok {
			return s, prof, fmt.Errorf("loadgen: unknown dial fault profile %q (have %v)", s.DialFault, netsim.DialProfileNames())
		}
	}
	if s.HEStagger != 0 && !s.HappyEyeballs {
		return s, prof, errors.New("loadgen: HEStagger (-he-stagger) tunes the HappyEyeballs (-he) racing dialer and does nothing without it")
	}
	if s.FlapFor != 0 && s.FlapAfter <= 0 {
		return s, prof, errors.New("loadgen: FlapFor (-flap-for) is the length of the FlapAfter (-flap-after) outage and does nothing without it")
	}
	if s.FlapAfter > 0 && s.FlapFor <= 0 {
		s.FlapFor = 100 * time.Millisecond
	}
	return s, prof, nil
}

// TransportResult is one transport's harvest, sourced from the client-side
// telemetry sink (one Transaction per query).
type TransportResult struct {
	// Transport is "udp", "tcp", "dot" or "doh".
	Transport string `json:"transport"`
	// Queries is the number of completed transactions.
	Queries uint64 `json:"queries"`
	// Failures counts queries that errored, timed out, or returned a
	// non-success RCode.
	Failures uint64 `json:"failures"`
	// UDPRetransmits counts query attempts re-sent after per-attempt
	// timeouts (UDP only; loss made visible).
	UDPRetransmits uint64 `json:"udp_retransmits"`
	// TCFallbacks counts truncated UDP answers retried over TCP.
	TCFallbacks uint64 `json:"tc_fallbacks"`
	// BytesSent and BytesReceived are DNS message bytes on the client side
	// (retransmitted attempts count each time).
	BytesSent     uint64 `json:"bytes_sent"`
	BytesReceived uint64 `json:"bytes_received"`
	// P50Ms, P95Ms, P99Ms and MeanMs summarize client-observed resolution
	// latency in milliseconds.
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MeanMs float64 `json:"mean_ms"`
	// Elapsed is the wall-clock span of the transport's run; QPS is
	// Queries/Elapsed.
	Elapsed time.Duration `json:"elapsed_ns"`
	QPS     float64       `json:"qps"`
}

// AttackResult is the flooder population's harvest: how the guard
// disposed of the flood, as observed from the attacking clients. Refused
// and Truncated are the guard's explicit verdicts (breaker REFUSED,
// RRL slip with TC=1); Dropped are queries that drew no response before
// the flooder's per-query timeout — the silently rate-limited majority.
type AttackResult struct {
	Attackers int    `json:"attackers"`
	Queries   uint64 `json:"queries"`
	Answered  uint64 `json:"answered"`
	Refused   uint64 `json:"refused"`
	Truncated uint64 `json:"truncated"`
	Dropped   uint64 `json:"dropped"`
}

// Result is one scenario run: per-transport client-side harvests plus the
// proxy's own server-side view of the same traffic.
type Result struct {
	// Scenario echoes the configuration with defaults resolved.
	Scenario Scenario `json:"scenario"`
	// Profile is the resolved impairment profile (zero Name on ideal links).
	Profile netsim.Profile `json:"profile"`
	// PerTransport holds one harvest per driven transport, in run order.
	PerTransport []TransportResult `json:"per_transport"`
	// Cost is the proxy's cost report at the end of the run, as
	// /debug/cost would serve it: telemetry, cache, per-upstream pool
	// health, steering, and — when armed — guard, dialer, bootstrap and
	// trace sections.
	Cost proxy.CostReport `json:"cost"`
	// Attack is the flooder population's harvest; nil without Attackers.
	Attack *AttackResult `json:"attack,omitempty"`
	// SlowTraces is the slow-trace digest: the slowest sampled traces of
	// the run (up to five), phase spans included, slowest first. Nil
	// without Scenario.Proxy.Tracing.
	SlowTraces []qtrace.View `json:"slow_traces,omitempty"`
}

// Deployment is a scenario's testbed, up and serving: the simulated
// network, the upstream recursive resolvers (dual-homed under
// HappyEyeballs), the racing dialer and bootstrap prober when asked for,
// and the started forwarding proxy; Resolver opens the clients that query
// it. It is the only simulated proxy testbed in the tree: Run drives it and
// harvests, cmd/dohproxy additionally serves Proxy.Observability() on a
// real socket, and the proxy's tests and benchmarks deploy through it too.
//
// Everything a test needs beyond Run is an accessor: Net for faults and
// links, Chain for TLS clients of its own, Resolver for the clients Run
// uses, and Upstreams for each resolver's served-query count and its
// Close. A topology a Scenario cannot express stays outside; Deploy grows
// no field for one test.
type Deployment struct {
	// Proxy is the started forwarding proxy under test.
	Proxy *proxy.Proxy

	s         Scenario // defaults resolved
	prof      netsim.Profile
	net       *netsim.Network
	chain     *tlsx.Chain
	upstreams []*Upstream
	flapHosts []string
}

// Upstream is one recursive resolver behind a Deployment's proxy, on one
// home or, under HappyEyeballs, on two.
type Upstream struct {
	// Host is the name the proxy's pool and steering report it by.
	Host    string
	queries atomic.Int64
	runs    []*dnsserver.Running
}

// Queries is how many queries the resolver has answered, bootstrap probes
// included, counted in its handler.
func (u *Upstream) Queries() int64 { return u.queries.Load() }

// Close takes the resolver down on every home, as a crash would: its
// listeners and open connections close.
func (u *Upstream) Close() {
	for _, r := range u.runs {
		r.Close()
	}
}

// Net is the simulated network the deployment runs on.
func (d *Deployment) Net() *netsim.Network { return d.net }

// Chain is the proxy's TLS chain, which DoT and DoH clients trust.
func (d *Deployment) Chain() *tlsx.Chain { return d.chain }

// Upstreams lists the recursive resolvers in the pool's preference order.
func (d *Deployment) Upstreams() []*Upstream { return d.upstreams }

// Run executes the scenario and returns the harvest: Deploy, drive, Close.
func Run(s Scenario) (*Result, error) {
	d, err := Deploy(s)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	return d.Run()
}

// Deploy builds the scenario's testbed and starts the proxy. Close
// releases it, whether or not Run was called.
func Deploy(s Scenario) (_ *Deployment, err error) {
	s, prof, err := s.withDefaults()
	if err != nil {
		return nil, err
	}
	n := netsim.New(s.Seed)
	if s.Profile != "" {
		for c := 0; c < s.Clients; c++ {
			n.ApplyProfile(clientHost(c), ProxyHost, prof)
		}
	}
	d := &Deployment{s: s, prof: prof, net: n}
	defer func() {
		if err != nil {
			d.Close() // whatever was started before the failure
		}
	}()

	// The shared metrics sink: the proxy's server-side view, also fed by
	// the racing dialer's per-family attempt counters.
	tel := telemetry.New()
	var he *dialer.HappyEyeballs
	if s.HappyEyeballs {
		he = dialer.New(dialer.Config{
			Resolve: func(ctx context.Context, host string) ([]string, []string, error) {
				return []string{"v4." + host + ":53"}, []string{"v6." + host + ":53"}, nil
			},
			Dial: func(ctx context.Context, addr string) (net.Conn, error) {
				return n.DialContext(ctx, ProxyHost, addr)
			},
			Stagger: s.HEStagger,
			// Lead with v6, as RFC 8305 clients do — which is exactly what
			// makes the broken-v6 profile interesting.
			PreferV6:  true,
			Telemetry: tel,
		})
	}

	cfg := s.Proxy
	cfg.Dialer = he
	for i := 0; i < s.Upstreams; i++ {
		uhost := upstreamHost(i)
		rtt := s.UpstreamRTT
		if i == 0 && s.DegradedUpstreamRTT > 0 {
			rtt = s.DegradedUpstreamRTT
		}
		homes := []string{uhost}
		if s.HappyEyeballs {
			homes = []string{"v4." + uhost, "v6." + uhost}
		}
		up := &Upstream{Host: uhost}
		d.upstreams = append(d.upstreams, up)
		answer := dnsserver.Static(netip.MustParseAddr("192.0.2.53"), 300)
		counted := dnsserver.HandlerFunc(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
			up.queries.Add(1)
			return answer.ServeDNS(ctx, q)
		})
		for _, home := range homes {
			n.SetLink(ProxyHost, home, netsim.Link{Delay: rtt / 2})
			upRun, err := (&dnsserver.Server{Handler: counted}).Start(n, home)
			if err != nil {
				return nil, fmt.Errorf("loadgen: starting upstream %s: %w", home, err)
			}
			up.runs = append(up.runs, upRun)
		}
		if s.DialFault != "" {
			dp, _ := netsim.LookupDialProfile(s.DialFault)
			if s.HappyEyeballs {
				n.ApplyDialProfile("v4."+uhost, "v6."+uhost, dp)
			} else {
				n.SetDialFault(uhost, dp.V4)
			}
		}
		if s.FlapAfter > 0 && i == 0 {
			d.flapHosts = homes
		}
		dialConn := func(ctx context.Context) (net.Conn, error) {
			if he != nil {
				return he.DialContext(ctx, uhost)
			}
			return n.DialContext(ctx, ProxyHost, uhost+":53")
		}
		cfg.Upstreams = append(cfg.Upstreams, dnstransport.PoolUpstream{
			Name: uhost,
			Dial: func(ctx context.Context) (dnstransport.Resolver, error) {
				return dnstransport.NewTCPClient(dialConn), nil
			},
		})
		if s.BootstrapProbe {
			if cfg.Bootstrap == nil {
				cfg.Bootstrap = &dialer.Prober{Timeout: 2 * time.Second}
			}
			cfg.Bootstrap.Targets = append(cfg.Bootstrap.Targets, dialer.Target{
				Upstream: uhost,
				Proto:    "tcp",
				Probe: func(ctx context.Context) (time.Duration, error) {
					r := dnstransport.NewTCPClient(dialConn)
					defer r.Close()
					t0 := time.Now()
					resp, err := r.Exchange(ctx, dnswire.NewQuery(0, "probe.bootstrap.invalid.", dnswire.TypeA))
					if err != nil {
						return 0, err
					}
					if resp.RCode != dnswire.RCodeSuccess {
						return 0, fmt.Errorf("probe rcode %v", resp.RCode)
					}
					return time.Since(t0), nil
				},
			})
		}
	}

	if d.chain, err = tlsx.GenerateChain(tlsx.CloudflareLike(ProxyHost)); err != nil {
		return nil, err
	}
	cfg.Chain = d.chain
	cfg.Endpoints = []dnsserver.Endpoint{{Path: "/dns-query", Wire: true, JSON: true}}
	cfg.Telemetry = tel
	if prof.Link.MTU > 0 {
		// Clamp UDP responses to the path MTU so oversized answers come
		// back as honest TC=1 (driving the RFC 7766 TCP fallback) instead
		// of being blackholed by the link.
		cfg.MaxUDPSize = prof.Link.MTU - netsim.DatagramHeaderBytes
	}
	if d.Proxy, err = proxy.New(cfg); err != nil {
		return nil, err
	}
	if err = d.Proxy.Start(n, ProxyHost); err != nil {
		return nil, err
	}
	return d, nil
}

// Close stops the proxy and the upstream resolvers.
func (d *Deployment) Close() {
	if d.Proxy != nil {
		d.Proxy.Close()
	}
	for _, up := range d.upstreams {
		up.Close()
	}
}

// Run replays the scenario's workload against the deployment, one
// transport leg after another, and harvests both sides' telemetry. A
// Deployment is driven once.
func (d *Deployment) Run() (*Result, error) {
	s, n, p := d.s, d.net, d.Proxy

	// The shared third-party pool gives clients realistic name popularity;
	// the per-client prefix (see clientNames) keeps cache interaction
	// deterministic by construction. The Zipf generator needs no corpus:
	// names are rendered from sampled ranks on the fly.
	var domains []string
	if s.ZipfNames <= 0 {
		corpus := alexa.Generate(alexa.Config{Pages: s.Clients*s.Names/15 + 20, Seed: s.Seed})
		domains = corpus.AllDomains()
	}

	res := &Result{Scenario: s, Profile: d.prof}

	// The flooders run for the whole scenario, overlapping every honest
	// transport leg — the regime the guard's fairness claim is about.
	var (
		atk     attackCounters
		atkStop chan struct{}
		atkWG   sync.WaitGroup
	)
	if s.Attackers > 0 {
		atkStop = make(chan struct{})
		for a := 0; a < s.Attackers; a++ {
			atkWG.Add(1)
			go func(a int) {
				defer atkWG.Done()
				runAttacker(n, s, a, atkStop, &atk)
			}(a)
		}
	}

	// Arm the mid-run flap now, not at topology-build time: the windows
	// offset from this call, so FlapAfter counts from (just before) the
	// moment clients start issuing queries.
	for _, h := range d.flapHosts {
		n.SetLinkFlap(h, netsim.FlapWindow{Start: s.FlapAfter, End: s.FlapAfter + s.FlapFor})
	}

	for _, tr := range s.Transports {
		trRes, err := d.runTransport(tr, domains)
		if err != nil {
			if atkStop != nil {
				close(atkStop)
				atkWG.Wait()
			}
			return nil, fmt.Errorf("loadgen: transport %s: %w", tr, err)
		}
		res.PerTransport = append(res.PerTransport, trRes)
	}
	if atkStop != nil {
		close(atkStop)
		atkWG.Wait()
		res.Attack = &AttackResult{
			Attackers: s.Attackers,
			Queries:   atk.queries.Load(),
			Answered:  atk.answered.Load(),
			Refused:   atk.refused.Load(),
			Truncated: atk.truncated.Load(),
			Dropped:   atk.dropped.Load(),
		}
	}
	res.Cost = p.CostReport()
	if tr := p.Tracer(); tr != nil {
		res.SlowTraces = slowestTraces(tr, 5)
	}
	return res, nil
}

// slowestTraces digests the tracer's ring into the n slowest sampled
// traces of the run, slowest first — the queries worth a human's
// attention after a scenario, phase spans included.
func slowestTraces(tr *qtrace.Tracer, n int) []qtrace.View {
	// Limit well past any ring capacity: the digest wants the global
	// slowest, not the newest page.
	views := tr.Traces(qtrace.Filter{Limit: 1 << 20})
	sort.Slice(views, func(i, j int) bool { return views[i].DurationMs > views[j].DurationMs })
	if len(views) > n {
		views = views[:n]
	}
	return views
}

// attackCounters is the flooder population's shared harvest, written by
// every attacker goroutine.
type attackCounters struct {
	queries, answered, refused, truncated, dropped atomic.Uint64
}

// attackerHost names flooder a's simulated host — distinct from every
// honest client's host, so the guard sees the flood as its own client
// identities.
func attackerHost(a int) string { return fmt.Sprintf("atk%d", a) }

// attackTimeout is how long a flooder waits for any one response; guard
// drops leave it to expire, so it stays short to keep the flood flowing.
const attackTimeout = 250 * time.Millisecond

// runAttacker floods the proxy's UDP listener with random-subdomain
// queries at ~s.AttackQPS until stop closes. Every name is unique, so
// every admitted query is a cache miss headed for the upstream — the
// cache-busting flood the miss breaker exists to absorb. Responses are
// classified into the shared counters; errors (dominated by guard drops
// timing out) count as Dropped.
func runAttacker(n *netsim.Network, s Scenario, a int, stop <-chan struct{}, res *attackCounters) {
	host := attackerHost(a)
	pc, err := n.ListenPacket(fmt.Sprintf("%s:%d", host, 5353))
	if err != nil {
		return
	}
	u := dnstransport.NewUDPClient(pc, netsim.Addr(ProxyHost+":53"))
	u.Timeout = attackTimeout
	u.Retries = 0
	defer u.Close()

	rng := rand.New(rand.NewSource(s.Seed ^ 0x6174746b ^ int64(a)<<32))
	// Queries go out in small per-tick bursts rather than one per tick:
	// a per-query timer at flood rates would be at the mercy of timer
	// granularity and quietly undershoot the target QPS.
	const atkTick = 2 * time.Millisecond
	batch := int(s.AttackQPS*atkTick.Seconds() + 0.5)
	if batch < 1 {
		batch = 1
	}
	// In-flight queries are bounded so a fully-dropped flood (every query
	// waiting out attackTimeout) throttles instead of accumulating
	// goroutines without limit.
	sem := make(chan struct{}, 256)
	var qwg sync.WaitGroup
	tick := time.NewTicker(atkTick)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			qwg.Wait()
			return
		case <-tick.C:
		}
		for b := 0; b < batch; b++ {
			select {
			case sem <- struct{}{}:
			case <-stop:
				qwg.Wait()
				return
			}
			name := dnswire.Name(fmt.Sprintf("x%08x.flood-a%d.invalid.", rng.Uint32(), a))
			qwg.Add(1)
			go func(name dnswire.Name) {
				defer qwg.Done()
				defer func() { <-sem }()
				res.queries.Add(1)
				ctx, cancel := context.WithTimeout(context.Background(), attackTimeout)
				defer cancel()
				resp, err := u.Exchange(ctx, dnswire.NewQuery(0, name, dnswire.TypeA))
				switch {
				case err != nil:
					res.dropped.Add(1)
				case resp.Truncated:
					res.truncated.Add(1)
				case resp.RCode == dnswire.RCodeRefused:
					res.refused.Add(1)
				default:
					res.answered.Add(1)
				}
			}(name)
		}
	}
}

// clientHost names client c's simulated host. Every client owning its own
// host is what gives it a private access link — and with it a private,
// seed-stable impairment schedule.
func clientHost(c int) string { return fmt.Sprintf("c%d", c) }

// upstreamHost names upstream i's simulated host; upstream 0 keeps the
// historical single-upstream name.
func upstreamHost(i int) string {
	if i == 0 {
		return UpstreamHost
	}
	return fmt.Sprintf("recursive%d.upstream", i)
}

// clientNames builds client c's query-name cycle for one transport:
// Alexa-derived base domains under a client+transport-unique label, so no
// two clients (and no two transports) ever contend for a cache entry.
func clientNames(tr string, c, count int, domains []string) []dnswire.Name {
	names := make([]dnswire.Name, count)
	for j := 0; j < count; j++ {
		d := domains[(c*count+j)%len(domains)]
		names[j] = dnswire.Name(fmt.Sprintf("%s-c%d.%s.", tr, c, d))
	}
	return names
}

// transportSeed decorrelates the per-client workload RNG across transports
// (open-loop arrival schedules must differ between, say, the udp and doh
// legs of one scenario).
func transportSeed(tr string) int64 {
	h := fnv.New64a()
	io.WriteString(h, tr)
	return int64(h.Sum64() >> 1)
}

// protoFor maps a transport label to its telemetry proto.
func protoFor(tr string) telemetry.Proto {
	switch tr {
	case "udp":
		return telemetry.ProtoUDP
	case "dot":
		return telemetry.ProtoDoT
	case "doh":
		return telemetry.ProtoDoH
	}
	return telemetry.ProtoTCP
}

// runTransport drives one transport's full workload and harvests its
// client-side telemetry sink.
func (d *Deployment) runTransport(tr string, domains []string) (TransportResult, error) {
	s, m := d.s, telemetry.New()
	proto := protoFor(tr)

	var wg sync.WaitGroup
	errs := make(chan error, s.Clients)
	start := time.Now()
	for c := 0; c < s.Clients; c++ {
		count := s.Queries / s.Clients
		if c < s.Queries%s.Clients {
			count++
		}
		if count == 0 {
			continue
		}
		var names []dnswire.Name
		if s.ZipfNames <= 0 {
			names = clientNames(tr, c, s.Names, domains)
		}
		wg.Add(1)
		go func(c, count int, names []dnswire.Name) {
			defer wg.Done()
			if err := d.runClient(tr, m, proto, c, count, names); err != nil {
				errs <- fmt.Errorf("client %d: %w", c, err)
			}
		}(c, count, names)
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errs:
		return TransportResult{}, err
	default:
	}

	snap := m.Snapshot()
	out := TransportResult{
		Transport:      tr,
		UDPRetransmits: snap.UDPRetransmits,
		TCFallbacks:    snap.TCFallbacks,
		BytesSent:      snap.UpstreamBytesSent,
		BytesReceived:  snap.UpstreamBytesReceived,
		Elapsed:        elapsed,
	}
	for _, v := range snap.Queries {
		out.Queries += v
	}
	for verdict, v := range snap.Verdicts {
		if verdict != telemetry.VerdictOK.String() {
			out.Failures += v
		}
	}
	// All of this transport's transactions live in one proto bucket: the
	// proto is fixed at Begin, so even a UDP query that completed over the
	// TCP fallback is charged to the udp series.
	if d := snap.Latency[proto.String()]; d != nil {
		out.P50Ms, out.P95Ms, out.P99Ms, out.MeanMs = d.P50Ms, d.P95Ms, d.P99Ms, d.MeanMs
	}
	if elapsed > 0 {
		out.QPS = float64(out.Queries) / elapsed.Seconds()
	}
	return out, nil
}

// runClient executes one client's share of the workload: resolver setup,
// then closed- or open-loop query issue.
func (d *Deployment) runClient(tr string, m *telemetry.Metrics, proto telemetry.Proto, c, count int, names []dnswire.Name) error {
	r, err := d.Resolver(tr, c)
	if err != nil {
		return err
	}
	defer r.Close()
	s := d.s

	rng := rand.New(rand.NewSource(s.Seed + 7919*int64(c) + transportSeed(tr)))
	// nextName picks query i's name: a rank sampled from the shared Zipf
	// universe (rendered with a transport prefix so the scenario's legs
	// never share cache entries), or the client's private Alexa cycle. It
	// runs on the issuing goroutine — rng is not safe for concurrent use,
	// so open-loop mode samples before spawning the query goroutine.
	var zipf *Zipf
	if s.ZipfNames > 0 {
		zipf = NewZipf(s.ZipfNames, s.ZipfS)
	}
	nextName := func(i int) dnswire.Name {
		if zipf != nil {
			return dnswire.Name(fmt.Sprintf("%s-%s", tr, ZipfName(zipf.Rank(rng))))
		}
		return names[i%len(names)]
	}
	if s.Arrival == "open" {
		t0 := time.Now()
		var qwg sync.WaitGroup
		at := time.Duration(0)
		for i := 0; i < count; i++ {
			at += time.Duration(rng.ExpFloat64() / s.Rate * float64(time.Second))
			name := nextName(i)
			qwg.Add(1)
			go func(at time.Duration, name dnswire.Name) {
				defer qwg.Done()
				time.Sleep(time.Until(t0.Add(at)))
				query(m, proto, r, name, s.Timeout)
			}(at, name)
		}
		qwg.Wait()
		return nil
	}
	for i := 0; i < count; i++ {
		query(m, proto, r, nextName(i), s.Timeout)
		if s.Think > 0 {
			time.Sleep(s.Think)
		}
	}
	return nil
}

// query runs one resolution inside its own telemetry Transaction: the
// transport layers annotate bytes and retransmissions through the context,
// and the verdict records success, failure or non-success RCode.
func query(m *telemetry.Metrics, proto telemetry.Proto, r dnstransport.Resolver, name dnswire.Name, timeout time.Duration) {
	tx := m.Begin(proto)
	defer tx.Finish()
	ctx, cancel := context.WithTimeout(telemetry.NewContext(context.Background(), tx), timeout)
	defer cancel()
	resp, err := r.Exchange(ctx, dnswire.NewQuery(0, name, dnswire.TypeA))
	switch {
	case err != nil:
		tx.SetVerdict(telemetry.VerdictServFail)
	case resp.RCode != dnswire.RCodeSuccess:
		tx.SetVerdict(telemetry.VerdictServFail)
	default:
		tx.SetVerdict(telemetry.VerdictOK)
	}
}

// udpRetries is how many retransmissions follow a timed-out UDP attempt:
// the stub-resolver classic.
const udpRetries = 2

// Resolver opens client c's resolver toward the proxy over transport tr
// ("udp", "tcp", "dot" or "doh"), from c's own host: the access link and
// the UDP retry schedule are the scenario's, and UDP carries the RFC 7766
// TCP fallback for truncated answers. One UDP resolver per client is open
// at a time; it binds the client host's port 5353. The caller closes it.
func (d *Deployment) Resolver(tr string, c int) (dnstransport.Resolver, error) {
	n, chain, s, host := d.net, d.chain, d.s, clientHost(c)
	dial53 := func(ctx context.Context) (net.Conn, error) { return n.DialContext(ctx, host, ProxyHost+":53") }
	switch tr {
	case "udp":
		pc, err := n.ListenPacket(fmt.Sprintf("%s:%d", host, 5353))
		if err != nil {
			return nil, err
		}
		u := dnstransport.NewUDPClient(pc, netsim.Addr(ProxyHost+":53"))
		u.Timeout = s.UDPAttemptTimeout
		u.Retries = udpRetries
		u.Fallback = dnstransport.NewTCPClient(dial53)
		return u, nil
	case "tcp":
		return dnstransport.NewTCPClient(dial53), nil
	case "dot":
		return dnstransport.NewDoTClient(func(ctx context.Context) (net.Conn, error) {
			return n.DialContext(ctx, host, ProxyHost+":853")
		}, chain.ClientConfig(ProxyHost)), nil
	case "doh":
		return &dnstransport.DoHClient{
			Dial:       func(ctx context.Context) (net.Conn, error) { return n.DialContext(ctx, host, ProxyHost+":443") },
			TLS:        chain.ClientConfig(ProxyHost),
			Mode:       dnstransport.ModeH2,
			Persistent: true,
		}, nil
	}
	return nil, fmt.Errorf("unknown transport %q", tr)
}

// Render formats the result as the comparison table the paper's figures
// distil: one row per transport, latency quantiles, wire bytes, failures.
func Render(r *Result) string {
	var sb strings.Builder
	label := r.Profile.Name
	if label == "" {
		label = "ideal"
	}
	fmt.Fprintf(&sb, "scenario: %d clients × %s arrivals, %d queries/transport, profile %s, policy %s, seed %d\n",
		r.Scenario.Clients, r.Scenario.Arrival, r.Scenario.Queries, label, r.Cost.Steering.Policy, r.Scenario.Seed)
	if r.Profile.Name != "" {
		fmt.Fprintf(&sb, "access link: %s\n", r.Profile)
	}
	fmt.Fprintf(&sb, "\n%-6s %8s %8s %8s %8s | %9s %9s %9s | %11s %8s\n",
		"proto", "queries", "fail", "rexmit", "tc-tcp", "p50", "p95", "p99", "bytes", "qps")
	for _, t := range r.PerTransport {
		fmt.Fprintf(&sb, "%-6s %8d %8d %8d %8d | %7.1fms %7.1fms %7.1fms | %11d %8.0f\n",
			t.Transport, t.Queries, t.Failures, t.UDPRetransmits, t.TCFallbacks,
			t.P50Ms, t.P95Ms, t.P99Ms, t.BytesSent+t.BytesReceived, t.QPS)
	}
	cs := r.Cost.Cache
	if a := r.Attack; a != nil {
		fmt.Fprintf(&sb, "\nattack: %d flooders, %d queries → %d answered / %d refused / %d tc-slipped / %d dropped\n",
			a.Attackers, a.Queries, a.Answered, a.Refused, a.Truncated, a.Dropped)
	}
	if g := r.Cost.Guard; g != nil {
		fmt.Fprintf(&sb, "guard: %d allowed / %d dropped / %d slipped / %d refused (%d breaker), %d cookies issued, %d validated\n",
			g.Allowed, g.Drops, g.Slips, g.Refusals, g.BreakerRefusals, g.CookiesIssued, g.CookiesValidated)
	}
	if d := r.Cost.Dialer; d != nil {
		fmt.Fprintf(&sb, "dialer: %.0fms stagger", d.StaggerMs)
		for _, h := range d.Hosts {
			w := h.Winner
			if w == "" {
				w = "none"
			}
			fmt.Fprintf(&sb, "; %s→%s", h.Host, w)
		}
		sb.WriteString("\n")
	}
	if b := r.Cost.Bootstrap; b != nil {
		fmt.Fprintf(&sb, "bootstrap: %d sweeps", b.Sweeps)
		for _, v := range b.Verdicts {
			state := "dead"
			if v.OK {
				state = fmt.Sprintf("%.1fms", v.RTTMs)
			}
			fmt.Fprintf(&sb, "; %s/%s %s", v.Upstream, v.Proto, state)
		}
		sb.WriteString("\n")
	}
	if t := r.Cost.Trace; t != nil {
		fmt.Fprintf(&sb, "trace: %d offered, kept %d errored / %d slow / %d baseline, %d ring-dropped\n",
			t.Offered, t.KeptErrored, t.KeptSlow, t.KeptBaseline, t.RingDropped)
		for _, v := range r.SlowTraces {
			fmt.Fprintf(&sb, "slowest: %-4s %-24s %7.1fms verdict=%s", v.Proto, v.QName, v.DurationMs, v.Verdict)
			for _, sp := range v.Spans {
				fmt.Fprintf(&sb, " %s=%.1fms", sp.Phase, sp.DurMs)
			}
			sb.WriteString("\n")
		}
	}
	fmt.Fprintf(&sb, "\nproxy: %d hits / %d stale / %d misses / %d coalesced (%.1f%% hit rate)",
		cs.Hits, cs.StaleHits, cs.Misses, cs.Coalesced, cs.HitRatio*100)
	tel := r.Cost.Telemetry
	if tel != nil {
		fmt.Fprintf(&sb, "; upstream %d exchanges, %d B up, %d B down\n",
			tel.PoolExchanges, tel.UpstreamBytesSent, tel.UpstreamBytesReceived)
	} else {
		sb.WriteString("\n")
	}
	if b := r.Scenario.Proxy.CacheBudget; b > 0 {
		fmt.Fprintf(&sb, "cache budget: %d B live of %d B, %d evictions, %d admission rejects, %d arena epochs\n",
			cs.BytesLive, b, cs.Evictions, cs.AdmissionRejects, cs.ArenaEpochs)
	}
	for _, u := range r.Cost.Upstreams {
		state := "up"
		if u.Down {
			state = "down"
		}
		fmt.Fprintf(&sb, "upstream %-22s %5d exchanges, %d failures, %s\n", u.Name, u.Exchanges, u.Failures, state)
	}
	for _, u := range r.Cost.Steering.Upstreams {
		fmt.Fprintf(&sb, "steer    %-22s srtt %.2fms ±%.2fms, success %.2f (%d samples)\n",
			u.Name, u.SRTTMs, u.RTTVarMs, u.SuccessRate, u.Samples)
	}
	if tel == nil {
		return sb.String()
	}
	// The proxy's own view of the same workload: accept-to-response latency
	// per listener transport, beside the client-observed table above.
	for _, proto := range Transports {
		if d := tel.Latency[proto]; d != nil {
			fmt.Fprintf(&sb, "server   %-4s %8d queries | %7.2fms %7.2fms %7.2fms (p50 p95 p99)\n",
				proto, d.Count, d.P50Ms, d.P95Ms, d.P99Ms)
		}
	}
	for _, fam := range []string{"v4", "v6", "unknown"} {
		if d := tel.Dials[fam]; d != nil {
			fmt.Fprintf(&sb, "dials    %-7s ok=%d error=%d backoff=%d wins=%d\n",
				fam, d["ok"], d["error"], d["backoff"], tel.DialWins[fam])
		}
	}
	return sb.String()
}
