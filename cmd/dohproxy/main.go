// Command dohproxy runs the production forwarding proxy on the simulated
// network: a full listener set (UDP/TCP :53, DoT :853, DoH :443) answering
// through the sharded cache, singleflight, and a pool of persistent
// upstream connections with failover — then drives a workload through every
// transport and reports latencies, cache effectiveness and upstream health.
//
// The proxy's per-query cost telemetry is exposed on a real (not
// simulated) HTTP socket while the tool runs: -metrics-addr serves
// Prometheus text on /metrics and the JSON cost report on /debug/cost,
// and -hold keeps the process alive after the workload so both can be
// curled; -cost-json prints the /debug/cost payload to stdout at exit.
//
// Usage:
//
//	dohproxy [-host proxy.dns] [-upstreams 2] [-conns 2] [-shards 16]
//	         [-cache-budget 64m] [-cache-admission tinylfu]
//	         [-names 50] [-queries 400] [-upstream-rtt 8ms]
//	         [-policy failover|fastest|hedged] [-hedge-delay 25ms]
//	         [-serve-stale 1m] [-prefetch 10s]
//	         [-udp-batch 32] [-udp-listen 127.0.0.1:5300] [-udp-shards 4]
//	         [-guard] [-guard-qps 50] [-guard-burst 100] [-guard-slip 2]
//	         [-guard-miss-rate 20] [-guard-inflight-miss 1024] [-guard-no-cookies]
//	         [-he] [-he-stagger 250ms] [-bootstrap-probe]
//	         [-trace] [-trace-sample 64] [-query-log trace.jsonl] [-slow-ms 50]
//	         [-pprof] [-metrics-addr 127.0.0.1:9090] [-hold 30s] [-cost-json]
//
// With -trace, every query records phase spans (parse, guard, cache,
// steer, dial, upstream, write) and the tail sampler keeps errored, slow
// and 1-in-N baseline traces on /debug/trace; -slow-ms additionally
// prints one console line per over-threshold query with its phase
// breakdown, and -query-log appends every kept trace as JSONL.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/netip"
	"os"
	"time"

	"dohcost/internal/dialer"
	"dohcost/internal/dnscache"
	"dohcost/internal/dnsserver"
	"dohcost/internal/dnstransport"
	"dohcost/internal/dnswire"
	"dohcost/internal/guard"
	"dohcost/internal/netsim"
	"dohcost/internal/proxy"
	"dohcost/internal/qtrace"
	"dohcost/internal/stats"
	"dohcost/internal/telemetry"
	"dohcost/internal/tlsx"
)

// options carries the parsed flag set; run takes it whole so call sites
// stay self-describing as flags accumulate.
type options struct {
	host           string
	upstreams      int
	conns          int
	shards         int
	cacheBudget    string
	cacheAdmission string
	names          int
	queries        int
	upstreamRTT    time.Duration
	policy         string
	hedgeDelay     time.Duration
	serveStale     time.Duration
	prefetch       time.Duration
	metricsAddr    string
	hold           time.Duration
	costJSON       bool
	udpBatch       int
	udpListen      string
	udpShards      int

	guardOn           bool
	guardQPS          float64
	guardBurst        int
	guardSlip         int
	guardMissRate     float64
	guardInflightMiss int
	guardNoCookies    bool

	he             bool
	heStagger      time.Duration
	bootstrapProbe bool

	traceOn     bool
	traceSample int
	queryLog    string
	slowMS      float64
	pprofOn     bool
}

func main() {
	var o options
	flag.StringVar(&o.host, "host", "proxy.dns", "proxy host name on the simulated network")
	flag.IntVar(&o.upstreams, "upstreams", 2, "number of upstream resolvers (failover order)")
	flag.IntVar(&o.conns, "conns", 2, "persistent connections per upstream")
	flag.IntVar(&o.shards, "shards", 16, "cache shards")
	flag.StringVar(&o.cacheBudget, "cache-budget", "", "bound the cache by accounted bytes instead of entries, e.g. 64m or 512k (empty = entry-count bound)")
	flag.StringVar(&o.cacheAdmission, "cache-admission", "", "cache admission policy: lru or tinylfu (empty = tinylfu when -cache-budget is set, else lru)")
	flag.IntVar(&o.names, "names", 50, "distinct query names (smaller = hotter cache)")
	flag.IntVar(&o.queries, "queries", 400, "queries per transport")
	flag.DurationVar(&o.upstreamRTT, "upstream-rtt", 8*time.Millisecond, "proxy↔upstream round-trip time")
	flag.StringVar(&o.policy, "policy", "failover", "upstream steering policy: failover, fastest or hedged")
	flag.DurationVar(&o.hedgeDelay, "hedge-delay", 0, "hedged policy: wait before the second exchange (0 = adaptive SRTT+4·RTTVAR)")
	flag.DurationVar(&o.serveStale, "serve-stale", 0, "serve expired cache entries this long past expiry while refreshing in the background (RFC 8767; 0 disables)")
	flag.DurationVar(&o.prefetch, "prefetch", 0, "refresh hot cache entries when a hit finds them within this much of expiry (0 disables)")
	flag.StringVar(&o.metricsAddr, "metrics-addr", "", "serve /metrics and /debug/cost on this real TCP address (e.g. 127.0.0.1:9090); empty disables")
	flag.DurationVar(&o.hold, "hold", 0, "keep serving the observability endpoints this long after the workload")
	flag.BoolVar(&o.costJSON, "cost-json", false, "print the /debug/cost JSON report to stdout at exit")
	flag.IntVar(&o.udpBatch, "udp-batch", 0, "vector size of the UDP serve loop (recvmmsg/sendmmsg where supported; 0 = default 32)")
	flag.StringVar(&o.udpListen, "udp-listen", "", "also serve classic UDP DNS on real kernel sockets at this address (e.g. 127.0.0.1:5300); empty disables")
	flag.IntVar(&o.udpShards, "udp-shards", 0, "SO_REUSEPORT socket count for -udp-listen (0 = one per CPU)")
	flag.BoolVar(&o.guardOn, "guard", false, "arm the abuse guard: per-client RRL with slip/TC on UDP, REFUSED on streams, DNS cookies, cache-miss circuit breaker")
	flag.Float64Var(&o.guardQPS, "guard-qps", 0, "guard: per-client sustained response rate (0 = default 50)")
	flag.IntVar(&o.guardBurst, "guard-burst", 0, "guard: per-client token-bucket burst (0 = 2×qps)")
	flag.IntVar(&o.guardSlip, "guard-slip", 0, "guard: every Nth rate-limited UDP response is a TC=1 slip instead of a silent drop (0 = default 2, negative = never slip)")
	flag.Float64Var(&o.guardMissRate, "guard-miss-rate", 0, "guard: per-client sustained cache-miss rate before the breaker refuses (0 = default 20)")
	flag.IntVar(&o.guardInflightMiss, "guard-inflight-miss", 0, "guard: global ceiling on concurrent upstream-bound misses (0 = default 1024)")
	flag.BoolVar(&o.guardNoCookies, "guard-no-cookies", false, "guard: disable RFC 7873 server cookies (cookie holders otherwise bypass UDP rate limits)")
	flag.BoolVar(&o.he, "he", false, "dual-home each upstream (v4.<host>/v6.<host>) and dial through the Happy-Eyeballs racing dialer")
	flag.DurationVar(&o.heStagger, "he-stagger", 0, "Happy Eyeballs connection-attempt delay between racing dials (0 = RFC 8305 default 250ms)")
	flag.BoolVar(&o.bootstrapProbe, "bootstrap-probe", false, "probe every upstream before the listeners come up and seed the steering scoreboard")
	flag.BoolVar(&o.traceOn, "trace", false, "arm per-query lifecycle tracing: phase spans, tail-sampled onto /debug/trace")
	flag.IntVar(&o.traceSample, "trace-sample", 0, "tracing: keep 1-in-N unremarkable traces as baseline (0 = default 64)")
	flag.StringVar(&o.queryLog, "query-log", "", "tracing: append every kept trace as a JSONL record to this file, rotated at 64 MiB (implies -trace)")
	flag.Float64Var(&o.slowMS, "slow-ms", 0, "tracing: print one console line with a phase breakdown per query slower than this many ms (implies -trace)")
	flag.BoolVar(&o.pprofOn, "pprof", false, "mount /debug/pprof and Go runtime gauges on -metrics-addr")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "dohproxy:", err)
		os.Exit(1)
	}
}

// tracingConfig maps the -trace* / -slow-ms / -query-log flags to a
// qtrace configuration, or nil when tracing is not armed. -slow-ms and
// -query-log each imply -trace.
func tracingConfig(o options) (*qtrace.Config, error) {
	if !o.traceOn && o.slowMS <= 0 && o.queryLog == "" {
		return nil, nil
	}
	cfg := &qtrace.Config{SampleEvery: o.traceSample}
	if o.slowMS > 0 {
		cfg.SlowFloor = time.Duration(o.slowMS * float64(time.Millisecond))
		cfg.SlowLog = os.Stdout
	}
	if o.queryLog != "" {
		ql, err := qtrace.OpenQueryLog(o.queryLog, 0)
		if err != nil {
			return nil, fmt.Errorf("-query-log: %w", err)
		}
		cfg.Log = ql
	}
	return cfg, nil
}

// guardConfig maps the -guard-* flags to a guard configuration, or nil
// when the guard is not armed.
func guardConfig(o options) *guard.Config {
	if !o.guardOn {
		return nil
	}
	return &guard.Config{
		ClientQPS:       o.guardQPS,
		Burst:           o.guardBurst,
		SlipEvery:       o.guardSlip,
		MissRate:        o.guardMissRate,
		MaxInflightMiss: o.guardInflightMiss,
		DisableCookies:  o.guardNoCookies,
	}
}

func run(o options) error {
	host, upstreams, conns, shards, names, queries := o.host, o.upstreams, o.conns, o.shards, o.names, o.queries
	upstreamRTT, metricsAddr, hold, costJSON := o.upstreamRTT, o.metricsAddr, o.hold, o.costJSON
	if names < 1 {
		return fmt.Errorf("-names must be ≥ 1, got %d", names)
	}
	if queries < 1 {
		return fmt.Errorf("-queries must be ≥ 1, got %d", queries)
	}
	var cacheBudget int64
	if o.cacheBudget != "" {
		var err error
		if cacheBudget, err = dnscache.ParseByteSize(o.cacheBudget); err != nil {
			return fmt.Errorf("-cache-budget: %w", err)
		}
	}
	n := netsim.New(time.Now().UnixNano())

	// The shared metrics sink: the proxy's server-side view, also fed by
	// the racing dialer's per-family attempt counters when -he is set.
	tel := telemetry.New()
	var he *dialer.HappyEyeballs
	if o.he {
		he = dialer.New(dialer.Config{
			Resolve: func(ctx context.Context, uhost string) ([]string, []string, error) {
				return []string{"v4." + uhost + ":53"}, []string{"v6." + uhost + ":53"}, nil
			},
			Dial: func(ctx context.Context, addr string) (net.Conn, error) {
				return n.DialContext(ctx, host, addr)
			},
			Stagger:   o.heStagger,
			PreferV6:  true, // lead with v6, as RFC 8305 clients do
			Telemetry: tel,
		})
	}

	// Deploy the upstream recursive resolvers — dual-homed as v4.<host>
	// and v6.<host> when the Happy-Eyeballs dialer races families.
	var (
		poolUps []dnstransport.PoolUpstream
		probes  []dialer.Target
	)
	for i := 0; i < upstreams; i++ {
		uhost := fmt.Sprintf("recursive%d.upstream", i)
		homes := []string{uhost}
		if o.he {
			homes = []string{"v4." + uhost, "v6." + uhost}
		}
		for _, home := range homes {
			n.SetLink(host, home, netsim.Link{Delay: upstreamRTT / 2})
			srv := &dnsserver.Server{Handler: dnsserver.Static(netip.MustParseAddr("192.0.2.1"), 300)}
			run, err := srv.Start(n, home)
			if err != nil {
				return err
			}
			defer run.Close()
		}
		dialConn := func(uhost string) func(ctx context.Context) (net.Conn, error) {
			return func(ctx context.Context) (net.Conn, error) {
				if he != nil {
					return he.DialContext(ctx, uhost)
				}
				return n.DialContext(ctx, host, uhost+":53")
			}
		}(uhost)
		poolUps = append(poolUps, dnstransport.PoolUpstream{Name: uhost, Dial: func(ctx context.Context) (dnstransport.Resolver, error) {
			return dnstransport.NewTCPClient(dialConn), nil
		}})
		if o.bootstrapProbe {
			probes = append(probes, dialer.Target{
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
	var prober *dialer.Prober
	if o.bootstrapProbe {
		prober = &dialer.Prober{Targets: probes}
	}

	// The proxy itself, with its own certificate.
	chain, err := tlsx.GenerateChain(tlsx.CloudflareLike(host))
	if err != nil {
		return err
	}
	trcfg, err := tracingConfig(o)
	if err != nil {
		return err
	}
	p, err := proxy.New(proxy.Config{
		Upstreams:      poolUps,
		Pool:           dnstransport.PoolConfig{ConnsPerUpstream: conns},
		CacheShards:    shards,
		CacheBudget:    cacheBudget,
		CacheAdmission: o.cacheAdmission,
		Chain:          chain,
		Endpoints:      []dnsserver.Endpoint{{Path: "/dns-query", Wire: true, JSON: true}},
		Policy:         o.policy,
		HedgeDelay:     o.hedgeDelay,
		ServeStale:     o.serveStale,
		PrefetchWindow: o.prefetch,
		UDPBatch:       o.udpBatch,
		UDPListen:      o.udpListen,
		UDPShards:      o.udpShards,
		Guard:          guardConfig(o),
		Dialer:         he,
		Bootstrap:      prober,
		Telemetry:      tel,
		Tracing:        trcfg,
		Profiling:      o.pprofOn,
	})
	if err != nil {
		return err
	}
	defer p.Close()
	if err := p.Start(n, host); err != nil {
		return err
	}
	fmt.Printf("proxy up at %s: udp/tcp :53, dot :853, doh :443 — %d upstream(s) × %d conns, %d cache shards, policy %s\n",
		host, upstreams, conns, shards, o.policy)
	if o.udpBatch > 0 {
		fmt.Printf("udp serve loop: vector %d\n", o.udpBatch)
	}
	if addr := p.UDPAddr(); addr != nil {
		fmt.Printf("udp real socket: %s (%d shard(s))\n", addr, p.UDPShardCount())
	}

	// The observability plane listens on a real socket so operators can
	// scrape it while the simulated-network workload runs.
	if metricsAddr != "" {
		l, err := net.Listen("tcp", metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		defer l.Close()
		fmt.Printf("observability: curl http://%s/metrics | http://%s/debug/cost\n", l.Addr(), l.Addr())
		if trcfg != nil {
			fmt.Printf("tracing: curl http://%s/debug/trace?min_ms=10\n", l.Addr())
		}
		if o.pprofOn {
			fmt.Printf("profiling: curl http://%s/debug/pprof/\n", l.Addr())
		}
		go http.Serve(l, p.Observability())
	}
	fmt.Println()

	// One client per transport, each on its own source host: the guard
	// budgets per source IP, so sharing one host would let the first leg
	// drain the budget the later legs are measured against.
	pc, err := n.ListenPacket("client-udp:5353")
	if err != nil {
		return err
	}
	clients := []struct {
		name string
		r    dnstransport.Resolver
	}{
		{"udp", dnstransport.NewUDPClient(pc, netsim.Addr(host+":53"))},
		{"tcp", dnstransport.NewTCPClient(func(ctx context.Context) (net.Conn, error) { return n.DialContext(ctx, "client-tcp", host+":53") })},
		{"dot", dnstransport.NewDoTClient(func(ctx context.Context) (net.Conn, error) { return n.DialContext(ctx, "client-dot", host+":853") }, chain.ClientConfig(host))},
		{"doh-h2", &dnstransport.DoHClient{
			Dial: func(ctx context.Context) (net.Conn, error) { return n.DialContext(ctx, "client-doh", host+":443") },
			TLS:  chain.ClientConfig(host), Persistent: true,
		}},
	}

	fmt.Printf("%-8s %8s %8s %10s %10s %10s\n", "proto", "ok", "limited", "p50", "p95", "qps")
	for _, c := range clients {
		defer c.r.Close()
		var lat []float64
		limited := 0
		start := time.Now()
		for i := 0; i < queries; i++ {
			q := dnswire.NewQuery(0, dnswire.Name(fmt.Sprintf("name%d.example.", i%names)), dnswire.TypeA)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			t0 := time.Now()
			resp, err := c.r.Exchange(ctx, q)
			cancel()
			// With the guard armed, over-limit outcomes are legitimate
			// verdicts of the demo workload, not failures: REFUSED
			// (stream rate limit or miss breaker), TC=1 slips, and UDP
			// timeouts from silent drops. Count them; the guard report
			// below itemizes which it was.
			if o.guardOn && (err != nil || resp.RCode == dnswire.RCodeRefused || (resp.Truncated && len(resp.Answers) == 0)) {
				limited++
				continue
			}
			if err != nil {
				return fmt.Errorf("%s query %d: %w", c.name, i, err)
			}
			if resp.RCode != dnswire.RCodeSuccess {
				return fmt.Errorf("%s query %d: rcode %v", c.name, i, resp.RCode)
			}
			lat = append(lat, float64(time.Since(t0))/float64(time.Millisecond))
		}
		elapsed := time.Since(start)
		cdf := stats.NewCDF(lat)
		fmt.Printf("%-8s %8d %8d %9.2fms %9.2fms %10.0f\n",
			c.name, queries-limited, limited, cdf.Quantile(0.5), cdf.Quantile(0.95),
			float64(queries)/elapsed.Seconds())
	}

	cs := p.CacheStats()
	hitRate := 0.0
	if total := cs.Hits + cs.StaleHits + cs.Misses + cs.Coalesced; total > 0 {
		hitRate = float64(cs.Hits+cs.StaleHits) / float64(total) * 100
	}
	fmt.Printf("\ncache: %d hits / %d stale / %d misses / %d coalesced (%.1f%% hit rate), %d evictions\n",
		cs.Hits, cs.StaleHits, cs.Misses, cs.Coalesced, hitRate, cs.Evictions)
	if cacheBudget > 0 {
		fmt.Printf("cache budget: %d B live of %d B, %d admission rejects, %d arena epochs\n",
			cs.BytesLive, cacheBudget, cs.AdmissionRejects, cs.ArenaEpochs)
	}
	for _, u := range p.UpstreamStats() {
		state := "up"
		if u.Down {
			state = "down"
		}
		fmt.Printf("upstream %-22s %5d exchanges, %d failures, %s\n", u.Name, u.Exchanges, u.Failures, state)
	}
	steering := p.SteeringReport()
	for _, u := range steering.Upstreams {
		fmt.Printf("steer    %-22s srtt %.2fms ±%.2fms, success %.2f (%d samples)\n",
			u.Name, u.SRTTMs, u.RTTVarMs, u.SuccessRate, u.Samples)
	}
	if he != nil {
		for _, h := range he.Report().Hosts {
			fmt.Printf("dialer   %-22s winner %-3s (age %.0fms, %d consecutive fails)\n",
				h.Host, h.Winner, h.WinnerAgeMs, h.Fails)
		}
	}
	if b := p.Bootstrap(); b != nil {
		br := b.Report()
		fmt.Printf("bootstrap: %d sweep(s)\n", br.Sweeps)
		for _, v := range br.Verdicts {
			if v.OK {
				fmt.Printf("probe    %-22s %-4s ok in %.2fms\n", v.Upstream, v.Proto, v.RTTMs)
			} else {
				fmt.Printf("probe    %-22s %-4s FAILED: %s\n", v.Upstream, v.Proto, v.Err)
			}
		}
	}
	if g := p.Guard(); g != nil {
		gr := g.Report()
		fmt.Printf("guard: %d allowed / %d dropped / %d slipped / %d refused (%d breaker), cookies %d issued / %d validated\n",
			gr.Allowed, gr.Drops, gr.Slips, gr.Refusals, gr.BreakerRefusals, gr.CookiesIssued, gr.CookiesValidated)
	}
	if tr := p.Tracer(); tr != nil {
		st := tr.Stats()
		fmt.Printf("trace: %d offered, kept %d errored / %d slow / %d baseline, %d ring-dropped, %d log-dropped\n",
			st.Offered, st.KeptErrored, st.KeptSlow, st.KeptBaseline, st.RingDropped, st.LogDropped)
		fmt.Printf("trace slow thresholds: cache %.2fms, upstream %.2fms, error %.2fms\n",
			st.SlowThresholdMs["cache"], st.SlowThresholdMs["upstream"], st.SlowThresholdMs["error"])
	}

	// Server-side view of the same workload, from the telemetry subsystem:
	// accept-to-response latency per listener transport, and the upstream
	// exchange cost the cache absorbed.
	snap := p.Telemetry().Snapshot()
	fmt.Printf("\ntelemetry (server side):\n")
	fmt.Printf("%-8s %8s %10s %10s %10s\n", "proto", "queries", "p50", "p95", "p99")
	for _, proto := range []string{"udp", "tcp", "dot", "doh"} {
		d := snap.Latency[proto]
		if d == nil {
			continue
		}
		fmt.Printf("%-8s %8d %9.2fms %9.2fms %9.2fms\n", proto, d.Count, d.P50Ms, d.P95Ms, d.P99Ms)
	}
	fmt.Printf("verdicts: ok=%d servfail=%d canceled=%d — upstream: %d exchanges, %d dials, %d B up, %d B down\n",
		snap.Verdicts["ok"], snap.Verdicts["servfail"], snap.Verdicts["canceled"],
		snap.PoolExchanges, snap.PoolDials, snap.UpstreamBytesSent, snap.UpstreamBytesReceived)
	if len(snap.Dials) > 0 {
		for _, fam := range []string{"v4", "v6", "unknown"} {
			d := snap.Dials[fam]
			if d == nil {
				continue
			}
			fmt.Printf("dials %-8s ok=%d error=%d backoff=%d wins=%d\n",
				fam, d["ok"], d["error"], d["backoff"], snap.DialWins[fam])
		}
	}

	if hold > 0 {
		fmt.Printf("\nholding %v for observability scrapes...\n", hold)
		time.Sleep(hold)
	}
	if costJSON {
		out, err := json.MarshalIndent(p.CostReport(), "", "  ")
		if err != nil {
			return err
		}
		fmt.Printf("\n%s\n", out)
	}
	return nil
}
