// Command dohloadgen runs the multi-client load-generation harness: N
// concurrent simulated stub resolvers replaying an Alexa-derived workload
// against the forwarding proxy over any subset of Do53/UDP, TCP, DoT and
// DoH, with every client's access link degraded by a named impairment
// profile (broadband, 4g, 3g, lossy-wifi, satellite).
//
// All reported numbers come from the telemetry subsystem: per-transport
// latency quantiles, message bytes, UDP retransmissions, TC→TCP fallbacks
// and failure counts on the client side, and cache/upstream counters on
// the proxy side. Closed-loop runs with the same seed reproduce their
// aggregate counters exactly.
//
// Steering sweeps compare upstream-selection policies end to end: -policy
// picks failover/fastest/hedged, -upstreams deploys several recursive
// resolvers behind the proxy, and -degraded-upstream-rtt slows the
// preferred one — the regime where the policies separate.
//
// Usage:
//
//	dohloadgen [-profile 3g] [-transports udp,doh] [-clients 50]
//	           [-queries 2000] [-seed 1] [-arrival closed|open]
//	           [-rate 20] [-think 0] [-names 16]
//	           [-zipf-names 10000000] [-zipf-s 1.0]
//	           [-cache-budget 8m] [-cache-admission tinylfu]
//	           [-policy hedged] [-hedge-delay 40ms] [-upstreams 2]
//	           [-degraded-upstream-rtt 600ms] [-serve-stale 1m]
//	           [-prefetch 10s] [-attackers 2] [-attack-qps 5000]
//	           [-guard] [-guard-qps 2000] [-guard-burst 50] [-guard-slip 2]
//	           [-guard-miss-rate 25]
//	           [-he] [-he-stagger 250ms] [-dial-fault broken-v6]
//	           [-flap-after 200ms] [-flap-for 100ms] [-bootstrap-probe]
//	           [-json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dohcost/internal/dnscache"
	"dohcost/internal/guard"
	"dohcost/internal/loadgen"
	"dohcost/internal/netsim"
)

func main() {
	var (
		profile     = flag.String("profile", "", "impairment profile on client access links: "+strings.Join(netsim.ProfileNames(), ", ")+" (empty = ideal)")
		transports  = flag.String("transports", strings.Join(loadgen.Transports, ","), "comma-separated transports to drive, in order")
		clients     = flag.Int("clients", 10, "concurrent clients per transport")
		queries     = flag.Int("queries", 1000, "total queries per transport")
		seed        = flag.Int64("seed", 1, "seed for workload, arrivals and link impairment schedules")
		arrival     = flag.String("arrival", "closed", "arrival model: closed (wait for response) or open (Poisson)")
		rate        = flag.Float64("rate", 20, "open-loop per-client arrival rate (queries/second)")
		think       = flag.Duration("think", 0, "closed-loop pause between response and next query")
		names       = flag.Int("names", 16, "distinct query names per client (smaller = hotter proxy cache; ignored with -zipf-names)")
		zipfNames   = flag.Int("zipf-names", 0, "draw names Zipf-distributed over this many distinct names shared by all clients (heavy-tailed popularity; 0 = per-client cycles)")
		zipfS       = flag.Float64("zipf-s", 1.0, "Zipf exponent for -zipf-names")
		cacheBudget = flag.String("cache-budget", "", "bound the proxy cache by accounted bytes, e.g. 8m or 512k (empty = entry-count bound)")
		cacheAdm    = flag.String("cache-admission", "", "proxy cache admission policy: lru or tinylfu (empty = tinylfu when -cache-budget is set)")
		timeout     = flag.Duration("timeout", 10*time.Second, "whole-query client timeout")
		udpTimeout  = flag.Duration("udp-attempt-timeout", 0, "UDP per-attempt wait before retransmitting (0 = derive from profile)")
		upstreamRTT = flag.Duration("upstream-rtt", 4*time.Millisecond, "clean proxy-to-upstream round trip")
		policy      = flag.String("policy", "failover", "proxy upstream steering policy: failover, fastest or hedged")
		hedgeDelay  = flag.Duration("hedge-delay", 0, "hedged policy: wait before the second exchange (0 = adaptive)")
		upstreams   = flag.Int("upstreams", 1, "recursive resolvers behind the proxy")
		degradedRTT = flag.Duration("degraded-upstream-rtt", 0, "slow the preferred upstream's link to this round trip (0 = none)")
		serveStale  = flag.Duration("serve-stale", 0, "proxy cache RFC 8767 stale window (0 disables)")
		prefetch    = flag.Duration("prefetch", 0, "proxy cache near-expiry prefetch window (0 disables)")
		attackers   = flag.Int("attackers", 0, "flooder clients blasting random-subdomain UDP queries alongside every transport leg (0 = none)")
		attackQPS   = flag.Float64("attack-qps", 0, "per-flooder target query rate (0 = default 200)")
		guardOn     = flag.Bool("guard", false, "arm the proxy's abuse guard (RRL, DNS cookies, miss breaker)")
		guardQPS    = flag.Float64("guard-qps", 0, "guard: per-client sustained response rate (0 = default 50)")
		guardBurst  = flag.Int("guard-burst", 0, "guard: per-client token-bucket burst (0 = 2×qps)")
		guardSlip   = flag.Int("guard-slip", 0, "guard: every Nth rate-limited UDP response is a TC=1 slip (0 = default 2, negative = never)")
		guardMiss   = flag.Float64("guard-miss-rate", 0, "guard: per-client sustained cache-miss rate before the breaker refuses (0 = default 20)")
		he          = flag.Bool("he", false, "dual-home every upstream (v4.<host>/v6.<host>) and dial through the Happy-Eyeballs racing dialer")
		heStagger   = flag.Duration("he-stagger", 0, "Happy Eyeballs connection-attempt delay between racing dials (0 = RFC 8305 default 250ms)")
		dialFault   = flag.String("dial-fault", "", "dial impairment profile on the upstream homes: "+strings.Join(netsim.DialProfileNames(), ", ")+" (empty = none; needs -he to matter)")
		flapAfter   = flag.Duration("flap-after", 0, "sever upstream 0's link this long after the clients start (0 = no flap)")
		flapFor     = flag.Duration("flap-for", 0, "how long the -flap-after outage lasts (0 = default 100ms)")
		bootstrap   = flag.Bool("bootstrap-probe", false, "probe every upstream before the listeners come up and seed the steering scoreboard with the verdicts")
		trace       = flag.Bool("trace", false, "arm the proxy's per-query lifecycle tracing; the result grows sampler stats and a slowest-traces digest")
		traceSample = flag.Int("trace-sample", 0, "tracing: keep 1-in-N unremarkable traces as baseline (0 = default 64)")
		asJSON      = flag.Bool("json", false, "print the full result as JSON instead of the table")
	)
	flag.Parse()

	var trs []string
	for _, t := range strings.Split(*transports, ",") {
		if t = strings.TrimSpace(t); t != "" {
			trs = append(trs, t)
		}
	}
	var budget int64
	if *cacheBudget != "" {
		var err error
		if budget, err = dnscache.ParseByteSize(*cacheBudget); err != nil {
			fmt.Fprintln(os.Stderr, "dohloadgen: -cache-budget:", err)
			os.Exit(1)
		}
	}
	var gcfg *guard.Config
	if *guardOn {
		gcfg = &guard.Config{
			ClientQPS: *guardQPS,
			Burst:     *guardBurst,
			SlipEvery: *guardSlip,
			MissRate:  *guardMiss,
		}
	}
	res, err := loadgen.Run(loadgen.Scenario{
		Profile:             *profile,
		Transports:          trs,
		Clients:             *clients,
		Queries:             *queries,
		Seed:                *seed,
		Arrival:             *arrival,
		Rate:                *rate,
		Think:               *think,
		Names:               *names,
		ZipfNames:           *zipfNames,
		ZipfS:               *zipfS,
		CacheBudget:         budget,
		CacheAdmission:      *cacheAdm,
		Timeout:             *timeout,
		UDPAttemptTimeout:   *udpTimeout,
		UpstreamRTT:         *upstreamRTT,
		Policy:              *policy,
		HedgeDelay:          *hedgeDelay,
		Upstreams:           *upstreams,
		DegradedUpstreamRTT: *degradedRTT,
		ServeStale:          *serveStale,
		PrefetchWindow:      *prefetch,
		Attackers:           *attackers,
		AttackQPS:           *attackQPS,
		Guard:               gcfg,
		HappyEyeballs:       *he,
		HEStagger:           *heStagger,
		DialFault:           *dialFault,
		FlapAfter:           *flapAfter,
		FlapFor:             *flapFor,
		BootstrapProbe:      *bootstrap,
		Trace:               *trace,
		TraceSample:         *traceSample,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dohloadgen:", err)
		os.Exit(1)
	}
	if *asJSON {
		out, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "dohloadgen:", err)
			os.Exit(1)
		}
		fmt.Printf("%s\n", out)
		return
	}
	fmt.Print(loadgen.Render(res))
}
