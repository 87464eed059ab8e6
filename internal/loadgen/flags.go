package loadgen

import (
	"flag"
	"strings"

	"dohcost/internal/netsim"
	"dohcost/internal/proxy"
)

// BindFlags declares the scenario's own flags on fs — workload, access
// network, upstream topology, fault injection, adversaries — and, through
// proxy.BindFlags, every proxy flag for s.Proxy: the flag surface of
// cmd/dohproxy, which adds only its ops-plane and output flags. Defaults
// are whatever the caller pre-populated in *s; a field left zero still
// resolves to the Scenario default at Deploy. The returned finish step
// runs after fs.Parse and is proxy.BindFlags' finish step.
func BindFlags(fs *flag.FlagSet, s *Scenario) (finish func() error) {
	fs.StringVar(&s.Profile, "profile", s.Profile, "impairment profile on client access links: "+strings.Join(netsim.ProfileNames(), ", ")+" (empty = ideal)")
	fs.Func("transports", "comma-separated subset of "+strings.Join(Transports, ",")+" to drive, in order (unset = all four)", func(v string) error {
		s.Transports = nil
		for _, t := range strings.Split(v, ",") {
			if t = strings.TrimSpace(t); t != "" {
				s.Transports = append(s.Transports, t)
			}
		}
		return nil
	})
	fs.IntVar(&s.Clients, "clients", s.Clients, "concurrent clients per transport")
	fs.IntVar(&s.Queries, "queries", s.Queries, "total queries per transport (0 = Scenario default 1000)")
	fs.Int64Var(&s.Seed, "seed", s.Seed, "seed for workload, arrivals and link impairment schedules")
	fs.StringVar(&s.Arrival, "arrival", s.Arrival, "arrival model: closed (wait for response; the default) or open (Poisson)")
	fs.Float64Var(&s.Rate, "rate", s.Rate, "open-loop per-client arrival rate in queries/second")
	fs.DurationVar(&s.Think, "think", s.Think, "closed-loop pause between response and next query")
	fs.IntVar(&s.Names, "names", s.Names, "distinct query names per client (smaller = hotter proxy cache; ignored with -zipf-names)")
	fs.IntVar(&s.ZipfNames, "zipf-names", s.ZipfNames, "draw names Zipf-distributed over this many distinct names shared by all clients (heavy-tailed popularity; 0 = per-client cycles)")
	fs.Float64Var(&s.ZipfS, "zipf-s", s.ZipfS, "Zipf exponent for -zipf-names")
	fs.DurationVar(&s.Timeout, "timeout", s.Timeout, "whole-query client timeout")
	fs.DurationVar(&s.UDPAttemptTimeout, "udp-attempt-timeout", s.UDPAttemptTimeout, "UDP per-attempt wait before retransmitting (0 = derive from profile)")
	fs.IntVar(&s.Upstreams, "upstreams", s.Upstreams, "recursive resolvers behind the proxy, in failover preference order")
	fs.DurationVar(&s.UpstreamRTT, "upstream-rtt", s.UpstreamRTT, "clean proxy-to-upstream round trip")
	fs.DurationVar(&s.DegradedUpstreamRTT, "degraded-upstream-rtt", s.DegradedUpstreamRTT, "slow the preferred upstream's link to this round trip (0 = none)")
	fs.IntVar(&s.Attackers, "attackers", s.Attackers, "flooder clients blasting random-subdomain UDP queries alongside every transport leg (0 = none)")
	fs.Float64Var(&s.AttackQPS, "attack-qps", s.AttackQPS, "per-flooder target query rate (0 = default 200)")
	fs.BoolVar(&s.HappyEyeballs, "he", s.HappyEyeballs, "dual-home every upstream (v4.<host>/v6.<host>) and dial through the Happy-Eyeballs racing dialer")
	fs.DurationVar(&s.HEStagger, "he-stagger", s.HEStagger, "Happy Eyeballs connection-attempt delay between racing dials (0 = RFC 8305 default 250ms)")
	fs.StringVar(&s.DialFault, "dial-fault", s.DialFault, "dial impairment profile on the upstream homes: "+strings.Join(netsim.DialProfileNames(), ", ")+" (empty = none; needs -he to matter)")
	fs.DurationVar(&s.FlapAfter, "flap-after", s.FlapAfter, "sever upstream 0's link this long after the clients start (0 = no flap)")
	fs.DurationVar(&s.FlapFor, "flap-for", s.FlapFor, "how long the -flap-after outage lasts (0 = default 100ms)")
	fs.BoolVar(&s.BootstrapProbe, "bootstrap-probe", s.BootstrapProbe, "probe every upstream before the listeners come up and seed the steering scoreboard with the verdicts")
	return proxy.BindFlags(fs, &s.Proxy)
}
