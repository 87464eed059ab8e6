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
// The flag set is loadgen.BindFlags — the scenario's flags plus every proxy
// flag (cache, steering, guard, tracing, UDP listener), the same table
// cmd/dohproxy binds — and -json; run with -h for the list. Steering
// sweeps compare upstream-selection policies end to end: -policy picks
// failover/fastest/hedged, -upstreams deploys several recursive resolvers
// behind the proxy, and -degraded-upstream-rtt slows the preferred one —
// the regime where the policies separate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"dohcost/internal/loadgen"
)

func main() {
	if err := run(flag.CommandLine, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dohloadgen:", err)
		os.Exit(1)
	}
}

// bind declares the tool's flags on fs: the shared scenario and proxy
// table over the load generator's defaults, plus -json.
func bind(fs *flag.FlagSet) (s *loadgen.Scenario, asJSON *bool, finish func() error) {
	s = &loadgen.Scenario{
		Clients:     10,
		Queries:     1000,
		Seed:        1,
		Arrival:     "closed",
		Rate:        20,
		Names:       16,
		ZipfS:       1.0,
		Timeout:     10 * time.Second,
		Upstreams:   1,
		UpstreamRTT: 4 * time.Millisecond,
	}
	finish = loadgen.BindFlags(fs, s)
	asJSON = fs.Bool("json", false, "print the full result as JSON instead of the table")
	return s, asJSON, finish
}

func run(fs *flag.FlagSet, args []string) error {
	s, asJSON, finish := bind(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := finish(); err != nil {
		return err
	}
	res, err := loadgen.Run(*s)
	if err != nil {
		return err
	}
	if !*asJSON {
		fmt.Print(loadgen.Render(res))
		return nil
	}
	out, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", out)
	return nil
}
