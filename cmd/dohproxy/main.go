// Command dohproxy deploys the forwarding proxy on the simulated network
// and drives a workload through it: N concurrent simulated stub resolvers
// replaying an Alexa-derived workload over any subset of Do53/UDP, TCP,
// DoT and DoH, every client's access link degraded by a named impairment
// profile (broadband, 4g, 3g, lossy-wifi, satellite). The proxy serves the
// full listener set (UDP/TCP :53, DoT :853, DoH :443) through the sharded
// cache, singleflight and a pool of persistent upstream connections with
// failover.
//
// All reported numbers come from the telemetry subsystem: per-transport
// latency quantiles, message bytes, UDP retransmissions, TC→TCP fallbacks
// and failure counts on the client side, and cache/upstream counters on
// the proxy side. Closed-loop runs with the same seed reproduce their
// aggregate counters exactly. -json prints the whole result as JSON
// instead of the table; its "cost" section is the /debug/cost report
// taken at the end of the run.
//
// The ops plane exposes the proxy's per-query cost telemetry on a real
// (not simulated) HTTP socket while the tool runs: -metrics-addr serves
// Prometheus text on /metrics, the JSON cost report on /debug/cost and,
// with -trace, sampled query traces on /debug/trace; -hold keeps the
// process alive after the workload so they can be curled.
//
// Every other flag is the shared scenario and proxy table
// (loadgen.BindFlags), over the Scenario defaults; run with -h for the
// list.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"dohcost/internal/loadgen"
)

func main() {
	if err := run(flag.CommandLine, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dohproxy:", err)
		os.Exit(1)
	}
}

// ops is the operations plane around the run and the output format: the
// only flags dohproxy declares itself.
type ops struct {
	metricsAddr string
	hold        time.Duration
	asJSON      bool
}

// bind declares the tool's flags on fs: the shared scenario and proxy
// table, plus the ops-plane and output flags.
func bind(fs *flag.FlagSet) (s *loadgen.Scenario, o *ops, finish func() error) {
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
	o = new(ops)
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "serve /metrics, /debug/cost and /debug/trace on this real TCP address (e.g. 127.0.0.1:9090); empty disables")
	fs.DurationVar(&o.hold, "hold", 0, "keep serving the observability endpoints this long after the workload")
	fs.BoolVar(&o.asJSON, "json", false, "print the full result as JSON instead of the table")
	return s, o, finish
}

func run(fs *flag.FlagSet, args []string) error {
	s, o, finish := bind(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := finish(); err != nil {
		return err
	}
	// With -json, standard output carries the one JSON document and the
	// progress lines go to standard error.
	var info io.Writer = os.Stdout
	if o.asJSON {
		info = os.Stderr
	}
	d, err := loadgen.Deploy(*s)
	if err != nil {
		return err
	}
	defer d.Close()
	// The proxy's own report, not *s: a knob left zero resolves to its
	// default inside the proxy.
	up := d.Proxy.CostReport()
	fmt.Fprintf(info, "proxy up at %s: udp/tcp :53, dot :853, doh :443 — %d upstream(s), %d cache shards, policy %s\n",
		loadgen.ProxyHost, len(up.Upstreams), up.Cache.Shards, up.Steering.Policy)
	if addr := d.Proxy.UDPAddr(); addr != nil {
		fmt.Fprintf(info, "udp real socket: %s (%d shard(s))\n", addr, d.Proxy.UDPShardCount())
	}

	// The observability plane listens on a real socket so operators can
	// scrape it while the simulated-network workload runs.
	if o.metricsAddr != "" {
		l, err := net.Listen("tcp", o.metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		defer l.Close()
		fmt.Fprintf(info, "observability: curl http://%s/metrics | http://%s/debug/cost\n", l.Addr(), l.Addr())
		if s.Proxy.Tracing != nil {
			fmt.Fprintf(info, "tracing: curl http://%s/debug/trace?min_ms=10\n", l.Addr())
		}
		if s.Proxy.Profiling {
			fmt.Fprintf(info, "profiling: curl http://%s/debug/pprof/\n", l.Addr())
		}
		go http.Serve(l, d.Proxy.Observability())
	}
	fmt.Fprintln(info)

	res, err := d.Run()
	if err != nil {
		return err
	}
	if o.asJSON {
		out, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", out)
	} else {
		fmt.Print(loadgen.Render(res))
	}

	if o.hold > 0 {
		fmt.Fprintf(info, "\nholding %v for observability scrapes...\n", o.hold)
		time.Sleep(o.hold)
	}
	return nil
}
