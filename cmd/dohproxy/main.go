// Command dohproxy runs the production forwarding proxy on the simulated
// network: a full listener set (UDP/TCP :53, DoT :853, DoH :443) answering
// through the sharded cache, singleflight, and a pool of persistent
// upstream connections with failover — then drives a workload through every
// transport and reports latencies, cache effectiveness and upstream health.
//
// It is cmd/dohloadgen's testbed (loadgen.Deploy) with an operator's
// defaults — one client, 400 queries over 50 names, two upstreams 8 ms away
// — plus the ops plane: the proxy's per-query cost telemetry is exposed on
// a real (not simulated) HTTP socket while the tool runs. -metrics-addr
// serves Prometheus text on /metrics, the JSON cost report on /debug/cost
// and, with -trace, sampled query traces on /debug/trace; -hold keeps the
// process alive after the workload so they can be curled; -cost-json prints
// the /debug/cost payload to stdout at exit.
//
// Every other flag is the shared scenario and proxy table
// (loadgen.BindFlags); run with -h for the list.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
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

// ops is the operations plane around the run: the only flags dohproxy
// declares itself.
type ops struct {
	metricsAddr string
	hold        time.Duration
	costJSON    bool
}

// bind declares the tool's flags on fs: the shared scenario and proxy
// table over dohproxy's defaults, plus the ops-plane flags.
func bind(fs *flag.FlagSet) (s *loadgen.Scenario, o *ops, finish func() error) {
	s = &loadgen.Scenario{
		Clients:     1,
		Queries:     400,
		Names:       50,
		Seed:        1,
		Arrival:     "closed",
		Rate:        20,
		ZipfS:       1.0,
		Timeout:     10 * time.Second,
		Upstreams:   2,
		UpstreamRTT: 8 * time.Millisecond,
	}
	s.Proxy.Pool.ConnsPerUpstream = 2
	s.Proxy.CacheShards = 16
	finish = loadgen.BindFlags(fs, s)
	o = new(ops)
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "serve /metrics, /debug/cost and /debug/trace on this real TCP address (e.g. 127.0.0.1:9090); empty disables")
	fs.DurationVar(&o.hold, "hold", 0, "keep serving the observability endpoints this long after the workload")
	fs.BoolVar(&o.costJSON, "cost-json", false, "print the /debug/cost JSON report to stdout at exit")
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
	d, err := loadgen.Deploy(*s)
	if err != nil {
		return err
	}
	defer d.Close()
	fmt.Printf("proxy up at %s: udp/tcp :53, dot :853, doh :443 — %d upstream(s) × %d conns, %d cache shards, policy %s\n",
		loadgen.ProxyHost, s.Upstreams, s.Proxy.Pool.ConnsPerUpstream, s.Proxy.CacheShards, s.Proxy.Policy)
	if addr := d.Proxy.UDPAddr(); addr != nil {
		fmt.Printf("udp real socket: %s (%d shard(s))\n", addr, d.Proxy.UDPShardCount())
	}

	// The observability plane listens on a real socket so operators can
	// scrape it while the simulated-network workload runs.
	if o.metricsAddr != "" {
		l, err := net.Listen("tcp", o.metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		defer l.Close()
		fmt.Printf("observability: curl http://%s/metrics | http://%s/debug/cost\n", l.Addr(), l.Addr())
		if s.Proxy.Tracing != nil {
			fmt.Printf("tracing: curl http://%s/debug/trace?min_ms=10\n", l.Addr())
		}
		if s.Proxy.Profiling {
			fmt.Printf("profiling: curl http://%s/debug/pprof/\n", l.Addr())
		}
		go http.Serve(l, d.Proxy.Observability())
	}
	fmt.Println()

	res, err := d.Run()
	if err != nil {
		return err
	}
	fmt.Print(loadgen.Render(res))

	if o.hold > 0 {
		fmt.Printf("\nholding %v for observability scrapes...\n", o.hold)
		time.Sleep(o.hold)
	}
	if o.costJSON {
		out, err := json.MarshalIndent(d.Proxy.CostReport(), "", "  ")
		if err != nil {
			return err
		}
		fmt.Printf("\n%s\n", out)
	}
	return nil
}
