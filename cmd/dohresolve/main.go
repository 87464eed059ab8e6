// Command dohresolve is a dig-like lookup tool against the study's
// simulated environment: resolve one name over a chosen transport and print
// the response, timing, and wire cost.
//
// Usage:
//
//	dohresolve [-transport udp|dot|doh|doh1] [-server local|cloudflare|google]
//	           [-type A] [-n 1] name
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"dohcost"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dohresolve:", err)
		if errors.As(err, new(usageError)) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// usageError is a bad command line, which exits 2 rather than 1.
type usageError struct{ error }

// run resolves the name the arguments give and prints each response, its
// timing and its wire cost on stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dohresolve", flag.ContinueOnError)
	transport := fs.String("transport", "doh", "udp, dot, doh (HTTP/2) or doh1 (HTTP/1.1)")
	server := fs.String("server", "cloudflare", "local, cloudflare or google")
	qtype := fs.String("type", "A", "query type (A, AAAA, CNAME, TXT, CAA)")
	count := fs.Int("n", 1, "repeat the query to observe connection reuse")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil
	} else if err != nil {
		return usageError{err}
	}
	if fs.NArg() != 1 {
		return usageError{errors.New("usage: dohresolve [flags] name")}
	}
	name := fs.Arg(0)

	host := map[string]dohcost.ResolverHost{
		"local": dohcost.Local, "cloudflare": dohcost.Cloudflare, "google": dohcost.Google,
	}[strings.ToLower(*server)]
	if host == "" {
		return usageError{fmt.Errorf("unknown -server %s", *server)}
	}
	t, ok := dohcost.ParseType(strings.ToUpper(*qtype))
	if !ok {
		return usageError{fmt.Errorf("unknown -type %s", *qtype)}
	}

	env, err := dohcost.NewEnvironment(dohcost.EnvironmentConfig{Seed: time.Now().UnixNano()})
	if err != nil {
		return err
	}
	defer env.Close()

	var costs []dohcost.Cost
	opts := dohcost.Options{Persistent: true, Recorder: dohcost.CostFunc(func(c dohcost.Cost) { costs = append(costs, c) })}
	var r dohcost.Resolver
	switch strings.ToLower(*transport) {
	case "udp":
		r, err = env.UDP(host, opts)
	case "dot":
		r, err = env.DoT(host, opts)
	case "doh":
		r, err = env.DoH(host, opts)
	case "doh1":
		opts.HTTP1 = true
		r, err = env.DoH(host, opts)
	default:
		return usageError{fmt.Errorf("unknown -transport %s", *transport)}
	}
	if err != nil {
		return err
	}
	defer r.Close()

	for i := 0; i < *count; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		start := time.Now()
		resp, err := r.Exchange(ctx, dohcost.NewQuery(name, t))
		cancel()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, ";; query %d via %s/%s took %v\n", i+1, *transport, host, time.Since(start).Round(time.Microsecond))
		fmt.Fprint(stdout, resp.String())
		if len(costs) > i {
			fmt.Fprintf(stdout, ";; wire cost: %s (setup included: %v)\n\n", costs[i].WireCost(), costs[i].IncludesSetup)
		}
	}
	return nil
}
