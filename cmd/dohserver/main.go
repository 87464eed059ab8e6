// Command dohserver runs a standalone multi-transport DNS deployment on the
// simulated network and drives a smoke query over each transport — the
// quickest way to see the whole stack (UDP, TCP, DoT, DoH over HTTP/1.1 and
// HTTP/2) answer end to end.
//
// Usage:
//
//	dohserver [-host resolver.example] [-addr 192.0.2.1] [-queries 5]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/netip"
	"os"
	"time"

	"dohcost/internal/dnsserver"
	"dohcost/internal/dnstransport"
	"dohcost/internal/dnswire"
	"dohcost/internal/netsim"
	"dohcost/internal/tlsx"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dohserver:", err)
		os.Exit(1)
	}
}

// run deploys the resolver, smoke-queries every transport and reports each
// on stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dohserver", flag.ContinueOnError)
	host := fs.String("host", "resolver.example", "simulated server host name")
	addr := fs.String("addr", "192.0.2.1", "address every A query resolves to")
	queries := fs.Int("queries", 5, "smoke queries per transport")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ip, err := netip.ParseAddr(*addr)
	if err != nil {
		return fmt.Errorf("bad -addr: %w", err)
	}
	if *queries <= 0 {
		return errors.New("-queries must be positive")
	}

	n := netsim.New(time.Now().UnixNano())
	chain, err := tlsx.GenerateChain(tlsx.CloudflareLike(*host))
	if err != nil {
		return err
	}
	srv := &dnsserver.Server{
		Handler:   dnsserver.Static(ip, 300),
		Chain:     chain,
		Endpoints: []dnsserver.Endpoint{{Path: "/dns-query", Wire: true, JSON: true}},
	}
	running, err := srv.Start(n, *host)
	if err != nil {
		return err
	}
	defer running.Close()
	fmt.Fprintf(stdout, "deployment up at %s: udp/tcp :53, dot :853, doh :443 (/dns-query, wire+json)\n\n", *host)

	pc, err := n.ListenPacket("")
	if err != nil {
		return err
	}
	clients := []struct {
		name string
		r    dnstransport.Resolver
	}{
		{"udp", dnstransport.NewUDPClient(pc, netsim.Addr(*host+":53"))},
		{"tcp", dnstransport.NewTCPClient(func(ctx context.Context) (net.Conn, error) { return n.DialContext(ctx, "client", *host+":53") })},
		{"dot", dnstransport.NewDoTClient(func(ctx context.Context) (net.Conn, error) { return n.DialContext(ctx, "client", *host+":853") }, chain.ClientConfig(*host))},
		{"doh-h1", &dnstransport.DoHClient{
			Dial: func(ctx context.Context) (net.Conn, error) { return n.DialContext(ctx, "client", *host+":443") },
			TLS:  chain.ClientConfig(*host), Mode: dnstransport.ModeH1, Persistent: true,
		}},
		{"doh-h2", &dnstransport.DoHClient{
			Dial: func(ctx context.Context) (net.Conn, error) { return n.DialContext(ctx, "client", *host+":443") },
			TLS:  chain.ClientConfig(*host), Mode: dnstransport.ModeH2, Persistent: true,
		}},
	}
	for _, c := range clients {
		defer c.r.Close()
		var total time.Duration
		for i := 0; i < *queries; i++ {
			q := dnswire.NewQuery(0, dnswire.Name(fmt.Sprintf("smoke%d.example.", i)), dnswire.TypeA)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			start := time.Now()
			resp, err := c.r.Exchange(ctx, q)
			cancel()
			if err != nil {
				return fmt.Errorf("%s query %d: %w", c.name, i, err)
			}
			if len(resp.Answers) != 1 {
				return fmt.Errorf("%s query %d: unexpected answers %v", c.name, i, resp.Answers)
			}
			total += time.Since(start)
		}
		fmt.Fprintf(stdout, "%-7s %d/%d ok, avg %v\n", c.name, *queries, *queries, (total / time.Duration(*queries)).Round(time.Microsecond))
	}
	return nil
}
