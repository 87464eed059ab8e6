// Package core is the study itself: one runner per table and figure of
// "An Empirical Study of the Cost of DNS-over-HTTPS" (IMC '19), built on
// the substrate packages. Each runner constructs its experiment (network
// topology, resolver deployments, workload), executes it, and returns a
// result type with a renderer that prints the same rows and series the
// paper reports.
package core

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"time"

	"dohcost/internal/dnsserver"
	"dohcost/internal/dnstransport"
	"dohcost/internal/h2"
	"dohcost/internal/netsim"
	"dohcost/internal/tlsx"
)

// mustAddr parses a literal address; it panics only on programmer error.
func mustAddr(s string) netip.Addr { return netip.MustParseAddr(s) }

// Study host names on the simulated network.
const (
	ClientHost = "client"
	LocalHost  = "local.resolver"
	CFHost     = "cloudflare-dns.com"
	GOHost     = "dns.google.com"
)

// Topology is the standard study network: a client, the university's local
// resolver next door, and two cloud resolvers with Cloudflare-like and
// Google-like certificate chains, all running the full transport stack.
type Topology struct {
	Net     *netsim.Network
	CFChain *tlsx.Chain
	GOChain *tlsx.Chain

	runs []*dnsserver.Running
}

// TopologyConfig tunes the standard topology.
type TopologyConfig struct {
	Seed int64
	// Handler answers queries at all three resolvers; defaults to the
	// fixed-address handler from the paper's controlled experiments.
	Handler dnsserver.Handler
	// LocalRTT, CFRTT, GORTT are client↔resolver round-trip times
	// (halved into per-direction link delays). Zero values use the study
	// defaults: 0.4 ms local, 6 ms Cloudflare, 9 ms Google.
	LocalRTT, CFRTT, GORTT time.Duration
	// Profile names a netsim impairment profile ("broadband", "4g", "3g",
	// "lossy-wifi", "satellite") applied to the client's access link. The
	// profile's delay/jitter/loss/reorder/MTU/bandwidth replace the ideal
	// client↔resolver links, with each resolver's base one-way delay
	// (RTT/2) layered on top so the relative resolver distances survive.
	// Empty keeps the ideal links of the paper's own testbed.
	Profile string
	// DoTOutOfOrder enables Cloudflare-style DoT reply scheduling.
	DoTOutOfOrder bool
	// HTTP1Only restricts DoH listeners to http/1.1 (Figure 2's H1 runs).
	HTTP1Only bool
	// LocalRecursion and CloudRecursion model cache-miss latency at the
	// resolvers (see dnsserver.CacheMissDelay). Zero specs answer
	// instantly, as the controlled experiments require.
	LocalRecursion RecursionSpec
	CloudRecursion RecursionSpec
	// DoHProcessing models HTTPS frontend per-request latency (zero for
	// the controlled transport experiments).
	DoHProcessing time.Duration
}

// RecursionSpec parameterizes a resolver's cache-miss behaviour.
type RecursionSpec struct {
	MissRate float64
	MissMin  time.Duration
	MissMax  time.Duration
}

func (r RecursionSpec) wrap(seed int64, h dnsserver.Handler) dnsserver.Handler {
	if r.MissRate <= 0 {
		return h
	}
	return dnsserver.CacheMissDelay(seed, r.MissRate, r.MissMin, r.MissMax, h)
}

func (c TopologyConfig) withDefaults() TopologyConfig {
	if c.Handler == nil {
		c.Handler = dnsserver.Static(netip.MustParseAddr("192.0.2.1"), 300)
	}
	if c.LocalRTT == 0 {
		c.LocalRTT = 400 * time.Microsecond
	}
	if c.CFRTT == 0 {
		c.CFRTT = 6 * time.Millisecond
	}
	if c.GORTT == 0 {
		c.GORTT = 9 * time.Millisecond
	}
	return c
}

// NewTopology builds and starts the standard network.
func NewTopology(cfg TopologyConfig) (*Topology, error) {
	cfg = cfg.withDefaults()
	n := netsim.New(cfg.Seed)
	if cfg.Profile == "" {
		n.SetLink(ClientHost, LocalHost, netsim.Link{Delay: cfg.LocalRTT / 2})
		n.SetLink(ClientHost, CFHost, netsim.Link{Delay: cfg.CFRTT / 2, Jitter: cfg.CFRTT / 12})
		n.SetLink(ClientHost, GOHost, netsim.Link{Delay: cfg.GORTT / 2, Jitter: cfg.GORTT / 12})
	} else {
		prof, ok := netsim.LookupProfile(cfg.Profile)
		if !ok {
			return nil, fmt.Errorf("core: unknown impairment profile %q (have %v)", cfg.Profile, netsim.ProfileNames())
		}
		n.ApplyProfile(ClientHost, LocalHost, prof.WithExtraDelay(cfg.LocalRTT/2))
		n.ApplyProfile(ClientHost, CFHost, prof.WithExtraDelay(cfg.CFRTT/2))
		n.ApplyProfile(ClientHost, GOHost, prof.WithExtraDelay(cfg.GORTT/2))
	}

	t := &Topology{Net: n}
	var err error
	if t.CFChain, err = tlsx.GenerateChain(tlsx.CloudflareLike(CFHost)); err != nil {
		return nil, err
	}
	if t.GOChain, err = tlsx.GenerateChain(tlsx.GoogleLike(GOHost)); err != nil {
		return nil, err
	}

	goHandler := cfg.CloudRecursion.wrap(cfg.Seed+3, cfg.Handler)
	deployments := []struct {
		host       string
		chain      *tlsx.Chain
		handler    dnsserver.Handler
		dohHandler dnsserver.Handler
	}{
		{LocalHost, nil, cfg.LocalRecursion.wrap(cfg.Seed+1, cfg.Handler), nil},
		{CFHost, t.CFChain, cfg.CloudRecursion.wrap(cfg.Seed+2, cfg.Handler), nil},
		// Google's frontends pad encrypted responses to 468-byte blocks
		// (RFC 8467) — DoH only, never classic UDP/TCP — one reason the
		// paper measures larger Google resolutions even on persistent
		// connections.
		{GOHost, t.GOChain, goHandler, dnsserver.PadResponses(468, goHandler)},
	}
	for _, d := range deployments {
		srv := &dnsserver.Server{
			Handler:       d.handler,
			DoHHandler:    d.dohHandler,
			Chain:         d.chain,
			DoTOutOfOrder: cfg.DoTOutOfOrder,
			HTTP1Only:     cfg.HTTP1Only,
			DoHProcessing: cfg.DoHProcessing,
			DoHEmission:   h2.FramePerFlight, // the resolvers the paper captured
			Endpoints:     []dnsserver.Endpoint{{Path: "/dns-query", Wire: true, JSON: true}},
		}
		run, err := srv.Start(n, d.host)
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("core: starting %s: %w", d.host, err)
		}
		t.runs = append(t.runs, run)
	}
	return t, nil
}

// Close stops all resolver deployments.
func (t *Topology) Close() {
	for _, r := range t.runs {
		r.Close()
	}
	t.runs = nil
}

// chainFor returns the chain deployed at host.
func (t *Topology) chainFor(host string) *tlsx.Chain {
	switch host {
	case CFHost:
		return t.CFChain
	case GOHost:
		return t.GOChain
	}
	return nil
}

// UDPResolver opens a classic UDP client toward host from the given client
// host name, with the RFC 7766 TCP fallback for truncated responses.
func (t *Topology) UDPResolver(from, host string) (*dnstransport.UDPClient, error) {
	pc, err := t.Net.ListenPacket("")
	if err != nil {
		return nil, err
	}
	c := dnstransport.NewUDPClient(pc, netsim.Addr(host+":53"))
	c.Fallback = dnstransport.NewTCPClient(func(ctx context.Context) (net.Conn, error) {
		return t.Net.DialContext(ctx, from, host+":53")
	})
	return c, nil
}

// DoTResolver opens a DNS-over-TLS client toward host.
func (t *Topology) DoTResolver(from, host string) (*dnstransport.StreamClient, error) {
	chain := t.chainFor(host)
	if chain == nil {
		return nil, fmt.Errorf("core: no TLS deployment at %s", host)
	}
	return dnstransport.NewDoTClient(
		func(ctx context.Context) (net.Conn, error) { return t.Net.DialContext(ctx, from, host+":853") },
		chain.ClientConfig(host),
	), nil
}

// DoHResolver opens a DNS-over-HTTPS client toward host.
func (t *Topology) DoHResolver(from, host string, mode dnstransport.DoHMode, persistent bool) (*dnstransport.DoHClient, error) {
	chain := t.chainFor(host)
	if chain == nil {
		return nil, fmt.Errorf("core: no TLS deployment at %s", host)
	}
	return &dnstransport.DoHClient{
		Dial:       func(ctx context.Context) (net.Conn, error) { return t.Net.DialContext(ctx, from, host+":443") },
		TLS:        chain.ClientConfig(host),
		Mode:       mode,
		Persistent: persistent,
		Emission:   h2.FramePerFlight, // the browsers the paper captured
	}, nil
}
