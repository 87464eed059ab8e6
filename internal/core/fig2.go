package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"dohcost/internal/dnsserver"
	"dohcost/internal/dnstransport"
	"dohcost/internal/dnswire"
	"dohcost/internal/stats"
)

// Fig2Transports lists the transports Figure 2 compares, in the paper's
// column order.
var Fig2Transports = []string{"udp", "tls", "http1", "http2"}

// Fig2Config parameterizes the head-of-line-blocking experiment. The
// defaults are the paper's §3 setup: 100 unique names (5-char random prefix
// on a fixed base), Poisson arrivals at 10 queries/second, and a delayed
// scenario stalling one in every 25 queries by 1000 ms.
type Fig2Config struct {
	Queries    int
	Rate       float64 // queries per second
	DelayEvery int
	Delay      time.Duration
	Seed       int64
	// BaseRTT is the client↔resolver round trip; the paper ran on
	// localhost, so the default is 200 µs.
	BaseRTT time.Duration
	// Profile names a netsim impairment profile applied to the client's
	// access link (see TopologyConfig.Profile) — the knob that re-runs the
	// head-of-line experiment under the degraded regimes where loss
	// recovery, not resolver stalls, drives the knock-on effects. Empty
	// keeps the paper's ideal links.
	Profile string
	// Transports defaults to Fig2Transports. "tls-ooo" is also accepted:
	// DoT against a server that answers out of order (the Cloudflare
	// deployment style), showing DoT's head-of-line blocking is the
	// deployment default, not the protocol's fate.
	Transports []string
}

func (c Fig2Config) withDefaults() Fig2Config {
	if c.Queries == 0 {
		c.Queries = 100
	}
	if c.Rate == 0 {
		c.Rate = 10
	}
	if c.DelayEvery == 0 {
		c.DelayEvery = 25
	}
	if c.Delay == 0 {
		c.Delay = time.Second
	}
	if c.BaseRTT == 0 {
		c.BaseRTT = 200 * time.Microsecond
	}
	if c.Transports == nil {
		c.Transports = Fig2Transports
	}
	return c
}

// QuerySample is one point of Figure 2: when the query was sent (x axis)
// and how long its resolution took (y axis).
type QuerySample struct {
	SentAt     time.Duration
	Resolution time.Duration
	Err        bool
}

// Fig2Result holds both scenario rows of the figure.
type Fig2Result struct {
	Config   Fig2Config
	Baseline map[string][]QuerySample
	Delayed  map[string][]QuerySample
}

// RunFig2 executes the experiment: for each transport, a baseline run and a
// run with injected delays, each against a fresh resolver deployment.
func RunFig2(cfg Fig2Config) (*Fig2Result, error) {
	cfg = cfg.withDefaults()
	res := &Fig2Result{
		Config:   cfg,
		Baseline: make(map[string][]QuerySample, len(cfg.Transports)),
		Delayed:  make(map[string][]QuerySample, len(cfg.Transports)),
	}
	for _, transport := range cfg.Transports {
		for _, delayed := range []bool{false, true} {
			samples, err := runFig2Scenario(cfg, transport, delayed)
			if err != nil {
				return nil, fmt.Errorf("core: fig2 %s delayed=%v: %w", transport, delayed, err)
			}
			if delayed {
				res.Delayed[transport] = samples
			} else {
				res.Baseline[transport] = samples
			}
		}
	}
	return res, nil
}

func runFig2Scenario(cfg Fig2Config, transport string, delayed bool) ([]QuerySample, error) {
	handler := dnsserver.Handler(dnsserver.Static(fig2Addr, 300))
	if delayed {
		handler = dnsserver.DelayEvery(cfg.DelayEvery, cfg.Delay, handler)
	}
	topo, err := NewTopology(TopologyConfig{
		Seed:          cfg.Seed,
		Handler:       handler,
		LocalRTT:      cfg.BaseRTT,
		CFRTT:         cfg.BaseRTT,
		GORTT:         cfg.BaseRTT,
		Profile:       cfg.Profile,
		HTTP1Only:     transport == "http1",
		DoTOutOfOrder: transport == "tls-ooo",
	})
	if err != nil {
		return nil, err
	}
	defer topo.Close()

	var resolver dnstransport.Resolver
	switch transport {
	case "udp":
		resolver, err = topo.UDPResolver(ClientHost, LocalHost)
	case "tls", "tls-ooo":
		resolver, err = topo.DoTResolver(ClientHost, CFHost) // "tls" = in-order server, the common DoT deployment
	case "http1":
		resolver, err = topo.DoHResolver(ClientHost, CFHost, dnstransport.ModeH1, true)
	case "http2":
		resolver, err = topo.DoHResolver(ClientHost, CFHost, dnstransport.ModeH2, true)
	default:
		return nil, fmt.Errorf("unknown transport %q", transport)
	}
	if err != nil {
		return nil, err
	}
	defer resolver.Close()

	// Prime stream transports so connection setup is not the first sample
	// (the paper footnotes the first-query handshake cost separately).
	if transport != "udp" {
		warm := dnswire.NewQuery(0, "warmup.fig2.example.", dnswire.TypeA)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if _, err := resolver.Exchange(ctx, warm); err != nil {
			cancel()
			return nil, fmt.Errorf("warmup: %w", err)
		}
		cancel()
	}

	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	horizon := time.Duration(float64(cfg.Queries)/cfg.Rate*float64(time.Second)) + time.Second
	arrivals := stats.PoissonArrivals(rng, cfg.Rate, horizon)
	if len(arrivals) > cfg.Queries {
		arrivals = arrivals[:cfg.Queries]
	}

	// The paper's query names: random 5-character prefix, fixed base, so
	// every query is unique (no caching) but equally compressible.
	names := make([]dnswire.Name, len(arrivals))
	const letters = "abcdefghijklmnopqrstuvwxyz"
	for i := range names {
		prefix := make([]byte, 5)
		for j := range prefix {
			prefix[j] = letters[rng.Intn(len(letters))]
		}
		names[i] = dnswire.Name(string(prefix) + ".fig2.example.")
	}

	samples := make([]QuerySample, len(arrivals))
	var wg sync.WaitGroup
	start := time.Now()
	for i, at := range arrivals {
		wg.Add(1)
		go func(i int, at time.Duration) {
			defer wg.Done()
			time.Sleep(time.Until(start.Add(at)))
			q := dnswire.NewQuery(0, names[i], dnswire.TypeA)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			sent := time.Now()
			_, err := resolver.Exchange(ctx, q)
			samples[i] = QuerySample{
				SentAt:     at,
				Resolution: time.Since(sent),
				Err:        err != nil,
			}
		}(i, at)
	}
	wg.Wait()
	return samples, nil
}

var fig2Addr = mustAddr("192.0.2.2")

// KnockOnCount counts queries whose resolution exceeded threshold — the
// figure's visual signature of head-of-line blocking. With four injected
// delays, UDP and HTTP/2 should show ≈4 slow queries while TLS and HTTP/1.1
// show many more (each delay stalls the queue behind it).
func KnockOnCount(samples []QuerySample, threshold time.Duration) int {
	n := 0
	for _, s := range samples {
		if !s.Err && s.Resolution >= threshold {
			n++
		}
	}
	return n
}

// RenderFig2 prints per-transport resolution-time summaries for both
// scenario rows plus the knock-on counts.
func RenderFig2(r *Fig2Result) string {
	var sb strings.Builder
	threshold := r.Config.Delay / 2
	fmt.Fprintf(&sb, "Figure 2 — resolution times under Poisson arrivals (%.0f qps, %d queries)\n",
		r.Config.Rate, r.Config.Queries)
	fmt.Fprintf(&sb, "delayed scenario: 1 in %d queries stalled %v at the resolver\n\n",
		r.Config.DelayEvery, r.Config.Delay)
	fmt.Fprintf(&sb, "%-8s %-10s %10s %10s %10s %10s %8s\n",
		"scenario", "transport", "median", "p90", "p99", "max", ">50%dly")
	for _, scenario := range []struct {
		label string
		data  map[string][]QuerySample
	}{{"baseline", r.Baseline}, {"delayed", r.Delayed}} {
		keys := make([]string, 0, len(scenario.data))
		for k := range scenario.data {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, transport := range keys {
			samples := scenario.data[transport]
			ms := make([]float64, 0, len(samples))
			for _, s := range samples {
				if !s.Err {
					ms = append(ms, float64(s.Resolution)/float64(time.Millisecond))
				}
			}
			cdf := stats.NewCDF(ms)
			fmt.Fprintf(&sb, "%-8s %-10s %9.2fms %9.2fms %9.2fms %9.2fms %8d\n",
				scenario.label, transport,
				cdf.Quantile(0.5), cdf.Quantile(0.9), cdf.Quantile(0.99), cdf.Quantile(1),
				KnockOnCount(samples, threshold))
		}
	}
	return sb.String()
}
