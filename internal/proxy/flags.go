package proxy

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dohcost/internal/dnscache"
	"dohcost/internal/dnstransport"
	"dohcost/internal/guard"
	"dohcost/internal/qtrace"
)

// BindFlags declares every proxy flag on fs — the one flag table over
// Config, so a knob has one name and one help string in every CLI. Each
// flag's default is whatever the caller pre-populated in *cfg, which is how
// CLIs that differ only in defaults share the table.
//
// The returned finish step runs after fs.Parse: it resolves the
// pointer-valued sections (-guard* into cfg.Guard; -trace, -trace-sample,
// -slow-ms and -query-log into cfg.Tracing, opening the query log), turns a
// tuning flag whose section was never armed into an error naming both
// flags, and validates every knob except Upstreams, which the caller wires
// afterwards (New checks those).
func BindFlags(fs *flag.FlagSet, cfg *Config) (finish func() error) {
	fs.IntVar(&cfg.Pool.ConnsPerUpstream, "conns", cfg.Pool.ConnsPerUpstream, fmt.Sprintf("persistent connections per upstream, at most %d (0 = default 2)", dnstransport.MaxConnsPerUpstream))
	fs.IntVar(&cfg.CacheShards, "shards", cfg.CacheShards, fmt.Sprintf("cache lock partitions, at most %d (0 = default 16)", dnscache.MaxShards))
	fs.Func("cache-budget", "cache byte budget with TinyLFU admission, e.g. 64m or 512k (unset = the default 576k, LRU)", func(s string) (err error) {
		cfg.CacheBudget, err = dnscache.ParseByteSize(s)
		return err
	})
	fs.TextVar(&cfg.Policy, "policy", cfg.Policy, "upstream steering policy: failover, fastest or hedged")
	fs.DurationVar(&cfg.HedgeDelay, "hedge-delay", cfg.HedgeDelay, "hedged policy: wait before the second exchange (0 = adaptive SRTT+4·RTTVAR)")
	fs.DurationVar(&cfg.ServeStale, "serve-stale", cfg.ServeStale, "serve expired cache entries this long past expiry while refreshing in the background (RFC 8767; 0 disables)")
	fs.DurationVar(&cfg.PrefetchWindow, "prefetch", cfg.PrefetchWindow, "refresh hot cache entries when a hit finds them within this much of expiry (0 disables)")

	fs.StringVar(&cfg.UDPListen, "udp-listen", cfg.UDPListen, "also serve classic UDP DNS on real kernel sockets at this address (e.g. 127.0.0.1:5300); empty disables")
	fs.IntVar(&cfg.UDPShards, "udp-shards", cfg.UDPShards, "SO_REUSEPORT socket count for -udp-listen (0 = one per CPU)")
	fs.IntVar(&cfg.UDPBatch, "udp-batch", cfg.UDPBatch, "vector size of the -udp-listen serve loop (recvmmsg/sendmmsg where supported; 0 = default 32)")

	guardOn := cfg.Guard != nil
	var g guard.Config
	if guardOn {
		g = *cfg.Guard
	}
	fs.BoolVar(&guardOn, "guard", guardOn, "arm the abuse guard: per-client RRL with slip/TC on UDP, REFUSED on streams, DNS cookies, cache-miss circuit breaker")
	fs.Float64Var(&g.ClientQPS, "guard-qps", g.ClientQPS, "guard: per-client sustained response rate (0 = default 50)")
	fs.IntVar(&g.Burst, "guard-burst", g.Burst, "guard: per-client token-bucket burst (0 = 2×qps)")
	fs.IntVar(&g.SlipEvery, "guard-slip", g.SlipEvery, "guard: every Nth rate-limited UDP response is a TC=1 slip instead of a silent drop (0 = default 2, negative = never slip)")
	fs.Float64Var(&g.MissRate, "guard-miss-rate", g.MissRate, "guard: per-client sustained cache-miss rate before the breaker refuses (0 = default 20)")
	fs.IntVar(&g.MaxInflightMiss, "guard-inflight-miss", g.MaxInflightMiss, "guard: global ceiling on concurrent upstream-bound misses (0 = default 1024)")
	fs.BoolVar(&g.DisableCookies, "guard-no-cookies", g.DisableCookies, "guard: disable RFC 7873 server cookies (cookie holders otherwise bypass UDP rate limits)")

	traceOn := cfg.Tracing != nil
	var (
		tr       qtrace.Config
		slowMS   float64
		queryLog string
	)
	if traceOn {
		tr = *cfg.Tracing
	}
	fs.BoolVar(&traceOn, "trace", traceOn, "arm per-query lifecycle tracing: phase spans, tail-sampled onto /debug/trace and into the end-of-run digest")
	fs.IntVar(&tr.SampleEvery, "trace-sample", tr.SampleEvery, "tracing: keep 1-in-N unremarkable traces as baseline (0 = default 64)")
	fs.Float64Var(&slowMS, "slow-ms", 0, "tracing: print one stderr line with a phase breakdown per query slower than this many ms (implies -trace)")
	fs.StringVar(&queryLog, "query-log", "", "tracing: append every kept trace as a JSONL record to this file, rotated at 64 MiB (implies -trace)")
	fs.BoolVar(&cfg.Profiling, "pprof", cfg.Profiling, "mount /debug/pprof and Go runtime gauges on the observability handler")

	return func() error {
		traceOn = traceOn || slowMS > 0 || queryLog != ""
		var orphan error
		fs.Visit(func(f *flag.Flag) {
			switch {
			case strings.HasPrefix(f.Name, "guard-") && !guardOn:
				orphan = fmt.Errorf("-%s requires -guard", f.Name)
			case f.Name == "trace-sample" && !traceOn:
				orphan = errors.New("-trace-sample requires -trace (or -slow-ms/-query-log, which imply it)")
			}
		})
		if orphan != nil {
			return orphan
		}
		cfg.Guard = nil
		if guardOn {
			cfg.Guard = &g
		}
		if err := cfg.validateKnobs(); err != nil {
			return err
		}
		cfg.Tracing = nil
		if traceOn {
			if slowMS > 0 {
				tr.SlowFloor = time.Duration(slowMS * float64(time.Millisecond))
				// Stderr, so a CLI's machine-readable stdout stays parseable.
				tr.SlowLog = os.Stderr
			}
			if queryLog != "" {
				ql, err := qtrace.OpenQueryLog(queryLog, 0)
				if err != nil {
					return fmt.Errorf("-query-log: %w", err)
				}
				tr.Log = ql
			}
			cfg.Tracing = &tr
		}
		return nil
	}
}
