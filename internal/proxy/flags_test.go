package proxy

import (
	"flag"
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dohcost/internal/dialer"
	"dohcost/internal/dnscache"
	"dohcost/internal/dnstransport"
	"dohcost/internal/guard"
	"dohcost/internal/qtrace"
	"dohcost/internal/steer"
)

// parseFlags runs argv through BindFlags over a copy of base and returns
// the finished Config, or the parse/finish error.
func parseFlags(base Config, argv ...string) (Config, error) {
	cfg := base
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	finish := BindFlags(fs, &cfg)
	if err := fs.Parse(argv); err != nil {
		return cfg, err
	}
	return cfg, finish()
}

// TestBindFlags maps argv to Config one section at a time.
func TestBindFlags(t *testing.T) {
	qlog := filepath.Join(t.TempDir(), "q.jsonl")
	cases := []struct {
		name string
		base Config
		argv []string
		want Config
	}{
		{name: "no flags leave the zero config", want: Config{}},
		{
			name: "cache",
			argv: []string{"-shards", "8", "-cache-budget", "64m", "-serve-stale", "1m", "-prefetch", "10s"},
			want: Config{CacheShards: 8, CacheBudget: 64 << 20, ServeStale: time.Minute, PrefetchWindow: 10 * time.Second},
		},
		{
			name: "steering and pool",
			argv: []string{"-policy", "hedged", "-hedge-delay", "25ms", "-conns", "4"},
			want: Config{Policy: steer.PolicyHedged, HedgeDelay: 25 * time.Millisecond,
				Pool: dnstransport.PoolConfig{ConnsPerUpstream: 4}},
		},
		{
			name: "guard",
			argv: []string{"-guard", "-guard-qps", "200", "-guard-burst", "50", "-guard-slip", "-1",
				"-guard-miss-rate", "25", "-guard-inflight-miss", "64", "-guard-no-cookies"},
			want: Config{Guard: &guard.Config{ClientQPS: 200, Burst: 50, SlipEvery: -1,
				MissRate: 25, MaxInflightMiss: 64, DisableCookies: true}},
		},
		{
			name: "bare -guard arms the defaults",
			argv: []string{"-guard"},
			want: Config{Guard: &guard.Config{}},
		},
		{
			name: "tracing",
			argv: []string{"-trace", "-trace-sample", "4", "-pprof"},
			want: Config{Tracing: &qtrace.Config{SampleEvery: 4}, Profiling: true},
		},
		{
			name: "udp listener",
			argv: []string{"-udp-listen", "127.0.0.1:0", "-udp-shards", "2", "-udp-batch", "8"},
			want: Config{UDPListen: "127.0.0.1:0", UDPShards: 2, UDPBatch: 8},
		},
		{
			name: "defaults come from the pre-populated struct",
			base: Config{CacheShards: 16, Policy: steer.PolicyFastest, CacheBudget: 1 << 20,
				Pool:    dnstransport.PoolConfig{ConnsPerUpstream: 2},
				Guard:   &guard.Config{ClientQPS: 10},
				Tracing: &qtrace.Config{SampleEvery: 8}},
			argv: []string{"-guard-burst", "5"}, // legal without -guard: the caller armed it
			want: Config{CacheShards: 16, Policy: steer.PolicyFastest, CacheBudget: 1 << 20,
				Pool:    dnstransport.PoolConfig{ConnsPerUpstream: 2},
				Guard:   &guard.Config{ClientQPS: 10, Burst: 5},
				Tracing: &qtrace.Config{SampleEvery: 8}},
		},
		{
			name: "flags override and disarm pre-populated sections",
			base: Config{Policy: steer.PolicyFastest, Guard: &guard.Config{}, Tracing: &qtrace.Config{}},
			argv: []string{"-policy", "failover", "-guard=false", "-trace=false"},
			want: Config{},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseFlags(tc.base, tc.argv...)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("argv %v\n got %+v\nwant %+v", tc.argv, got, tc.want)
			}
		})
	}

	// -slow-ms and -query-log each imply -trace and carry live writers, so
	// they are checked by field rather than by DeepEqual.
	got, err := parseFlags(Config{}, "-slow-ms", "50", "-query-log", qlog)
	if err != nil {
		t.Fatal(err)
	}
	if tr := got.Tracing; tr == nil || tr.SlowFloor != 50*time.Millisecond || tr.SlowLog == nil || tr.Log == nil {
		t.Errorf("-slow-ms/-query-log: Tracing = %+v, want armed with slow floor, slow log and query log", tr)
	} else {
		tr.Log.Close()
	}
}

// TestBindFlagsRejects pins the loud failures: a misspelt enum dies in
// fs.Parse, an orphaned tuning flag names the flag that arms it, and
// anything Validate rejects is rejected at the flag step too.
func TestBindFlagsRejects(t *testing.T) {
	cases := []struct {
		argv []string
		want string // substring of the error
	}{
		{[]string{"-policy", "fastset"}, "unknown policy"},
		{[]string{"-cache-budget", "9999999999g"}, "invalid byte size"},
		{[]string{"-guard-qps", "1"}, "-guard-qps requires -guard"},
		{[]string{"-guard-no-cookies"}, "-guard-no-cookies requires -guard"},
		{[]string{"-trace-sample", "4"}, "-trace-sample requires -trace"},
		{[]string{"-udp-batch", "8"}, "-udp-listen"},
		{[]string{"-udp-shards", "2"}, "-udp-listen"},
		{[]string{"-hedge-delay", "-1s"}, "HedgeDelay must not be negative"},
		{[]string{"-shards", "-1"}, "CacheShards must not be negative"},
	}
	for _, tc := range cases {
		_, err := parseFlags(Config{}, tc.argv...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("argv %v: err = %v, want one containing %q", tc.argv, err, tc.want)
		}
	}
}

// TestValidate covers every rejection, and the combinations that must stay
// legal because they are merely unused, not nonsense.
func TestValidate(t *testing.T) {
	ups := []dnstransport.PoolUpstream{{Name: "u"}}
	ok := []Config{
		{Upstreams: ups},
		{Upstreams: ups, HedgeDelay: time.Second}, // held constant across a policy sweep
		{Upstreams: ups, UDPListen: ":0", UDPBatch: 8, UDPShards: 2},
		{Upstreams: ups, Bootstrap: &dialer.Prober{}, Storm: &dialer.Storm{}},
		{Upstreams: ups, Policy: steer.PolicyHedged, CacheBudget: 64 << 20},
		{Upstreams: ups, CacheShards: dnscache.MaxShards, Pool: dnstransport.PoolConfig{ConnsPerUpstream: dnstransport.MaxConnsPerUpstream}},
	}
	for _, c := range ok {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", c, err)
		}
	}
	bad := map[string]Config{
		"no upstreams":        {},
		"policy range":        {Upstreams: ups, Policy: steer.PolicyHedged + 1},
		"CacheBudget":         {Upstreams: ups, CacheBudget: -1},
		"CacheShards":         {Upstreams: ups, CacheShards: -1},
		"MaxUDPSize":          {Upstreams: ups, MaxUDPSize: -1},
		"UDPShards":           {Upstreams: ups, UDPListen: ":0", UDPShards: -1},
		"UDPBatch":            {Upstreams: ups, UDPListen: ":0", UDPBatch: -1},
		"MaxTTL":              {Upstreams: ups, MaxTTL: -1},
		"UpstreamTimeout":     {Upstreams: ups, UpstreamTimeout: -1},
		"HedgeDelay":          {Upstreams: ups, HedgeDelay: -1},
		"ServeStale":          {Upstreams: ups, ServeStale: -1},
		"PrefetchWindow":      {Upstreams: ups, PrefetchWindow: -1},
		"CacheShards ceiling": {Upstreams: ups, CacheShards: dnscache.MaxShards + 1},
		"conns ceiling":       {Upstreams: ups, Pool: dnstransport.PoolConfig{ConnsPerUpstream: dnstransport.MaxConnsPerUpstream + 1}},
		"UDPShards no listen": {Upstreams: ups, UDPShards: 2},
		"UDPBatch no listen":  {Upstreams: ups, UDPBatch: 8},
		"Storm no Bootstrap":  {Upstreams: ups, Storm: &dialer.Storm{}},
	}
	for name, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, c)
		}
		if _, err := New(c); err == nil {
			t.Errorf("%s: New accepted %+v", name, c)
		}
	}
}
