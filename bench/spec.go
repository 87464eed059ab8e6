package main

import "time"

// transport names the listener a workload's clients connect to.
type transport int

const (
	overUDP transport = iota
	overDoT
	overDoH
)

// workload is one fixed traffic mix. Rates and sizes are constants so the
// parent commit and a change always see identical load; nothing is tuned
// at run time.
type workload struct {
	name string
	over transport
	// openRate is the total Poisson arrival rate of the open phase, q/s.
	openRate float64
	// multiAnswer makes the odd half of the hot set carry 8-record answers.
	multiAnswer bool
	// zipfNames, when non-zero, draws every name Zipf(s=1.0) over that many
	// names instead of from the hot set.
	zipfNames int
	// missShare is the fraction of queries for never-repeated names.
	missShare float64
	// upstreamDelay is the loopback upstream's fixed service time.
	upstreamDelay time.Duration
	// cacheBudget, when non-zero, bounds the cache in bytes (TinyLFU).
	cacheBudget int64
	why         string
}

const (
	// hotNames is the pre-warmed hot set every workload has (the Zipf
	// workload's is its 64 top ranks).
	hotNames = 64
	// lanes is the number of client connections; window their pipelining
	// depth in the closed phase; openWindow the in-flight cap per
	// connection in the open phase, beyond which arrivals back up in the
	// generator. Two lanes of 96 small datagrams fit the UDP listener's
	// default receive buffer; more would let a machine stall drop
	// datagrams, a failure the proxy did not cause.
	lanes      = 2
	window     = 16
	openWindow = 96
	// clientTimeout fails a query that has no reply after this long.
	clientTimeout = time.Second
	// verifyEvery fully unpacks one reply in this many; every reply gets
	// the cheap header and first-address check.
	verifyEvery = 64
	// zipfPrewarm is how many top ranks set-up pushes through the cache.
	zipfPrewarm = 8192
)

var workloads = []workload{
	{
		name: "udp_hit", over: overUDP, openRate: 40000,
		why: "64 pre-warmed names over the batched UDP listener at 40000 q/s: the wire fast path, where per-packet cost dominates and TLS, h2 and the miss path do nothing",
	},
	{
		name: "doh_hit", over: overDoH, openRate: 10000, multiAnswer: true,
		why: "the same cache hits as DoH POST over h2 over TLS 1.3 at 10000 q/s, half with 8-record answers: the paper's subject, doh_hit over udp_hit is our own cost of DoH",
	},
	{
		name: "udp_zipf_miss", over: overUDP, openRate: 15000,
		zipfNames: 200000, cacheBudget: 4 << 20, upstreamDelay: 2 * time.Millisecond,
		why: "Zipf(1.0) over 200000 names into a 4 MB TinyLFU cache (about 75% hits) at 15000 q/s, misses to a 2 ms TCP upstream: inserts, admission, eviction, singleflight, steer and pool",
	},
	{
		name: "dot_mixed", over: overDoT, openRate: 20000, multiAnswer: true,
		missShare: 0.10, upstreamDelay: 2 * time.Millisecond,
		why: "out-of-order DoT at 20000 q/s, 90% hot hits beside 10% never-repeated names missing to a 2 ms upstream: inline hits contending with per-miss goroutines on the write lock",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricSpec is one named metric as BENCHMARK.json lists it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics an operator of the proxy would see, per
// workload, that repeat on a shared 2-core machine: they are counted in CPU
// time, allocations, bytes and memory. Wall-clock throughput and latency
// are measured too but do not repeat within any bound here (README.md), so
// they are bench.* diagnostics. Bounds are the relative worsening that
// counts as a regression.
var endToEnd = []metricSpec{
	{"cpu_us_per_query", "us", "lower", 0.25},
	{"allocs_per_query", "count", "lower", 0.08},
	{"wire_bytes_per_query", "bytes", "lower", 0.01},
	{"max_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// wallClock are the diagnostics -compare shows beside the end-to-end
// metrics: what a client sees on the clock, which this machine cannot
// repeat well enough to gate on.
var wallClock = []metricSpec{
	hi("bench.closed_qps", "1/s"),
	lo("bench.open_p50_us", "us"),
	lo("bench.open_p99_quiet_us", "us"),
}

func lo(name, unit string) metricSpec { return metricSpec{Name: name, Unit: unit, Better: "lower"} }
func hi(name, unit string) metricSpec { return metricSpec{Name: name, Unit: unit, Better: "higher"} }

// perLayer are single-layer metrics, named after the internal/ package
// they measure; bench.* are the harness's own diagnostics and controls.
var perLayer = []metricSpec{
	// Hit path.
	lo("dnswire.parse_query_ns", "ns"),
	lo("guard.check_udp_ns", "ns"),
	lo("guard.check_stream_ns", "ns"),
	lo("telemetry.begin_finish_ns", "ns"),
	lo("qtrace.armed_overhead_ns", "ns"),
	lo("dnscache.serve_wire_hit_ns", "ns"),
	lo("dnscache.serve_wire_hit_allocs", "count"),
	lo("proxy.handler_wire_hit_ns", "ns"),
	lo("dnsserver.udp_serve_batch_ns", "ns"),
	lo("dnsserver.udp_serve_packet_ns", "ns"),
	lo("udpio.read_batch_ns_per_dgram", "ns"),
	lo("udpio.write_batch_ns_per_dgram", "ns"),
	lo("udpio.fallback_ns_per_dgram", "ns"),
	hi("udpio.datagrams_per_read", "count"),
	hi("dnsserver.udp_fast_hit_ratio", "ratio"),
	lo("dnsserver.udp_spills", "count"),
	// DoH and TLS wrap.
	lo("dnsserver.doh_serve_ns", "ns"),
	lo("dnsserver.doh_serve_allocs", "count"),
	lo("h2.roundtrip_ns", "ns"),
	lo("h2.roundtrip_allocs", "count"),
	lo("h2.frames_per_query", "count"),
	lo("h2.overhead_bytes_per_query", "bytes"),
	lo("hpack.encode_ns", "ns"),
	lo("hpack.decode_ns", "ns"),
	lo("hpack.header_bytes_per_query", "bytes"),
	lo("tls.record_roundtrip_ns", "ns"),
	lo("tlsx.handshake_us", "us"),
	lo("tlsx.resumed_handshake_us", "us"),
	lo("dnstransport.doh_conn_setup_us", "us"),
	// Stream path.
	lo("dnsserver.stream_serve_hit_ns", "ns"),
	lo("dnsserver.stream_serve_allocs", "count"),
	lo("dnsserver.stream_miss_goroutines_peak", "count"),
	// Miss path.
	lo("dnswire.unpack_ns", "ns"),
	lo("dnswire.pack_ns", "ns"),
	lo("dnscache.exchange_hit_ns", "ns"),
	lo("dnscache.exchange_miss_insert_ns", "ns"),
	lo("dnscache.exchange_miss_insert_allocs", "count"),
	lo("guard.admit_miss_ns", "ns"),
	lo("steer.exchange_overhead_ns", "ns"),
	lo("dnstransport.pool_exchange_overhead_ns", "ns"),
	lo("dnstransport.stream_exchange_us", "us"),
	lo("proxy.handler_miss_ns", "ns"),
	hi("dnscache.hit_ratio", "ratio"),
	hi("dnscache.coalesced_ratio", "ratio"),
	lo("dnscache.evictions_per_miss", "ratio"),
	lo("dnscache.admission_reject_ratio", "ratio"),
	lo("dnscache.arena_epochs", "count"),
	lo("dnscache.bytes_live", "bytes"),
	lo("dnstransport.pool_dials", "count"),
	lo("dnstransport.pool_failures", "count"),
	lo("guard.refusals", "count"),
	// Controls and diagnostics: they gate nothing.
	lo("netsim.udp_rtt_ns", "ns"),
	lo("netsim.stream_rtt_ns", "ns"),
	lo("bench.fail_ratio", "ratio"),
	hi("bench.closed_qps", "1/s"),
	lo("bench.open_p50_us", "us"),
	lo("bench.open_p99_quiet_us", "us"),
	lo("bench.open_p99_whole_us", "us"),
	lo("bench.open_p999_us", "us"),
	lo("bench.stalled_windows", "count"),
	lo("bench.gen_late_p99_us", "us"),
	lo("bench.backlog_max", "count"),
	lo("bench.gc_pause_total_ms", "ms"),
	lo("bench.trace_overhead_ratio", "ratio"),
	hi("bench.layer_sum_ratio", "ratio"),
}
