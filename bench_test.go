// Benchmarks regenerating every table and figure of the paper (scaled to
// bench-friendly sizes — the cmd tools run full scale), plus ablations of
// the design choices DESIGN.md calls out. Custom metrics carry the paper's
// units: bytes and packets per resolution, milliseconds of
// resolution/page-load time. The serving path's per-layer and end-to-end
// numbers live in bench/ and in the benchmarks and allocation pins beside
// each package.
package dohcost

import (
	"context"
	"net/netip"
	"strings"
	"testing"
	"time"

	"dohcost/internal/core"
	"dohcost/internal/dnscache"
	"dohcost/internal/dnsserver"
	"dohcost/internal/dnstransport"
	"dohcost/internal/dnswire"
	"dohcost/internal/hpack"
	"dohcost/internal/stats"
)

var mustAddrBench = netip.MustParseAddr("192.0.2.99")

// --- Figure 1 -----------------------------------------------------------

func BenchmarkFig1QueriesPerPage(b *testing.B) {
	var median float64
	for i := 0; i < b.N; i++ {
		r := core.RunFig1(core.Fig1Config{Pages: 10000, Seed: int64(i)})
		median = r.CDF.Quantile(0.5)
	}
	b.ReportMetric(median, "queries/page-median")
}

// --- Tables 1 & 2 -------------------------------------------------------

func BenchmarkTable2Probe(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := core.RunTables(int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Diffs) != 0 {
			b.Fatalf("probe mismatches: %v", res.Diffs)
		}
	}
}

// --- Figure 2 -----------------------------------------------------------

func benchmarkFig2(b *testing.B, transport string) {
	cfg := core.Fig2Config{
		Queries: 25, Rate: 50, DelayEvery: 10, Delay: 200 * time.Millisecond,
		Seed: 42, Transports: []string{transport},
	}
	var knockOn int
	for i := 0; i < b.N; i++ {
		res, err := core.RunFig2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		knockOn = core.KnockOnCount(res.Delayed[transport], cfg.Delay/2)
	}
	b.ReportMetric(float64(knockOn), "slow-queries")
}

func BenchmarkFig2HOLBlockingUDP(b *testing.B)   { benchmarkFig2(b, "udp") }
func BenchmarkFig2HOLBlockingDoT(b *testing.B)   { benchmarkFig2(b, "tls") }
func BenchmarkFig2HOLBlockingHTTP1(b *testing.B) { benchmarkFig2(b, "http1") }
func BenchmarkFig2HOLBlockingHTTP2(b *testing.B) { benchmarkFig2(b, "http2") }

// --- Figures 3, 4, 5 ----------------------------------------------------

func benchmarkOverheadScenario(b *testing.B, scenario string) {
	var bytesMed, pktMed float64
	for i := 0; i < b.N; i++ {
		res, err := core.RunOverhead(core.OverheadConfig{Domains: 30, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		s := res.Scenario(scenario)
		bytesMed = stats.NewCDF(s.Bytes()).Quantile(0.5)
		pktMed = stats.NewCDF(s.Packets()).Quantile(0.5)
	}
	b.ReportMetric(bytesMed, "B/resolution")
	b.ReportMetric(pktMed, "pkts/resolution")
}

func BenchmarkFig3BytesPerResolution(b *testing.B)   { benchmarkOverheadScenario(b, "H/CF") }
func BenchmarkFig4PacketsPerResolution(b *testing.B) { benchmarkOverheadScenario(b, "HP/CF") }

func BenchmarkFig5LayerBreakdown(b *testing.B) {
	var tlsMed float64
	for i := 0; i < b.N; i++ {
		res, err := core.RunOverhead(core.OverheadConfig{Domains: 30, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		var tlsBytes []float64
		for _, bd := range res.Scenario("H/CF").Breakdowns() {
			tlsBytes = append(tlsBytes, float64(bd.TLS))
		}
		tlsMed = stats.NewCDF(tlsBytes).Quantile(0.5)
	}
	b.ReportMetric(tlsMed, "TLS-B/resolution")
}

// --- Figure 6 -----------------------------------------------------------

func BenchmarkFig6PageLoad(b *testing.B) {
	var dohOverUDP float64
	for i := 0; i < b.N; i++ {
		res, err := core.RunFig6(core.Fig6Config{Pages: 8, Loads: 1, Seed: 42, Workers: 8})
		if err != nil {
			b.Fatal(err)
		}
		udp := stats.NewCDF(res.Series("U/CF").Loadms).Quantile(0.5)
		doh := stats.NewCDF(res.Series("H/CF").Loadms).Quantile(0.5)
		dohOverUDP = doh / udp
	}
	b.ReportMetric(dohOverUDP, "onload-DoH/UDP")
}

// --- Ablations ----------------------------------------------------------

// BenchmarkAblationDoTOutOfOrder quantifies how much of DoT's Figure 2
// penalty is reply scheduling rather than protocol: the same stalled-query
// workload against an in-order and a Cloudflare-style out-of-order server.
// Compare the fast-ms/query metric between the two sub-benchmarks.
func BenchmarkAblationDoTOutOfOrder(b *testing.B) {
	const stall = 60 * time.Millisecond
	handler := dnsserver.HandlerFunc(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		if strings.HasPrefix(string(q.Question1().Name), "slow") {
			time.Sleep(stall)
		}
		return dnsserver.Static(mustAddrBench, 300).ServeDNS(ctx, q)
	})
	for _, mode := range []struct {
		name string
		ooo  bool
	}{{"in-order", false}, {"out-of-order", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var fastMS float64
			for i := 0; i < b.N; i++ {
				topo, err := core.NewTopology(core.TopologyConfig{
					Seed: 42, Handler: handler, DoTOutOfOrder: mode.ooo,
					LocalRTT: 200 * time.Microsecond, CFRTT: 200 * time.Microsecond, GORTT: 200 * time.Microsecond,
				})
				if err != nil {
					b.Fatal(err)
				}
				r, err := topo.DoTResolver(core.ClientHost, core.CFHost)
				if err != nil {
					topo.Close()
					b.Fatal(err)
				}
				// Warm the connection, then stall one query and race a
				// fast one behind it.
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				if _, err := r.Exchange(ctx, dnswire.NewQuery(0, "warm.example.", dnswire.TypeA)); err != nil {
					b.Fatal(err)
				}
				cancel()
				done := make(chan struct{})
				go func() {
					defer close(done)
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					defer cancel()
					r.Exchange(ctx, dnswire.NewQuery(0, "slow.example.", dnswire.TypeA))
				}()
				time.Sleep(5 * time.Millisecond)
				ctx, cancel = context.WithTimeout(context.Background(), 10*time.Second)
				start := time.Now()
				if _, err := r.Exchange(ctx, dnswire.NewQuery(0, "fast.example.", dnswire.TypeA)); err != nil {
					b.Fatal(err)
				}
				cancel()
				fastMS = float64(time.Since(start)) / float64(time.Millisecond)
				<-done
				r.Close()
				topo.Close()
			}
			b.ReportMetric(fastMS, "fast-ms/query")
		})
	}
}

// BenchmarkAblationHPACKStaticOnly isolates the differential-header saving
// of Figure 5: repeated DoH-style header blocks with and without the
// dynamic table.
func BenchmarkAblationHPACKStaticOnly(b *testing.B) {
	fields := []hpack.HeaderField{
		{Name: ":method", Value: "POST"},
		{Name: ":scheme", Value: "https"},
		{Name: ":authority", Value: "cloudflare-dns.com"},
		{Name: ":path", Value: "/dns-query"},
		{Name: "content-type", Value: "application/dns-message"},
		{Name: "accept", Value: "application/dns-message"},
		{Name: "content-length", Value: "33"},
	}
	measure := func(disableDynamic bool) int {
		e := hpack.NewEncoder()
		e.DisableDynamic = disableDynamic
		total := 0
		for i := 0; i < 20; i++ {
			total += len(e.AppendEncode(nil, fields))
		}
		return total / 20
	}
	var dyn, static int
	for i := 0; i < b.N; i++ {
		dyn = measure(false)
		static = measure(true)
	}
	b.ReportMetric(float64(dyn), "B/hdr-dynamic")
	b.ReportMetric(float64(static), "B/hdr-static")
}

// BenchmarkAblationConnectionReuse traces the amortization curve behind
// Figures 3–5: mean per-resolution bytes at increasing reuse counts.
func BenchmarkAblationConnectionReuse(b *testing.B) {
	for _, reuse := range []int{1, 5, 20, 50} {
		b.Run(formatReuse(reuse), func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				topo, err := core.NewTopology(core.TopologyConfig{Seed: 42})
				if err != nil {
					b.Fatal(err)
				}
				var costs []dnstransport.Cost
				doh, err := topo.DoHResolver(core.ClientHost, core.CFHost, dnstransport.ModeH2, true)
				if err != nil {
					topo.Close()
					b.Fatal(err)
				}
				doh.Recorder = dnstransport.CostFunc(func(c dnstransport.Cost) { costs = append(costs, c) })
				for q := 0; q < reuse; q++ {
					query := dnswire.NewQuery(0, dnswire.Name(domainN(q)), dnswire.TypeA)
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					if _, err := doh.Exchange(ctx, query); err != nil {
						b.Fatal(err)
					}
					cancel()
				}
				var total int64
				for _, c := range costs {
					total += c.WireCost().Bytes
				}
				mean = float64(total) / float64(reuse)
				doh.Close()
				topo.Close()
			}
			b.ReportMetric(mean, "B/resolution-mean")
		})
	}
}

// BenchmarkAblationCertChainSize reproduces the Cloudflare-vs-Google gap as
// a pure function of chain bytes: per-connection setup cost against both
// deployments.
func BenchmarkAblationCertChainSize(b *testing.B) {
	for _, host := range []string{core.CFHost, core.GOHost} {
		b.Run(host, func(b *testing.B) {
			topo, err := core.NewTopology(core.TopologyConfig{Seed: 42})
			if err != nil {
				b.Fatal(err)
			}
			defer topo.Close()
			var setupBytes float64
			for i := 0; i < b.N; i++ {
				var cost dnstransport.Cost
				doh, err := topo.DoHResolver(core.ClientHost, host, dnstransport.ModeH2, false)
				if err != nil {
					b.Fatal(err)
				}
				doh.Recorder = dnstransport.CostFunc(func(c dnstransport.Cost) { cost = c })
				q := dnswire.NewQuery(0, "chain.ablation.example.", dnswire.TypeA)
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				if _, err := doh.Exchange(ctx, q); err != nil {
					b.Fatal(err)
				}
				cancel()
				doh.Close()
				setupBytes = float64(cost.WireCost().Bytes)
			}
			b.ReportMetric(setupBytes, "B/setup-resolution")
		})
	}
}

// BenchmarkAblationGETvsPOST compares RFC 8484's two wireformat encodings.
func BenchmarkAblationGETvsPOST(b *testing.B) {
	encodings := map[string]dnstransport.DoHEncoding{
		"POST": dnstransport.EncodingPOST,
		"GET":  dnstransport.EncodingGET,
	}
	for name, enc := range encodings {
		b.Run(name, func(b *testing.B) {
			topo, err := core.NewTopology(core.TopologyConfig{Seed: 42})
			if err != nil {
				b.Fatal(err)
			}
			defer topo.Close()
			doh, err := topo.DoHResolver(core.ClientHost, core.CFHost, dnstransport.ModeH2, true)
			if err != nil {
				b.Fatal(err)
			}
			defer doh.Close()
			doh.Encoding = enc
			var costs []dnstransport.Cost
			doh.Recorder = dnstransport.CostFunc(func(c dnstransport.Cost) { costs = append(costs, c) })
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := dnswire.NewQuery(0, dnswire.Name(domainN(i)), dnswire.TypeA)
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				if _, err := doh.Exchange(ctx, q); err != nil {
					b.Fatal(err)
				}
				cancel()
			}
			b.StopTimer()
			if len(costs) > 1 {
				var total int64
				for _, c := range costs[1:] { // skip the setup exchange
					total += c.WireCost().Bytes
				}
				b.ReportMetric(float64(total)/float64(len(costs)-1), "B/resolution-steady")
			}
		})
	}
}

// BenchmarkAblationSessionResumption measures what TLS 1.3 session tickets
// recover of the non-persistent DoH overhead: the second connection's setup
// resolution with and without a client session cache.
func BenchmarkAblationSessionResumption(b *testing.B) {
	for _, resume := range []bool{false, true} {
		name := "full-handshake"
		if resume {
			name = "resumed"
		}
		b.Run(name, func(b *testing.B) {
			topo, err := core.NewTopology(core.TopologyConfig{Seed: 42})
			if err != nil {
				b.Fatal(err)
			}
			defer topo.Close()
			var secondConnBytes float64
			for i := 0; i < b.N; i++ {
				var costs []dnstransport.Cost
				doh, err := topo.DoHResolver(core.ClientHost, core.CFHost, dnstransport.ModeH2, false)
				if err != nil {
					b.Fatal(err)
				}
				doh.ResumeSessions = resume
				doh.Recorder = dnstransport.CostFunc(func(c dnstransport.Cost) { costs = append(costs, c) })
				for q := 0; q < 2; q++ { // first primes the ticket, second resumes
					query := dnswire.NewQuery(0, dnswire.Name(domainN(q)), dnswire.TypeA)
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					if _, err := doh.Exchange(ctx, query); err != nil {
						b.Fatal(err)
					}
					cancel()
				}
				doh.Close()
				secondConnBytes = float64(costs[1].WireCost().Bytes)
			}
			b.ReportMetric(secondConnBytes, "B/second-connection")
		})
	}
}

// BenchmarkAblationWarmCache shows how a stub cache erases repeat-query
// cost entirely: resolution bytes for a Zipf-popular name with and without
// dnscache in front of DoH.
func BenchmarkAblationWarmCache(b *testing.B) {
	topo, err := core.NewTopology(core.TopologyConfig{Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	defer topo.Close()
	doh, err := topo.DoHResolver(core.ClientHost, core.CFHost, dnstransport.ModeH2, true)
	if err != nil {
		b.Fatal(err)
	}
	var total int64
	doh.Recorder = dnstransport.CostFunc(func(c dnstransport.Cost) { total += c.WireCost().Bytes })
	cached := dnscache.New(doh)
	defer cached.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := dnswire.NewQuery(0, "ads0.thirdparty.example.", dnswire.TypeA)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if _, err := cached.Exchange(ctx, q); err != nil {
			b.Fatal(err)
		}
		cancel()
	}
	b.StopTimer()
	stats := cached.Stats()
	b.ReportMetric(float64(total)/float64(b.N), "upstream-B/query")
	b.ReportMetric(float64(stats.Hits)/float64(stats.Hits+stats.Misses)*100, "hit-%")
}

// --- helpers ------------------------------------------------------------

func domainN(i int) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	buf := []byte("bench-.example.")
	buf[5] = letters[i%26]
	return string(buf[:5]) + string(letters[(i/26)%26]) + string(letters[i%26]) + ".example."
}

func formatReuse(n int) string {
	switch n {
	case 1:
		return "reuse-01"
	case 5:
		return "reuse-05"
	case 20:
		return "reuse-20"
	default:
		return "reuse-50"
	}
}
