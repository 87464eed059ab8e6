// Benchmarks regenerating every table and figure of the paper (scaled to
// bench-friendly sizes — the cmd tools run full scale), plus ablations of
// the design choices DESIGN.md calls out and micro-benchmarks of the
// substrate hot paths. Custom metrics carry the paper's units: bytes and
// packets per resolution, milliseconds of resolution/page-load time.
package dohcost

import (
	"context"
	"crypto/tls"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dohcost/internal/alexa"
	"dohcost/internal/core"
	"dohcost/internal/dialer"
	"dohcost/internal/dnscache"
	"dohcost/internal/dnsserver"
	"dohcost/internal/dnstransport"
	"dohcost/internal/dnswire"
	"dohcost/internal/guard"
	"dohcost/internal/h2"
	"dohcost/internal/hpack"
	"dohcost/internal/landscape"
	"dohcost/internal/loadgen"
	"dohcost/internal/netsim"
	"dohcost/internal/proxy"
	"dohcost/internal/qtrace"
	"dohcost/internal/stats"
	"dohcost/internal/steer"
	"dohcost/internal/telemetry"
	"dohcost/internal/tlsx"
	"dohcost/internal/udpio"
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

// --- Forwarding proxy ---------------------------------------------------

// BenchmarkProxyThroughput drives a Zipf-ish workload through the full
// forwarding proxy (client → UDP listener → sharded cache → singleflight →
// pooled TCP upstream) and reports end-to-end queries/sec.
func BenchmarkProxyThroughput(b *testing.B) {
	d, err := loadgen.Deploy(loadgen.Scenario{
		Seed:              42,
		UDPAttemptTimeout: 10 * time.Second,
		Proxy:             proxy.Config{Pool: dnstransport.PoolConfig{ConnsPerUpstream: 4}},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	client, err := d.Resolver("udp", 0)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()

	var i atomic.Int64
	b.ResetTimer()
	start := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			// 64 distinct names: first touches miss to the upstream pool,
			// the rest ride the cache.
			name := dnswire.Name(fmt.Sprintf("host%02d.bench.example.", i.Add(1)%64))
			q := dnswire.NewQuery(0, name, dnswire.TypeA)
			if _, err := client.Exchange(context.Background(), q); err != nil {
				b.Error(err)
				return
			}
		}
	})
	elapsed := time.Since(start)
	b.StopTimer()
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "queries/s")
	s := d.Proxy.CacheStats()
	if total := s.Hits + s.Misses + s.Coalesced; total > 0 {
		b.ReportMetric(float64(s.Hits)/float64(total)*100, "hit-%")
	}
}

// BenchmarkUDPBatchServe runs the one UDP serve loop over the two socket
// implementations udpio offers, on real kernel sockets under concurrent
// client load:
//
//   - per-packet: the portable fallback conn — one ReadFrom and one WriteTo
//     syscall per datagram, vector size 1 (the socket's concrete type is
//     hidden from udpio.Wrap to select it on any platform).
//   - batch: SO_REUSEPORT shard sockets each draining up to 32 datagrams
//     per recvmmsg and flushing every hit in one sendmmsg
//     (udpio.ListenShards).
//
// Every query is a cache hit on the proxy's wire fast path and both
// variants run the same serving code, so the gap is purely syscall
// amortization and sharding — the batch variant's queries/s should hold a
// ≥2x advantage under load; the bench CI job tracks it across commits. On
// platforms without kernel batch support both are the fallback and the two
// converge.
func BenchmarkUDPBatchServe(b *testing.B) {
	p, err := proxy.New(proxy.Config{
		Upstreams: []dnstransport.PoolUpstream{{
			Name: "static.upstream",
			Dial: func(ctx context.Context) (dnstransport.Resolver, error) { return staticResolver{}, nil },
		}},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	handler := p.Handler()
	// Prime the cache so every benchmarked query rides the wire fast path.
	if _, err := handler.ServeDNS(context.Background(), dnswire.NewQuery(0, "hot.bench.example.", dnswire.TypeA)); err != nil {
		b.Fatal(err)
	}
	queryWire, err := dnswire.NewQuery(4242, "hot.bench.example.", dnswire.TypeA).Pack()
	if err != nil {
		b.Fatal(err)
	}

	// hammer drives count queries through one client socket with a send
	// window, re-sending on read timeout (UDP drops under buffer pressure
	// are expected and must not stall the pipeline). The client uses
	// batched I/O itself — identically against both server variants — so
	// the measured difference is the server's serving loop, not the
	// harness's own syscall ceiling.
	hammer := func(addr string, count int) error {
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		c := udpio.Wrap(pc)
		defer c.Close()
		dst, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			return err
		}
		const window = 32
		out := make([]udpio.Message, window)
		for i := range out {
			out[i] = udpio.Message{Buf: queryWire, N: len(queryWire), Addr: dst}
		}
		in := make([]udpio.Message, window)
		for i := range in {
			in[i].Buf = make([]byte, 2048)
		}
		sent, received, outstanding := 0, 0, 0
		for received < count {
			if k := min(window-outstanding, count-sent); k > 0 {
				if _, err := c.WriteBatch(out[:k]); err != nil {
					return err
				}
				sent += k
				outstanding += k
			}
			c.SetReadDeadline(time.Now().Add(250 * time.Millisecond))
			n, err := c.ReadBatch(in)
			if err != nil {
				sent -= outstanding // window lost: back up and resend
				outstanding = 0
				continue
			}
			received += n
			outstanding = max(0, outstanding-n)
		}
		return nil
	}

	run := func(b *testing.B, addr string) {
		clients := 8
		if clients > b.N {
			clients = 1
		}
		var wg sync.WaitGroup
		errs := make(chan error, clients)
		b.ResetTimer()
		start := time.Now()
		for g := 0; g < clients; g++ {
			count := b.N / clients
			if g < b.N%clients {
				count++
			}
			wg.Add(1)
			go func(count int) {
				defer wg.Done()
				if err := hammer(addr, count); err != nil {
					errs <- err
				}
			}(count)
		}
		wg.Wait()
		elapsed := time.Since(start)
		b.StopTimer()
		close(errs)
		for err := range errs {
			b.Fatal(err)
		}
		b.ReportMetric(float64(b.N)/elapsed.Seconds(), "queries/s")
	}

	b.Run("per-packet", func(b *testing.B) {
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer pc.Close()
		srv := &dnsserver.UDPServer{Handler: handler}
		go srv.Serve(struct{ net.PacketConn }{pc})
		run(b, pc.LocalAddr().String())
	})

	b.Run("batch", func(b *testing.B) {
		conns, err := udpio.ListenShards("udp", "127.0.0.1:0", 0)
		if err != nil {
			b.Fatal(err)
		}
		defer func() {
			for _, c := range conns {
				c.Close()
			}
		}()
		srv := &dnsserver.UDPServer{Handler: handler}
		go srv.ServeBatch(conns, 32)
		run(b, conns[0].LocalAddr().String())
	})
}

// BenchmarkDoHHitRoundTrip is the DoH counterpart of the UDP hit series:
// one POST cache hit through h2.ClientConn → TLS 1.3 over an in-memory
// connection → h2.Server → dnsserver.DoH (bound, so the hit step runs on
// the h2 read loop) → the proxy's wire cache. Beside ns/op and allocs/op it
// reports what the transport adds on the wire per resolution: wire-B/op,
// both directions below TLS, and writes/op, the flights a resolution
// costs — two when a message is one flight.
func BenchmarkDoHHitRoundTrip(b *testing.B) {
	p, err := proxy.New(proxy.Config{
		Upstreams: []dnstransport.PoolUpstream{{
			Name: "static.upstream",
			Dial: func(ctx context.Context) (dnstransport.Resolver, error) { return staticResolver{}, nil },
		}},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Handler().ServeDNS(context.Background(), dnswire.NewQuery(0, "hot.bench.example.", dnswire.TypeA)); err != nil {
		b.Fatal(err)
	}
	queryWire, err := dnswire.NewQuery(4242, "hot.bench.example.", dnswire.TypeA).Pack()
	if err != nil {
		b.Fatal(err)
	}
	chain, err := tlsx.GenerateChain(tlsx.CloudflareLike("doh.bench"))
	if err != nil {
		b.Fatal(err)
	}

	n := netsim.New(1) // links default to zero delay: a buffered pipe that counts
	l, err := n.Listen("doh.bench:443")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		tc := tls.Server(conn, chain.ServerConfig(tls.VersionTLS13, tls.VersionTLS13, "h2"))
		h2h, _ := (&dnsserver.DoH{Handler: p.Handler(), Telemetry: p.Telemetry()}).Bind(context.Background())
		(&h2.Server{Handler: h2h}).ServeConn(tc)
	}()
	raw, err := n.Dial("client", "doh.bench:443")
	if err != nil {
		b.Fatal(err)
	}
	tc := tls.Client(raw, chain.ClientConfig("doh.bench", "h2"))
	if err := tc.Handshake(); err != nil {
		b.Fatal(err)
	}
	cc, err := h2.NewClientConn(tc)
	if err != nil {
		b.Fatal(err)
	}
	defer cc.Close()

	req := &h2.Request{Method: "POST", Scheme: "https", Authority: "doh.bench", Path: "/dns-query", Body: queryWire,
		Header: []hpack.HeaderField{{Name: "content-type", Value: dnsserver.ContentTypeWire}, {Name: "accept", Value: dnsserver.ContentTypeWire}}}
	roundTrip := func() {
		resp, err := cc.RoundTrip(context.Background(), req)
		if err != nil || resp.Status != 200 || len(resp.Body) < 12 {
			b.Fatalf("DoH hit: %v %+v", err, resp)
		}
	}
	for i := 0; i < 8; i++ { // SETTINGS, session tickets and HPACK indexing are behind us
		roundTrip()
	}
	before := raw.(*netsim.Conn).Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
	b.StopTimer()
	wire := raw.(*netsim.Conn).Stats().Sub(before)
	b.ReportMetric(float64(wire.Total())/float64(b.N), "wire-B/op")
	b.ReportMetric(float64(wire.OutSegments+wire.InSegments)/float64(b.N), "writes/op")
}

// BenchmarkCacheHitPathShardedVsMutex isolates the cache's hot path under
// contention: 8+ goroutines hammering cached names, against the classic
// single-mutex layout (shards=1) and the sharded default. The sharded
// variant's queries/s should be ≥2× the mutex variant's on any multicore
// machine — the motivation for hash-partitioning the cache. The third
// case runs the sharded layout with the full telemetry lifecycle per
// query (Begin → cache annotation → verdict → Finish, the proxy serving
// path's accounting) and should stay within noise of the bare sharded
// numbers — the telemetry subsystem's no-lock-contention contract.
func BenchmarkCacheHitPathShardedVsMutex(b *testing.B) {
	for _, tt := range []struct {
		name      string
		shards    int
		telemetry bool
	}{{"mutex-1shard", 1, false}, {"sharded-16", 16, false}, {"sharded-16-telemetry", 16, true}} {
		b.Run(tt.name, func(b *testing.B) {
			upstream := &staticResolver{}
			c := dnscache.New(upstream, dnscache.WithShards(tt.shards))
			defer c.Close()
			var tel *telemetry.Metrics
			if tt.telemetry {
				tel = telemetry.New()
			}
			// Prefill the hot set so the benchmark measures pure hits.
			const hot = 64
			queries := make([]*dnswire.Message, hot)
			for i := range queries {
				queries[i] = dnswire.NewQuery(0, dnswire.Name(fmt.Sprintf("hot%02d.bench.example.", i)), dnswire.TypeA)
				if _, err := c.Exchange(context.Background(), queries[i]); err != nil {
					b.Fatal(err)
				}
			}
			b.SetParallelism(8) // ≥ 8 goroutines even on small GOMAXPROCS
			b.ResetTimer()
			start := time.Now()
			b.RunParallel(func(pb *testing.PB) {
				var i int
				for pb.Next() {
					ctx := context.Background()
					tx := tel.Begin(telemetry.ProtoUDP) // nil tel → nil tx → no-ops
					ctx = telemetry.NewContext(ctx, tx)
					if _, err := c.Exchange(ctx, queries[i%hot]); err != nil {
						b.Error(err)
						return
					}
					tx.SetVerdict(telemetry.VerdictOK)
					tx.Finish()
					i++
				}
			})
			b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "queries/s")
			if tel != nil {
				if got := tel.Snapshot().Queries["udp"]; got != uint64(b.N) {
					b.Fatalf("telemetry lost queries: %d recorded, %d run", got, b.N)
				}
			}
		})
	}
}

// BenchmarkCacheHitWirePath measures the cache-hit serving pipeline the
// UDP server runs per datagram: dnswire.ParseQuery on the packet, a
// telemetry transaction, and Cache.ServeWire copying the stored packed
// response into a reusable buffer with ID and TTLs patched in place. No
// Message is built; the loop must report ≤2 allocs/op, which the bench CI
// job tracks across commits.
func BenchmarkCacheHitWirePath(b *testing.B) {
	queryWire, err := dnswire.NewQuery(4242, "hot00.bench.example.", dnswire.TypeA).Pack()
	if err != nil {
		b.Fatal(err)
	}
	prime := func(b *testing.B, c *dnscache.Cache) {
		b.Helper()
		if _, err := c.Exchange(context.Background(), dnswire.NewQuery(0, "hot00.bench.example.", dnswire.TypeA)); err != nil {
			b.Fatal(err)
		}
	}

	b.Run("wire-path", func(b *testing.B) {
		c := dnscache.New(staticResolver{})
		defer c.Close()
		prime(b, c)
		tel := telemetry.New()
		dst := make([]byte, 0, 4096)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q, ok := dnswire.ParseQuery(queryWire)
			if !ok {
				b.Fatal("fast parse failed")
			}
			tx := tel.Begin(telemetry.ProtoUDP)
			resp, outcome, ok := c.ServeWire(tx, &q, dst[:0], 4096)
			if !ok {
				b.Fatal("wire hit lost")
			}
			tx.SetCache(outcome)
			tx.SetVerdict(telemetry.VerdictOK)
			tx.Finish()
			_ = resp
		}
	})

	// The guarded variant prepends exactly what the UDP server does when a
	// guard is armed — one CheckUDP on the allow path — so the delta
	// against wire-path is the guard's whole per-packet cost. The
	// acceptance bound is <5%.
	b.Run("wire-path-guarded", func(b *testing.B) {
		c := dnscache.New(staticResolver{})
		defer c.Close()
		prime(b, c)
		tel := telemetry.New()
		g := guard.New(guard.Config{ClientQPS: 1e9, Burst: 1 << 30, CookieSecret: 1})
		key := guard.ClientKey(&net.UDPAddr{IP: net.IPv4(192, 0, 2, 7), Port: 53000})
		dst := make([]byte, 0, 4096)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if a, _ := g.CheckUDP(key, queryWire); a != guard.ActionAllow {
				b.Fatal("allow path denied")
			}
			q, ok := dnswire.ParseQuery(queryWire)
			if !ok {
				b.Fatal("fast parse failed")
			}
			tx := tel.Begin(telemetry.ProtoUDP)
			resp, outcome, ok := c.ServeWire(tx, &q, dst[:0], 4096)
			if !ok {
				b.Fatal("wire hit lost")
			}
			tx.SetCache(outcome)
			tx.SetVerdict(telemetry.VerdictOK)
			tx.Finish()
			_ = resp
		}
	})
}

// BenchmarkWireHitTraced is the tracing regression gate: the wire-hit
// fast path with a tracer installed and baseline sampling active (every
// 16th hit acquires a record, fills parse/cache spans, captures the
// qname and goes through the tail sampler) must still report 0
// allocs/op. The loop mirrors the UDP server's traced per-datagram
// shape, extra time.Now reads included.
func BenchmarkWireHitTraced(b *testing.B) {
	queryWire, err := dnswire.NewQuery(4242, "hot00.bench.example.", dnswire.TypeA).Pack()
	if err != nil {
		b.Fatal(err)
	}
	c := dnscache.New(staticResolver{})
	defer c.Close()
	if _, err := c.Exchange(context.Background(), dnswire.NewQuery(0, "hot00.bench.example.", dnswire.TypeA)); err != nil {
		b.Fatal(err)
	}
	tel := telemetry.New()
	tr := qtrace.New(qtrace.Config{SampleEvery: 16})
	defer tr.Close()
	tel.SetTracer(tr)
	dst := make([]byte, 0, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tParse := time.Now()
		q, ok := dnswire.ParseQuery(queryWire)
		if !ok {
			b.Fatal("fast parse failed")
		}
		tx := tel.Begin(telemetry.ProtoUDP)
		if tx.Traced() {
			tx.TraceSpanBetween(qtrace.PhaseParse, tParse, time.Now())
			tx.TraceQuery(&q)
		}
		tc := tx.TraceStart()
		resp, outcome, ok := c.ServeWire(tx, &q, dst[:0], 4096)
		if !ok {
			b.Fatal("wire hit lost")
		}
		tx.TraceSpan(qtrace.PhaseCache, tc)
		tx.SetCache(outcome)
		tx.SetVerdict(telemetry.VerdictOK)
		tx.Finish()
		_ = resp
	}
	b.StopTimer()
	if st := tr.Stats(); st.Offered != uint64(b.N) {
		b.Fatalf("tracer offered %d records for %d queries", st.Offered, b.N)
	}
}

// BenchmarkArenaHitPath measures the zero-alloc wire hit against
// arena-packed storage in its steady production state: a byte-budgeted
// cache whose arena has already been through churn-forced epoch rotations
// (compacted slabs, recycled free list), serving a rotating hot set. The
// allocs/op column is the regression gate — the arena rebuild must keep
// the hit path at zero.
func BenchmarkArenaHitPath(b *testing.B) {
	c := dnscache.New(staticResolver{}, dnscache.WithMemoryBudget(256<<10))
	defer c.Close()
	ctx := context.Background()

	const hotNames = 64
	queries := make([]dnswire.Query, hotNames)
	for i := 0; i < hotNames; i++ {
		name := dnswire.Name(fmt.Sprintf("hot%02d.bench.example.", i))
		if _, err := c.Exchange(ctx, dnswire.NewQuery(0, name, dnswire.TypeA)); err != nil {
			b.Fatal(err)
		}
		wire, err := dnswire.NewQuery(uint16(i), name, dnswire.TypeA).Pack()
		if err != nil {
			b.Fatal(err)
		}
		q, ok := dnswire.ParseQuery(wire)
		if !ok {
			b.Fatal("fast parse failed")
		}
		queries[i] = q
	}
	// Churn until the arenas have rotated: the measured hits then read
	// compacted blocks in recycled slabs, not pristine first-epoch ones.
	for i := 0; c.Stats().ArenaEpochs < 4; i++ {
		if _, err := c.Exchange(ctx, dnswire.NewQuery(0, dnswire.Name(fmt.Sprintf("churn%d.bench.example.", i)), dnswire.TypeA)); err != nil {
			b.Fatal(err)
		}
	}
	for i := range queries { // re-prime anything the churn evicted
		if _, err := c.Exchange(ctx, dnswire.NewQuery(0, dnswire.Name(fmt.Sprintf("hot%02d.bench.example.", i)), dnswire.TypeA)); err != nil {
			b.Fatal(err)
		}
	}

	dst := make([]byte, 0, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := c.ServeWire(nil, &queries[i%hotNames], dst[:0], 4096); !ok {
			b.Fatal("arena hit lost")
		}
	}
}

// BenchmarkCacheZipfAdmission replays the paper-scale heavy-tailed
// workload — Zipf(s=1.0) ranks over a million-name universe — through a
// byte-budgeted cache, comparing plain LRU against TinyLFU admission.
// ns/op is the full Exchange round trip (hits and misses mixed at the
// policy's own ratio); the hit-ratio metric is the number the admission
// filter exists to move.
func BenchmarkCacheZipfAdmission(b *testing.B) {
	for _, mode := range []struct {
		name string
		opts []dnscache.Option
	}{
		{"lru", nil},
		{"tinylfu", []dnscache.Option{dnscache.WithTinyLFU()}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			c := dnscache.New(staticResolver{}, append([]dnscache.Option{
				dnscache.WithMemoryBudget(2 << 20),
			}, mode.opts...)...)
			defer c.Close()
			z := loadgen.NewZipf(1_200_000, 1.0)
			rng := rand.New(rand.NewSource(99))
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				name := loadgen.ZipfName(z.Rank(rng))
				if _, err := c.Exchange(ctx, dnswire.NewQuery(uint16(i), name, dnswire.TypeA)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			s := c.Stats()
			if total := s.Hits + s.Misses; total > 0 {
				b.ReportMetric(float64(s.Hits)/float64(total), "hit-ratio")
			}
			b.ReportMetric(float64(s.AdmissionRejects), "admission-rejects")
		})
	}
}

// BenchmarkHedgedExchange measures the steering layer's hedged policy end
// to end on the simulated network: the preferred upstream sits behind a
// 20ms (one-way) link, the runner-up behind a clean one, and a 2ms hedge
// delay races them. ns/op is dominated by the winner's round trip —
// compare against the ~40ms the degraded upstream would cost — and
// hedges/op reports how much of the traffic actually hedged once the
// model learned the primary's latency.
func BenchmarkHedgedExchange(b *testing.B) {
	n := netsim.New(42)
	for _, u := range []struct {
		host  string
		delay time.Duration
	}{{"slow.upstream", 20 * time.Millisecond}, {"fast.upstream", 50 * time.Microsecond}} {
		n.SetLink("steerer", u.host, netsim.Link{Delay: u.delay})
		srv := &dnsserver.Server{Handler: dnsserver.Static(mustAddrBench, 300)}
		run, err := srv.Start(n, u.host)
		if err != nil {
			b.Fatal(err)
		}
		defer run.Close()
	}
	mkUp := func(host string) dnstransport.PoolUpstream {
		return dnstransport.PoolUpstream{Name: host, Dial: func(ctx context.Context) (dnstransport.Resolver, error) {
			return dnstransport.NewTCPClient(func(ctx context.Context) (net.Conn, error) {
				return n.DialContext(ctx, "steerer", host+":53")
			}), nil
		}}
	}
	pool, err := dnstransport.NewPool(
		[]dnstransport.PoolUpstream{mkUp("slow.upstream"), mkUp("fast.upstream")},
		dnstransport.PoolConfig{ConnsPerUpstream: 2},
	)
	if err != nil {
		b.Fatal(err)
	}
	st := steer.New(pool, steer.Config{Policy: steer.PolicyHedged, HedgeDelay: 2 * time.Millisecond})
	defer st.Close()
	tel := telemetry.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := tel.Begin(telemetry.ProtoUDP)
		ctx := telemetry.NewContext(context.Background(), tx)
		q := dnswire.NewQuery(0, dnswire.Name(fmt.Sprintf("hedge%04d.bench.example.", i%4096)), dnswire.TypeA)
		if _, err := st.Exchange(ctx, q); err != nil {
			b.Fatal(err)
		}
		tx.SetVerdict(telemetry.VerdictOK)
		tx.Finish()
	}
	b.StopTimer()
	if s := tel.Snapshot(); b.N > 0 {
		b.ReportMetric(float64(s.HedgesFired)/float64(b.N), "hedges/op")
	}
}

// primeOnceResolver answers its first exchange (the cache prime) and then
// blocks until the caller's context ends — pinning every later lookup in
// the stale regime so BenchmarkServeStaleHit measures the stale-hit serve
// path, not a refresh storm: the first stale hit parks one background
// refresh on the blocked upstream, and the singleflight table keeps every
// subsequent hit refresh-free.
type primeOnceResolver struct{ calls atomic.Int64 }

func (r *primeOnceResolver) Exchange(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	if r.calls.Add(1) > 1 {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return staticResolver{}.Exchange(ctx, q)
}

func (r *primeOnceResolver) Close() error { return nil }

// BenchmarkServeStaleHit measures the RFC 8767 stale-hit wire path: an
// expired-but-stale entry served by copy + ID patch + TTL cap while the
// (blocked) background refresh holds the singleflight slot.
func BenchmarkServeStaleHit(b *testing.B) {
	clock := time.Unix(9000, 0)
	c := dnscache.New(&primeOnceResolver{},
		dnscache.WithServeStale(time.Hour),
		dnscache.WithClock(func() time.Time { return clock }))
	defer c.Close()
	if _, err := c.Exchange(context.Background(), dnswire.NewQuery(1, "stale.bench.example.", dnswire.TypeA)); err != nil {
		b.Fatal(err)
	}
	clock = clock.Add(2 * time.Hour / 4) // past the 300s TTL, inside the stale window
	queryWire, err := dnswire.NewQuery(4242, "stale.bench.example.", dnswire.TypeA).Pack()
	if err != nil {
		b.Fatal(err)
	}
	tel := telemetry.New()
	dst := make([]byte, 0, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, ok := dnswire.ParseQuery(queryWire)
		if !ok {
			b.Fatal("fast parse failed")
		}
		tx := tel.Begin(telemetry.ProtoUDP)
		resp, outcome, ok := c.ServeWire(tx, &q, dst[:0], 4096)
		if !ok {
			b.Fatal("stale hit lost")
		}
		if outcome != telemetry.CacheStaleHit {
			b.Fatalf("outcome = %v, want stale hit", outcome)
		}
		tx.SetCache(outcome)
		tx.SetVerdict(telemetry.VerdictOK)
		tx.Finish()
		_ = resp
	}
}

// staticResolver is an in-process upstream for cache micro-benchmarks.
type staticResolver struct{}

func (staticResolver) Exchange(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	r := q.Reply()
	r.Answers = append(r.Answers, dnswire.ResourceRecord{
		Name: q.Question1().Name, Class: dnswire.ClassINET, TTL: 300,
		Data: &dnswire.A{Addr: mustAddrBench},
	})
	return r, nil
}

func (staticResolver) Close() error { return nil }

// --- Substrate micro-benchmarks ----------------------------------------

func BenchmarkDNSWirePack(b *testing.B) {
	q := dnswire.NewQuery(1, "www.example.com.", dnswire.TypeA)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := q.Pack(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDNSWireUnpack(b *testing.B) {
	q := dnswire.NewQuery(1, "www.example.com.", dnswire.TypeA)
	r := q.Reply()
	wire, err := r.Pack()
	if err != nil {
		b.Fatal(err)
	}
	var m dnswire.Message
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := m.Unpack(wire); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGuardAllowPath measures the abuse guard's per-packet cost on
// the path every honest datagram pays: one CheckUDP that parses nothing
// beyond the question bounds, takes one striped lock, and refills one
// token bucket slot. The allocs/op column is the regression gate — the
// allow path must stay at zero.
func BenchmarkGuardAllowPath(b *testing.B) {
	queryWire, err := dnswire.NewQuery(4242, "hot00.bench.example.", dnswire.TypeA).Pack()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("plain", func(b *testing.B) {
		g := guard.New(guard.Config{ClientQPS: 1e9, Burst: 1 << 30, CookieSecret: 1})
		key := guard.ClientKey(&net.UDPAddr{IP: net.IPv4(192, 0, 2, 7), Port: 53000})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if a, _ := g.CheckUDP(key, queryWire); a != guard.ActionAllow {
				b.Fatal("allow path denied")
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		g := guard.New(guard.Config{ClientQPS: 1e9, Burst: 1 << 30, CookieSecret: 1})
		b.ReportAllocs()
		var next atomic.Uint64
		b.RunParallel(func(pb *testing.PB) {
			// Each goroutine is its own client: distinct keys spread over
			// the striped shards, the production shape.
			key := guard.ClientKey(&net.UDPAddr{
				IP:   net.IPv4(192, 0, 2, byte(next.Add(1))),
				Port: 53000,
			})
			for pb.Next() {
				if a, _ := g.CheckUDP(key, queryWire); a != guard.ActionAllow {
					b.Fatal("allow path denied")
				}
			}
		})
	})
}

func BenchmarkHPACKEncodeDecode(b *testing.B) {
	e := hpack.NewEncoder()
	d := hpack.NewDecoder()
	fields := []hpack.HeaderField{
		{Name: ":method", Value: "POST"},
		{Name: ":path", Value: "/dns-query"},
		{Name: "content-type", Value: "application/dns-message"},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		blk := e.AppendEncode(nil, fields)
		if _, err := d.Decode(blk); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransportExchange(b *testing.B) {
	topo, err := core.NewTopology(core.TopologyConfig{
		Seed:     42,
		LocalRTT: 50 * time.Microsecond, CFRTT: 50 * time.Microsecond, GORTT: 50 * time.Microsecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer topo.Close()
	resolvers := map[string]func() (dnstransport.Resolver, error){
		"udp": func() (dnstransport.Resolver, error) { return topo.UDPResolver(core.ClientHost, core.LocalHost) },
		"dot": func() (dnstransport.Resolver, error) { return topo.DoTResolver(core.ClientHost, core.CFHost) },
		"doh": func() (dnstransport.Resolver, error) {
			return topo.DoHResolver(core.ClientHost, core.CFHost, dnstransport.ModeH2, true)
		},
	}
	for name, mk := range resolvers {
		b.Run(name, func(b *testing.B) {
			r, err := mk()
			if err != nil {
				b.Fatal(err)
			}
			defer r.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := dnswire.NewQuery(0, dnswire.Name(domainN(i)), dnswire.TypeA)
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				if _, err := r.Exchange(ctx, q); err != nil {
					b.Fatal(err)
				}
				cancel()
			}
		})
	}
}

// BenchmarkHappyEyeballsDial measures one RFC 8305 dial race over a
// dual-homed upstream on the simulated network: resolve both families,
// race staggered attempts, first established connection wins. With both
// families healthy the preferred family connects immediately, so this is
// the dialer's fixed per-connection overhead (goroutines, timers, race
// bookkeeping) on top of a raw netsim dial.
func BenchmarkHappyEyeballsDial(b *testing.B) {
	n := netsim.New(1)
	for _, h := range []string{"v4.up", "v6.up"} {
		l, err := n.Listen(h + ":53")
		if err != nil {
			b.Fatal(err)
		}
		defer l.Close()
		go func() {
			for {
				c, err := l.Accept()
				if err != nil {
					return
				}
				c.Close()
			}
		}()
	}
	he := dialer.New(dialer.Config{
		Resolve: func(ctx context.Context, host string) ([]string, []string, error) {
			return []string{"v4." + host + ":53"}, []string{"v6." + host + ":53"}, nil
		},
		Dial: func(ctx context.Context, addr string) (net.Conn, error) {
			return n.DialContext(ctx, "client", addr)
		},
	})
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := he.DialContext(ctx, "up")
		if err != nil {
			b.Fatal(err)
		}
		c.Close()
	}
}

func BenchmarkAlexaGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		alexa.Generate(alexa.Config{Pages: 1000, Seed: int64(i)})
	}
}

func BenchmarkLandscapeDeploy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n := netsim.New(int64(i))
		dep, err := landscape.Deploy(n, landscape.DefaultProviders())
		if err != nil {
			b.Fatal(err)
		}
		dep.Close()
	}
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
