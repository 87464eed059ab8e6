package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"dohcost/internal/dnswire"
	"dohcost/internal/stats"
)

func TestTopologyResolversWork(t *testing.T) {
	topo, err := NewTopology(TopologyConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer topo.Close()
	udp, err := topo.UDPResolver(ClientHost, LocalHost)
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()
	dot, err := topo.DoTResolver(ClientHost, CFHost)
	if err != nil {
		t.Fatal(err)
	}
	defer dot.Close()
	doh, err := topo.DoHResolver(ClientHost, GOHost, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	defer doh.Close()
	for name, r := range map[string]interface {
		Exchange(context.Context, *dnswire.Message) (*dnswire.Message, error)
	}{"udp": udp, "dot": dot, "doh": doh} {
		resp, err := r.Exchange(context.Background(), dnswire.NewQuery(0, "t.example.", dnswire.TypeA))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(resp.Answers) != 1 {
			t.Errorf("%s answers = %v", name, resp.Answers)
		}
	}
	if topo.chainFor(LocalHost) != nil {
		t.Error("local resolver should have no chain")
	}
	if _, err := topo.DoTResolver(ClientHost, LocalHost); err == nil {
		t.Error("DoT against plaintext-only host succeeded")
	}
}

func TestFig1SmallRun(t *testing.T) {
	r := RunFig1(Fig1Config{Pages: 2000, Seed: 3})
	med := r.CDF.Quantile(0.5)
	if med < 14 || med > 26 {
		t.Errorf("median = %.1f", med)
	}
	out := RenderFig1(r)
	if !strings.Contains(out, "Figure 1") || !strings.Contains(out, "top-15") {
		t.Errorf("render:\n%s", out)
	}
}

func TestFig2ScaledDown(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scenario run under -short")
	}
	// Scaled-down Figure 2: 30 queries at 40 qps, every 10th delayed by
	// 250 ms. The qualitative claims under test are exactly the paper's:
	// UDP and HTTP/2 see only the injected delays; DoT and pipelined
	// HTTP/1.1 see knock-on.
	cfg := Fig2Config{
		Queries: 30, Rate: 40, DelayEvery: 10, Delay: 250 * time.Millisecond,
		Seed: 7, BaseRTT: 200 * time.Microsecond,
	}
	res, err := RunFig2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	threshold := cfg.Delay / 2
	injected := cfg.Queries / cfg.DelayEvery // 3

	for _, tr := range Fig2Transports {
		if n := len(res.Baseline[tr]); n != cfg.Queries {
			t.Errorf("%s baseline samples = %d", tr, n)
		}
		if slow := KnockOnCount(res.Baseline[tr], threshold); slow != 0 {
			t.Errorf("%s baseline has %d slow queries", tr, slow)
		}
		for _, s := range res.Delayed[tr] {
			if s.Err {
				t.Errorf("%s delayed run had errors", tr)
				break
			}
		}
	}
	// Independent transports: slow count == injected count.
	for _, tr := range []string{"udp", "http2"} {
		if slow := KnockOnCount(res.Delayed[tr], threshold); slow != injected {
			t.Errorf("%s delayed slow queries = %d, want %d (no knock-on)", tr, slow, injected)
		}
	}
	// Serialized transports: strictly more than the injected delays.
	for _, tr := range []string{"tls", "http1"} {
		if slow := KnockOnCount(res.Delayed[tr], threshold); slow <= injected {
			t.Errorf("%s delayed slow queries = %d, want > %d (knock-on)", tr, slow, injected)
		}
	}
	out := RenderFig2(res)
	if !strings.Contains(out, "baseline") || !strings.Contains(out, "http2") {
		t.Errorf("render:\n%s", out)
	}
}

func TestOverheadScaledDown(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scenario run under -short")
	}
	res, err := RunOverhead(OverheadConfig{Domains: 40, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scenarios) != 6 {
		t.Fatalf("scenarios = %d", len(res.Scenarios))
	}
	med := func(name string) (bytes, packets float64) {
		s := res.Scenario(name)
		if s == nil {
			t.Fatalf("missing scenario %s", name)
		}
		return stats.NewCDF(s.Bytes()).Quantile(0.5), stats.NewCDF(s.Packets()).Quantile(0.5)
	}

	ub, up := med("U/CF")
	hb, hp := med("H/CF")
	hgb, _ := med("H/GO")
	pb, _ := med("HP/CF") // TestOverheadGolden pins the DoH packet medians exactly
	pgb, _ := med("HP/GO")

	// Paper's ordering claims (Figures 3-4):
	// UDP is tiny: ~182 B, 2 packets.
	if ub > 400 || up != 2 {
		t.Errorf("U/CF median = %.0f B / %.0f pkts, want ~182/2", ub, up)
	}
	// Non-persistent DoH costs >10x UDP in bytes (paper: >30x).
	if hb < 10*ub {
		t.Errorf("H/CF %.0f B not >> U/CF %.0f B", hb, ub)
	}
	if hp < 15 {
		t.Errorf("H/CF packets = %.0f, want tens", hp)
	}
	// Google's larger chain costs more than Cloudflare's.
	if hgb <= hb {
		t.Errorf("H/GO %.0f B not > H/CF %.0f B (certificate size effect)", hgb, hb)
	}
	// Persistence amortizes most of it away but stays above UDP.
	if pb >= hb/3 {
		t.Errorf("HP/CF %.0f B not << H/CF %.0f B", pb, hb)
	}
	if pb <= ub {
		t.Errorf("HP/CF %.0f B not > U/CF %.0f B", pb, ub)
	}
	if pgb <= pb {
		t.Errorf("HP/GO %.0f B not > HP/CF %.0f B", pgb, pb)
	}

	// Figure 5 invariants on the DoH breakdowns.
	for _, name := range Fig5Scenarios {
		s := res.Scenario(name)
		for i, bd := range s.Breakdowns() {
			wc := s.Costs[i].WireCost()
			if bd.Total() != wc.Bytes {
				t.Errorf("%s[%d]: breakdown total %d != wire bytes %d", name, i, bd.Total(), wc.Bytes)
			}
			if bd.Body <= 0 || bd.Mgmt < 0 || bd.TLS < 0 || bd.TCP <= 0 {
				t.Errorf("%s[%d]: nonsensical breakdown %+v", name, i, bd)
			}
		}
	}
	// Persistent connections shrink Hdr (HPACK differential) and Mgmt.
	hdrOf := func(name string) float64 {
		var v []float64
		for _, bd := range res.Scenario(name).Breakdowns() {
			v = append(v, float64(bd.Hdr))
		}
		return stats.NewCDF(v).Quantile(0.5)
	}
	tlsOf := func(name string) float64 {
		var v []float64
		for _, bd := range res.Scenario(name).Breakdowns() {
			v = append(v, float64(bd.TLS))
		}
		return stats.NewCDF(v).Quantile(0.5)
	}
	if hdrOf("HP/CF") >= hdrOf("H/CF") {
		t.Errorf("persistent Hdr %.0f not < non-persistent %.0f", hdrOf("HP/CF"), hdrOf("H/CF"))
	}
	if tlsOf("HP/CF") >= tlsOf("H/CF")/4 {
		t.Errorf("persistent TLS %.0f not << non-persistent %.0f", tlsOf("HP/CF"), tlsOf("H/CF"))
	}

	out := RenderFig3Fig4(res) + RenderFig5(res)
	for _, want := range []string{"U/CF", "HP/GO", "paper", "Body", "Mgmt"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestFig6ScaledDown(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scenario run under -short")
	}
	res, err := RunFig6(Fig6Config{Pages: 12, Loads: 1, Seed: 9, Workers: 6, PlanetLab: 2, PagesPerNode: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Local) != 5 {
		t.Fatalf("local series = %d", len(res.Local))
	}
	medDNS := func(cfg string) float64 {
		return stats.NewCDF(res.Series(cfg).DNSms).Quantile(0.5)
	}
	medLoad := func(cfg string) float64 {
		return stats.NewCDF(res.Series(cfg).Loadms).Quantile(0.5)
	}
	// Paper's §5 orderings:
	// DoH resolution slower than UDP to the same resolver.
	if medDNS("H/CF") <= medDNS("U/CF") {
		t.Errorf("H/CF DNS %.0fms not > U/CF %.0fms", medDNS("H/CF"), medDNS("U/CF"))
	}
	if medDNS("H/GO") <= medDNS("U/GO") {
		t.Errorf("H/GO DNS %.0fms not > U/GO %.0fms", medDNS("H/GO"), medDNS("U/GO"))
	}
	// Cloudflare faster than Google (shorter RTT in the study topology).
	if medDNS("U/CF") >= medDNS("U/GO") {
		t.Errorf("U/CF DNS %.0fms not < U/GO %.0fms", medDNS("U/CF"), medDNS("U/GO"))
	}
	// Cloud UDP beats the local resolver (hot caches beat short paths),
	// and DoH lands back in the local resolver's neighbourhood — the
	// paper's two §5 resolution-time observations.
	if medDNS("U/CF") >= medDNS("U/LO") {
		t.Errorf("U/CF DNS %.0fms not < U/LO %.0fms", medDNS("U/CF"), medDNS("U/LO"))
	}
	if ratio := medDNS("H/CF") / medDNS("U/LO"); ratio < 0.3 || ratio > 3 {
		t.Errorf("H/CF vs U/LO DNS ratio = %.2f, want comparable", ratio)
	}
	// Page load times barely move: H/CF within 35% of U/CF.
	if ratio := medLoad("H/CF") / medLoad("U/CF"); ratio > 1.35 {
		t.Errorf("onload H/CF / U/CF = %.2f, want ~1 (paper: comparable)", ratio)
	}
	// PlanetLab panels exist and are slower.
	if len(res.PlanetLab) != 5 {
		t.Fatalf("planetlab series = %d", len(res.PlanetLab))
	}
	plDNS := stats.NewCDF(res.PlanetLab[3].DNSms).Quantile(0.5) // H/CF
	if plDNS <= medDNS("H/CF") {
		t.Errorf("planetlab H/CF DNS %.0fms not > local %.0fms", plDNS, medDNS("H/CF"))
	}
	out := RenderFig6(res)
	if !strings.Contains(out, "U/LO") || !strings.Contains(out, "planetlab") {
		t.Errorf("render:\n%s", out)
	}
}

func TestTablesEndToEnd(t *testing.T) {
	res, err := RunTables(11)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diffs) != 0 {
		t.Errorf("probe mismatches: %v", res.Diffs)
	}
	out := RenderTables(res)
	for _, want := range []string{"Table 1", "Table 2", "cloudflare-dns.com", "dns-json", "all features match"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestFig2ExtendedOutOfOrderDoT(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scenario run under -short")
	}
	// Extension: a Cloudflare-style out-of-order DoT server behaves like
	// UDP/HTTP2 under injected delays.
	cfg := Fig2Config{
		Queries: 20, Rate: 40, DelayEvery: 10, Delay: 250 * time.Millisecond,
		Seed: 3, BaseRTT: 200 * time.Microsecond, Transports: []string{"tls-ooo"},
	}
	res, err := RunFig2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	injected := cfg.Queries / cfg.DelayEvery
	if slow := KnockOnCount(res.Delayed["tls-ooo"], cfg.Delay/2); slow != injected {
		t.Errorf("tls-ooo slow queries = %d, want %d (no knock-on)", slow, injected)
	}
}

func TestTopologyImpairmentProfile(t *testing.T) {
	// Unknown profiles must fail loudly, not silently run ideal links.
	if _, err := NewTopology(TopologyConfig{Seed: 1, Profile: "5g"}); err == nil {
		t.Fatal("NewTopology accepted an unknown impairment profile")
	}
	// A valid profile builds a working topology: resolve one name over UDP
	// and check the access-link delay (profile + base RTT) is actually paid.
	topo, err := NewTopology(TopologyConfig{Seed: 1, Profile: "broadband"})
	if err != nil {
		t.Fatal(err)
	}
	defer topo.Close()
	r, err := topo.UDPResolver(ClientHost, LocalHost)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	resp, err := r.Exchange(ctx, dnswire.NewQuery(0, "profiled.example.", dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeSuccess {
		t.Fatalf("rcode = %v", resp.RCode)
	}
	// broadband is 10ms one-way: the round trip must cost >= ~20ms where
	// the ideal local link would be ~0.4ms.
	if rtt := time.Since(start); rtt < 18*time.Millisecond {
		t.Errorf("profiled exchange took %v, want >= ~20ms of access-link delay", rtt)
	}
}
