package landscape

import (
	"crypto/tls"
	"strings"
	"testing"

	"dohcost/internal/netsim"
)

func TestDefaultProvidersShape(t *testing.T) {
	providers := DefaultProviders()
	if len(providers) != 9 {
		t.Fatalf("providers = %d, want 9 (Table 1)", len(providers))
	}
	var services, markers int
	seen := map[string]bool{}
	paths := map[string]bool{}
	for _, p := range providers {
		for _, s := range p.Services {
			services++
			if !seen[s.Marker] {
				seen[s.Marker] = true
				markers++
			}
			paths[s.Path] = true
		}
	}
	// Table 1: 12 endpoint URLs across 10 columns (markers).
	if services != 12 {
		t.Errorf("service URLs = %d, want 12", services)
	}
	if markers != 10 {
		t.Errorf("marker columns = %d, want 10", markers)
	}
	// §2: four distinct URL paths among the providers.
	if len(paths) != 4 {
		t.Errorf("distinct paths = %d (%v), want 4", len(paths), paths)
	}
}

func TestDeployAndProbeMatchesGroundTruth(t *testing.T) {
	if testing.Short() {
		t.Skip("full survey probe is slow under -short")
	}
	n := netsim.New(42)
	dep, err := Deploy(n, DefaultProviders())
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()

	got, err := NewProber(dep).ProbeAll()
	if err != nil {
		t.Fatal(err)
	}
	want := ExpectedTable2(DefaultProviders())
	if diffs := Diff(want, got); len(diffs) > 0 {
		t.Errorf("probed matrix deviates from ground truth:\n%s", strings.Join(diffs, "\n"))
		t.Logf("probed:\n%s", RenderTable2(got))
	}
}

func TestRenderTable1(t *testing.T) {
	out := RenderTable1(DefaultProviders())
	for _, want := range []string{
		"Google", "https://dns.google.com/resolve", "G1",
		"Cloudflare", "CleanBrowsing", "family-filter",
		"Commons Host", "CH",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
	// Blahdns has three URLs but one marker.
	if strings.Count(out, "blahdns") != 3 {
		t.Errorf("blahdns rows = %d, want 3", strings.Count(out, "blahdns"))
	}
}

func TestRenderTable2GroundTruth(t *testing.T) {
	out := RenderTable2(ExpectedTable2(DefaultProviders()))
	for _, want := range []string{"dns-message", "dns-json", "TLS 1.3", "CT", "DNS CAA", "OCSP MS", "QUIC", "DNS-over-TLS", "Traf. Steer."} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 missing row %q", want)
		}
	}
	lines := strings.Split(out, "\n")
	var wireRow, jsonRow, ctRow, ocspRow string
	for _, l := range lines {
		switch {
		case strings.HasPrefix(l, "dns-message"):
			wireRow = l
		case strings.HasPrefix(l, "dns-json"):
			jsonRow = l
		case strings.HasPrefix(l, "CT"):
			ctRow = l
		case strings.HasPrefix(l, "OCSP"):
			ocspRow = l
		}
	}
	// Paper: dns-message supported by all but G1 (9 of 10 columns).
	if strings.Count(wireRow, "Y") != 9 {
		t.Errorf("dns-message row: %q", wireRow)
	}
	// dns-json: G1, CF, Q9, BD, RF = 5 columns.
	if strings.Count(jsonRow, "Y") != 5 {
		t.Errorf("dns-json row: %q", jsonRow)
	}
	// CT everywhere, OCSP nowhere.
	if strings.Count(ctRow, "Y") != 10 {
		t.Errorf("CT row: %q", ctRow)
	}
	if strings.Count(ocspRow, "Y") != 0 {
		t.Errorf("OCSP row: %q", ocspRow)
	}
}

// TestDeployAndProbeExtraProvider: the Table 1/2 apparatus reaches past
// the paper's nine providers. A tenth — TLS 1.3 only, OCSP must-staple,
// DoT-capable, the hardening the paper found no provider adopting — is
// deployed beside them and probed as its ground truth says.
func TestDeployAndProbeExtraProvider(t *testing.T) {
	providers := append(DefaultProviders(), Provider{
		Name: "Example Research", Host: "doh.research.example",
		Services: []Service{{
			Marker: "ER", URL: "https://doh.research.example/dns-query",
			Host: "doh.research.example", Path: "/dns-query", Wire: true, JSON: true,
		}},
		TLSMin: tls.VersionTLS13, TLSMax: tls.VersionTLS13,
		ChainBytes: 2200,
		CT:         true, OCSPMustStaple: true,
		DoT:      true,
		Steering: SteeringAnycast,
	})
	n := netsim.New(99)
	dep, err := Deploy(n, providers)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()

	got, err := NewProber(dep).ProbeAll()
	if err != nil {
		t.Fatal(err)
	}
	if diffs := Diff(ExpectedTable2(providers), got); len(diffs) > 0 {
		t.Errorf("probed matrix deviates from ground truth:\n%s", strings.Join(diffs, "\n"))
		t.Logf("probed:\n%s", RenderTable2(got))
	}
	var er *Features
	for i := range got {
		if got[i].Marker == "ER" {
			er = &got[i]
		}
	}
	if er == nil {
		t.Fatalf("no ER column in the probed matrix:\n%s", RenderTable2(got))
	}
	if er.TLS[tls.VersionTLS12] || !er.TLS[tls.VersionTLS13] || !er.OCSP || !er.DoT {
		t.Errorf("ER probed as TLS 1.2=%v 1.3=%v, OCSP must-staple %v, DoT %v; want TLS 1.3 only, must-staple, DoT",
			er.TLS[tls.VersionTLS12], er.TLS[tls.VersionTLS13], er.OCSP, er.DoT)
	}
}

func TestExpectedTable2TLSVersions(t *testing.T) {
	cols := ExpectedTable2(DefaultProviders())
	byMarker := map[string]Features{}
	for _, c := range cols {
		byMarker[c.Marker] = c
	}
	// Spot-check against the paper's Table 2.
	cf := byMarker["CF"]
	if !cf.TLS[0x0301] || !cf.TLS[0x0304] { // 1.0 and 1.3
		t.Errorf("CF TLS = %v", cf.TLS)
	}
	g2 := byMarker["G2"]
	if g2.TLS[0x0301] || !g2.TLS[0x0304] {
		t.Errorf("G2 TLS = %v", g2.TLS)
	}
	cb := byMarker["CB"]
	if cb.TLS[0x0304] || !cb.TLS[0x0303] {
		t.Errorf("CB TLS = %v", cb.TLS)
	}
	rf := byMarker["RF"]
	if rf.TLS[0x0304] || !rf.TLS[0x0301] {
		t.Errorf("RF TLS = %v", rf.TLS)
	}
	if !byMarker["G1"].QUIC || byMarker["CF"].QUIC {
		t.Error("QUIC ground truth wrong")
	}
	if !byMarker["G1"].CAA || byMarker["Q9"].CAA {
		t.Error("CAA ground truth wrong")
	}
	if !byMarker["CB"].DoT || byMarker["PD"].DoT {
		t.Error("DoT ground truth wrong (following Table 2, not §2 text)")
	}
}

func TestDiffDetectsMismatch(t *testing.T) {
	want := ExpectedTable2(DefaultProviders())
	got := ExpectedTable2(DefaultProviders())
	got[0].JSON = !got[0].JSON
	got[2].DoT = !got[2].DoT
	diffs := Diff(want, got)
	if len(diffs) != 2 {
		t.Errorf("diffs = %v", diffs)
	}
	if len(Diff(want, want)) != 0 {
		t.Error("self-diff non-empty")
	}
	if len(Diff(want[:3], got)) == 0 {
		t.Error("length mismatch undetected")
	}
}
