package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"dohcost/internal/stats"
)

// update rewrites the golden files from the current run:
//
//	go test ./internal/core -run Golden -update
//
// Review the diff before committing — these files are the published
// numbers of the reproduction, and a silent shift here is exactly what
// the tests exist to catch.
var update = flag.Bool("update", false, "rewrite golden files from the current run")

// checkGolden compares got against testdata/<name>, rewriting under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file: %v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file; if the change is intended, rerun with -update and review the diff.\ngot:\n%s\nwant:\n%s",
			name, got, want)
	}
}

// marshalGolden renders a stable, human-diffable JSON form.
func marshalGolden(t *testing.T, v any) []byte {
	t.Helper()
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// TestTablesGolden pins the full landscape survey — Table 1's provider
// registry, Table 2's probed features, and the (empty) diff between them —
// against testdata/tables.golden.json. Every field is
// deterministic for a fixed seed, so the comparison is exact.
func TestTablesGolden(t *testing.T) {
	r, err := RunTables(1)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "tables.golden.json", marshalGolden(t, r))
}

// overheadSample is the deterministic projection of one resolution's cost.
// Wall-clock duration is excluded, and for stream scenarios so are raw
// wire bytes and packet counts: TLS handshakes embed freshly generated
// certificates whose ECDSA signature lengths vary by a few bytes between
// processes, so those totals are reproducible only across runs in one
// process. What is pinned is everything the DNS and HTTP/2 layers control:
// UDP payload costs exactly, and the HTTP/2 Body/Hdr/Mgmt byte stacks of
// Figure 5, which a change to message encoding, HPACK or framing would
// shift.
type overheadSample struct {
	Bytes   int64 `json:"bytes,omitempty"`
	Packets int64 `json:"packets,omitempty"`
	Body    int64 `json:"body,omitempty"`
	Hdr     int64 `json:"hdr,omitempty"`
	Mgmt    int64 `json:"mgmt,omitempty"`
	Setup   bool  `json:"setup,omitempty"`
}

// overheadScenarioGolden is one scenario's projected sample list.
type overheadScenarioGolden struct {
	Scenario string           `json:"scenario"`
	Samples  []overheadSample `json:"samples"`
}

// TestOverheadGolden pins the §4 overhead study's deterministic outputs
// against testdata/overhead.golden.json, so plumbing changes (impairment,
// transports, topology) cannot silently shift the published per-resolution
// costs.
func TestOverheadGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full overhead run under -short")
	}
	r, err := RunOverhead(OverheadConfig{Domains: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var golden []overheadScenarioGolden
	for _, sc := range r.Scenarios {
		g := overheadScenarioGolden{Scenario: sc.Scenario}
		for _, c := range sc.Costs {
			s := overheadSample{Setup: c.IncludesSetup}
			if len(c.UDPPayloads) > 0 {
				w := c.WireCost()
				s.Bytes, s.Packets = w.Bytes, w.Packets
			} else {
				s.Body, s.Hdr, s.Mgmt = c.H2.BodyBytes, c.H2.HdrBytes, c.H2.MgmtBytes
			}
			g.Samples = append(g.Samples, s)
		}
		golden = append(golden, g)
	}
	checkGolden(t, "overhead.golden.json", marshalGolden(t, golden))

	// The golden file leaves stream totals unpinned, so the emission model
	// — how many flights carry one resolution — is pinned here: the median
	// packets per resolution the reproduction publishes for Figure 4. They
	// move only if the topology stops setting h2.FramePerFlight or that
	// model stops meaning one frame per flight and credit per DATA frame.
	for _, want := range []struct {
		scenario string
		packets  float64
	}{{"H/CF", 33}, {"H/GO", 35}, {"HP/CF", 10}, {"HP/GO", 10}} {
		if got := stats.NewCDF(r.Scenario(want.scenario).Packets()).Quantile(0.5); got != want.packets {
			t.Errorf("%s: median %.0f packets per resolution, want %.0f", want.scenario, got, want.packets)
		}
	}
}
