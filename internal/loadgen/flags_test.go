package loadgen

import (
	"encoding/json"
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"dohcost/internal/dnstransport"
	"dohcost/internal/guard"
	"dohcost/internal/proxy"
	"dohcost/internal/qtrace"
	"dohcost/internal/steer"
	"dohcost/internal/telemetry"
)

// parseFlags runs argv through BindFlags over a copy of base and returns
// the finished Scenario, or the parse/finish error.
func parseFlags(base Scenario, argv ...string) (Scenario, error) {
	s := base
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	finish := BindFlags(fs, &s)
	if err := fs.Parse(argv); err != nil {
		return s, err
	}
	return s, finish()
}

// TestBindFlags maps argv to Scenario one section at a time; the proxy
// sections themselves are covered argv-by-argv in internal/proxy.
func TestBindFlags(t *testing.T) {
	cases := []struct {
		name string
		base Scenario
		argv []string
		want Scenario
	}{
		{name: "no flags leave the zero scenario", want: Scenario{}},
		{
			name: "workload",
			argv: []string{"-profile", "3g", "-transports", "udp, doh", "-clients", "50", "-queries", "2000", "-seed", "9",
				"-arrival", "open", "-rate", "40", "-think", "5ms", "-names", "8", "-zipf-names", "1000", "-zipf-s", "1.2",
				"-timeout", "3s", "-udp-attempt-timeout", "700ms"},
			want: Scenario{Profile: "3g", Transports: []string{"udp", "doh"}, Clients: 50, Queries: 2000, Seed: 9,
				Arrival: "open", Rate: 40, Think: 5 * time.Millisecond, Names: 8, ZipfNames: 1000, ZipfS: 1.2,
				Timeout: 3 * time.Second, UDPAttemptTimeout: 700 * time.Millisecond},
		},
		{
			name: "upstream topology and adversaries",
			argv: []string{"-upstreams", "3", "-upstream-rtt", "8ms", "-degraded-upstream-rtt", "600ms", "-attackers", "2", "-attack-qps", "5000"},
			want: Scenario{Upstreams: 3, UpstreamRTT: 8 * time.Millisecond, DegradedUpstreamRTT: 600 * time.Millisecond,
				Attackers: 2, AttackQPS: 5000},
		},
		{
			name: "happy eyeballs, bootstrap, dial fault, flap",
			argv: []string{"-he", "-he-stagger", "40ms", "-bootstrap-probe", "-dial-fault", "broken-v6", "-flap-after", "200ms", "-flap-for", "100ms"},
			want: Scenario{HappyEyeballs: true, HEStagger: 40 * time.Millisecond, BootstrapProbe: true, DialFault: "broken-v6",
				FlapAfter: 200 * time.Millisecond, FlapFor: 100 * time.Millisecond},
		},
		{
			name: "proxy flags land in Scenario.Proxy",
			argv: []string{"-policy", "fastest", "-cache-budget", "8m", "-conns", "4", "-guard", "-guard-qps", "2000", "-trace"},
			want: Scenario{Proxy: proxy.Config{Policy: steer.PolicyFastest, CacheBudget: 8 << 20,
				Pool:  dnstransport.PoolConfig{ConnsPerUpstream: 4},
				Guard: &guard.Config{ClientQPS: 2000}, Tracing: &qtrace.Config{}}},
		},
		{
			name: "defaults come from the pre-populated struct",
			base: Scenario{Clients: 1, Queries: 400, Upstreams: 2, Transports: []string{"doh"}, Proxy: proxy.Config{CacheShards: 16}},
			argv: []string{"-queries", "40"},
			want: Scenario{Clients: 1, Queries: 40, Upstreams: 2, Transports: []string{"doh"}, Proxy: proxy.Config{CacheShards: 16}},
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
	for _, argv := range [][]string{
		{"-policy", "fastset"},
		{"-conns", "1025"},
		{"-guard-qps", "1"}, // silently ignored before PR 14
		{"-udp-batch", "8"},
	} {
		if _, err := parseFlags(Scenario{}, argv...); err == nil {
			t.Errorf("argv %v accepted", argv)
		}
	}
}

// TestDeployRejectsInertScenarioKnobs: a knob that only tunes another,
// given without it, fails Deploy with an error naming both flags rather
// than doing nothing.
func TestDeployRejectsInertScenarioKnobs(t *testing.T) {
	for _, tc := range []struct {
		argv []string
		want []string // nil = accepted
	}{
		{[]string{"-he-stagger", "40ms"}, []string{"(-he-stagger)", "(-he)"}},
		{[]string{"-flap-for", "50ms"}, []string{"(-flap-for)", "(-flap-after)"}},
		{[]string{"-he", "-he-stagger", "40ms", "-flap-after", "1h", "-flap-for", "50ms"}, nil},
	} {
		s, err := parseFlags(Scenario{Transports: []string{"udp"}, Clients: 1, Queries: 1, Names: 1}, tc.argv...)
		if err != nil {
			t.Fatalf("argv %v: %v", tc.argv, err)
		}
		d, err := Deploy(s)
		if tc.want == nil {
			if err != nil {
				t.Errorf("argv %v: Deploy failed: %v", tc.argv, err)
			} else {
				d.Close()
			}
			continue
		}
		if err == nil {
			d.Close()
			t.Errorf("argv %v: Deploy accepted an inert knob", tc.argv)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("argv %v: err %q does not name %s", tc.argv, err, w)
			}
		}
	}
}

// TestBindFlagsSharesTheProxyTable is the one-declaration contract: every
// flag proxy.BindFlags declares is in the scenario flag set — the set both
// CLIs bind — under the same name with the same help string.
func TestBindFlagsSharesTheProxyTable(t *testing.T) {
	pfs := flag.NewFlagSet("proxy", flag.ContinueOnError)
	proxy.BindFlags(pfs, new(proxy.Config))
	sfs := flag.NewFlagSet("scenario", flag.ContinueOnError)
	BindFlags(sfs, new(Scenario))
	n := 0
	pfs.VisitAll(func(pf *flag.Flag) {
		n++
		sf := sfs.Lookup(pf.Name)
		if sf == nil {
			t.Errorf("scenario flag set lacks proxy flag -%s", pf.Name)
		} else if sf.Usage != pf.Usage {
			t.Errorf("-%s usage differs:\n scenario %q\n proxy    %q", pf.Name, sf.Usage, pf.Usage)
		}
	})
	if n < 20 {
		t.Errorf("proxy.BindFlags declared only %d flags", n)
	}
}

// TestScenarioRejectsTopologyOwnedProxyFields: Deploy overlays these, so a
// scenario that set one would be silently overridden.
func TestScenarioRejectsTopologyOwnedProxyFields(t *testing.T) {
	for name, p := range map[string]proxy.Config{
		"Upstreams":  {Upstreams: []dnstransport.PoolUpstream{{Name: "mine"}}},
		"Telemetry":  {Telemetry: telemetry.New()},
		"MaxUDPSize": {MaxUDPSize: 1200},
	} {
		if _, err := Deploy(Scenario{Proxy: p}); err == nil || !strings.Contains(err.Error(), "Scenario.Proxy") {
			t.Errorf("%s: Deploy err = %v, want a Scenario.Proxy rejection", name, err)
		}
	}
	// What proxy.Validate rejects surfaces from Deploy too.
	if _, err := Deploy(Scenario{Proxy: proxy.Config{UDPBatch: 8}}); err == nil {
		t.Error("Deploy accepted UDPBatch without UDPListen")
	}
}

// TestResultMarshalsWithEverySectionArmed pins `dohproxy -guard -json`:
// the echoed Scenario.Proxy drags guard.Config (with its clock func) and
// qtrace.Config (with its writers) into the encoder, which must skip the
// wiring and echo the knobs — enums by name.
func TestResultMarshalsWithEverySectionArmed(t *testing.T) {
	res, err := Run(Scenario{
		Transports:     []string{"udp", "doh"},
		Clients:        2,
		Queries:        20,
		Names:          4,
		Seed:           5,
		HappyEyeballs:  true,
		HEStagger:      20 * time.Millisecond,
		BootstrapProbe: true,
		Proxy: proxy.Config{
			Policy:      steer.PolicyHedged,
			CacheBudget: 1 << 20,
			Guard:       &guard.Config{Now: time.Now},
			Tracing:     &qtrace.Config{SlowLog: io.Discard},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.Guard == nil || res.Cost.Trace == nil || res.Cost.Dialer == nil || res.Cost.Bootstrap == nil {
		t.Fatalf("a section did not arm: guard=%v trace=%v dialer=%v bootstrap=%v", res.Cost.Guard, res.Cost.Trace, res.Cost.Dialer, res.Cost.Bootstrap)
	}
	out, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("Result does not marshal: %v", err)
	}
	for _, want := range []string{`"Policy":"hedged"`, `"CacheBudget":1048576`} {
		if !strings.Contains(string(out), want) {
			t.Errorf("echoed scenario lacks %s", want)
		}
	}
	var back Result
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatalf("Result does not unmarshal: %v", err)
	}
	if p := back.Scenario.Proxy; p.Policy != steer.PolicyHedged || p.CacheBudget != 1<<20 || p.Guard == nil || p.Tracing == nil {
		t.Errorf("round-tripped Scenario.Proxy = %+v", p)
	}
}
