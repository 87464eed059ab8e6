package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"

	"dohcost/internal/loadgen"
)

// registered returns the tool's flag set as bind declares it.
func registered() *flag.FlagSet {
	fs := flag.NewFlagSet("dohloadgen", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	bind(fs)
	return fs
}

// readmeFlags returns every `-name` token in the README section under
// heading (through the next heading of the same or a higher level).
func readmeFlags(t *testing.T, heading string) map[string]bool {
	t.Helper()
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, body, ok := strings.Cut(string(readme), "\n"+heading+"\n")
	if !ok {
		t.Fatalf("README.md has no %q section", heading)
	}
	level := strings.IndexByte(heading, ' ') // number of leading #s
	if end := regexp.MustCompile(fmt.Sprintf(`(?m)^#{1,%d} `, level)).FindStringIndex(body); end != nil {
		body = body[:end[0]]
	}
	names := map[string]bool{}
	for _, m := range regexp.MustCompile("`-([a-z][a-z0-9-]*)`").FindAllStringSubmatch(body, -1) {
		names[m[1]] = true
	}
	return names
}

// TestFlagsDocumented keeps README's flag tables equal to the flag set
// dohloadgen registers, and README's prose about the proxy and the load
// generator from naming a flag the tables do not have.
func TestFlagsDocumented(t *testing.T) {
	documented := map[string]bool{}
	for _, h := range []string{"### Proxy flags", "### Scenario flags", "### `dohloadgen` only"} {
		for name := range readmeFlags(t, h) {
			documented[name] = true
		}
	}
	registered().VisitAll(func(f *flag.Flag) {
		if !documented[f.Name] {
			t.Errorf("-%s is registered but not in README's flag tables", f.Name)
		}
		delete(documented, f.Name)
	})
	for name := range documented {
		t.Errorf("README documents -%s for dohloadgen, which does not register it", name)
	}

	tables := readmeFlags(t, "## Command-line flags")
	for _, h := range []string{"## The forwarding proxy", "## Observability", "## Impairment profiles & load generation"} {
		for name := range readmeFlags(t, h) {
			if !tables[name] {
				t.Errorf("README section %q mentions -%s, which no flag table lists", h, name)
			}
		}
	}
}

// TestSharedFlagTable: every scenario and proxy flag reaches dohloadgen
// through the one declaration, help string included.
func TestSharedFlagTable(t *testing.T) {
	shared := flag.NewFlagSet("shared", flag.ContinueOnError)
	loadgen.BindFlags(shared, new(loadgen.Scenario))
	fs := registered()
	shared.VisitAll(func(sf *flag.Flag) {
		if f := fs.Lookup(sf.Name); f == nil || f.Usage != sf.Usage {
			t.Errorf("-%s missing from dohloadgen or declared with another help string", sf.Name)
		}
	})
	for name, want := range map[string]string{"clients": "10", "queries": "1000", "names": "16", "upstreams": "1", "upstream-rtt": "4ms", "seed": "1"} {
		if got := fs.Lookup(name).DefValue; got != want {
			t.Errorf("-%s defaults to %s, want dohloadgen's %s", name, got, want)
		}
	}
}

// TestRunRejectsMisconfiguration: the silent misconfigurations are loud,
// and fail before anything is deployed.
func TestRunRejectsMisconfiguration(t *testing.T) {
	for _, tc := range []struct {
		argv []string
		want string
	}{
		{[]string{"-guard-qps", "1"}, "-guard-qps requires -guard"},
		{[]string{"-udp-shards", "2"}, "-udp-listen"},
		{[]string{"-shards", "4096"}, "CacheShards 4096 exceeds 1024"},
		{[]string{"-transports", "doq"}, "unknown transport"},
		{[]string{"-arrival", "batch"}, "unknown arrival model"},
	} {
		fs := flag.NewFlagSet("dohloadgen", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		if err := run(fs, tc.argv); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("argv %v: err = %v, want one containing %q", tc.argv, err, tc.want)
		}
	}
}
