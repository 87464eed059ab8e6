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
	fs := flag.NewFlagSet("dohproxy", flag.ContinueOnError)
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
// dohproxy registers — nothing undocumented, nothing documented that is
// gone — and README's prose about the proxy and load generation from
// naming a flag the tables do not have.
func TestFlagsDocumented(t *testing.T) {
	t.Run("tables", func(t *testing.T) {
		documented := map[string]bool{}
		for _, h := range []string{"### Proxy flags", "### Scenario flags", "### `dohproxy` only"} {
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
			t.Errorf("README documents -%s for dohproxy, which does not register it", name)
		}
	})

	t.Run("prose", func(t *testing.T) {
		tables := readmeFlags(t, "## Command-line flags")
		for _, h := range []string{"## The forwarding proxy", "## Observability", "## Impairment profiles & load generation"} {
			for name := range readmeFlags(t, h) {
				if !tables[name] {
					t.Errorf("README section %q mentions -%s, which no flag table lists", h, name)
				}
			}
		}
	})
}

// TestSharedFlagTable: every scenario and proxy flag reaches dohproxy
// through the one declaration, help string included, the only other
// flags are the ops plane's and -json, and the defaults are the load
// generator's.
func TestSharedFlagTable(t *testing.T) {
	shared := flag.NewFlagSet("shared", flag.ContinueOnError)
	loadgen.BindFlags(shared, new(loadgen.Scenario))
	fs := registered()
	t.Run("declarations", func(t *testing.T) {
		shared.VisitAll(func(sf *flag.Flag) {
			if f := fs.Lookup(sf.Name); f == nil || f.Usage != sf.Usage {
				t.Errorf("-%s missing from dohproxy or declared with another help string", sf.Name)
			}
		})
		own := map[string]bool{"metrics-addr": true, "hold": true, "json": true}
		fs.VisitAll(func(f *flag.Flag) {
			if shared.Lookup(f.Name) == nil && !own[f.Name] {
				t.Errorf("dohproxy registers -%s, which is neither a shared flag nor its own", f.Name)
			}
		})
	})
	t.Run("defaults", func(t *testing.T) {
		for name, want := range map[string]string{"clients": "10", "queries": "1000", "names": "16", "upstreams": "1", "upstream-rtt": "4ms", "seed": "1"} {
			if got := fs.Lookup(name).DefValue; got != want {
				t.Errorf("-%s defaults to %s, want %s", name, got, want)
			}
		}
	})
}

// TestRunRejectsMisconfiguration: the silent misconfigurations are loud,
// and fail before anything is deployed.
func TestRunRejectsMisconfiguration(t *testing.T) {
	for _, tc := range []struct {
		argv []string
		want string
	}{
		{[]string{"-guard-qps", "1"}, "-guard-qps requires -guard"},
		{[]string{"-udp-batch", "8"}, "-udp-listen"},
		{[]string{"-udp-shards", "2"}, "-udp-listen"},
		{[]string{"-cache-budget", "9999999999g"}, "invalid byte size"},
		{[]string{"-policy", "nope"}, "unknown policy"},
		{[]string{"-profile", "5g"}, "unknown impairment profile"},
		{[]string{"-shards", "4096"}, "CacheShards 4096 exceeds 1024"},
		{[]string{"-transports", "doq"}, "unknown transport"},
		{[]string{"-arrival", "batch"}, "unknown arrival model"},
	} {
		t.Run(strings.TrimPrefix(tc.argv[0], "-"), func(t *testing.T) {
			fs := flag.NewFlagSet("dohproxy", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			if err := run(fs, tc.argv); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("argv %v: err = %v, want one containing %q", tc.argv, err, tc.want)
			}
		})
	}
}
