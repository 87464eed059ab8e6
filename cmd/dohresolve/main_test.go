package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// TestRunResolvesEveryTransport resolves one name over each transport the
// CLI offers and wants one answer and one wire-cost line for each.
func TestRunResolvesEveryTransport(t *testing.T) {
	for _, transport := range []string{"udp", "dot", "doh", "doh1"} {
		var out bytes.Buffer
		if err := run([]string{"-transport", transport, "example.com"}, &out); err != nil {
			t.Fatalf("-transport %s: %v\n%s", transport, err, out.String())
		}
		for _, line := range []string{"\nANSWER: example.com. ", "\n;; wire cost: "} {
			if n := strings.Count(out.String(), line); n != 1 {
				t.Errorf("-transport %s: %d %q lines, want 1, in:\n%s", transport, n, line[1:], out.String())
			}
		}
	}
}

// TestRunRejectsUsage: a bad command line is a usage error, which main
// turns into exit status 2.
func TestRunRejectsUsage(t *testing.T) {
	for _, argv := range [][]string{
		{},
		{"a.example", "b.example"},
		{"-transport", "doq", "example.com"},
		{"-server", "quad9", "example.com"},
		{"-type", "NOPE", "example.com"},
	} {
		var out bytes.Buffer
		if err := run(argv, &out); !errors.As(err, new(usageError)) {
			t.Errorf("argv %v: err = %v, want a usage error", argv, err)
		}
	}
}
