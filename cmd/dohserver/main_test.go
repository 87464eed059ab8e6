package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestRunServesEveryTransport drives one smoke query over each of the five
// transports the deployment serves its Static Message handler on — UDP,
// TCP, DoT, DoH over HTTP/1.1 and over HTTP/2 — and wants each reported
// answered.
func TestRunServesEveryTransport(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-queries", "1"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, transport := range []string{"udp", "tcp", "dot", "doh-h1", "doh-h2"} {
		if line := fmt.Sprintf("\n%-7s 1/1 ok", transport); !strings.Contains(out.String(), line) {
			t.Errorf("no %q line in:\n%s", line[1:], out.String())
		}
	}
}
