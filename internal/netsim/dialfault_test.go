package netsim

import (
	"context"
	"errors"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestDialContextBlackholeHonorsDeadline(t *testing.T) {
	n := New(1)
	defer startEcho(t, n, "v6.up:53").Close()
	n.SetDialFault("v6.up", DialFault{Blackhole: true})

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := n.DialContext(ctx, "client", "v6.up:53")
	if err == nil {
		t.Fatal("blackholed dial succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if el := time.Since(start); el < 40*time.Millisecond || el > time.Second {
		t.Fatalf("blackholed dial returned after %v, want ~50ms", el)
	}
}

func TestDialContextConnectDelay(t *testing.T) {
	n := New(1)
	defer startEcho(t, n, "up:53").Close()
	n.SetDialFault("up", DialFault{ConnectDelay: 60 * time.Millisecond})

	start := time.Now()
	c, err := n.DialContext(context.Background(), "client", "up:53")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	c.Close()
	if el := time.Since(start); el < 55*time.Millisecond {
		t.Fatalf("connect delay not charged: dial took %v", el)
	}
}

func TestDialContextResetDeterministic(t *testing.T) {
	outcomes := func() []bool {
		n := New(7)
		defer startEcho(t, n, "up:53").Close()
		n.SetDialFault("up", DialFault{ResetProb: 0.5})
		var out []bool
		for i := 0; i < 20; i++ {
			c, err := n.DialContext(context.Background(), "client", "up:53")
			out = append(out, err == nil)
			if err == nil {
				c.Close()
			} else if !strings.Contains(err.Error(), "reset") {
				t.Fatalf("unexpected dial error: %v", err)
			}
		}
		return out
	}
	a, b := outcomes(), outcomes()
	var resets int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("reset schedule not reproducible at attempt %d", i)
		}
		if !a[i] {
			resets++
		}
	}
	if resets == 0 || resets == len(a) {
		t.Fatalf("ResetProb 0.5 gave %d/%d resets, want a mix", resets, len(a))
	}
}

func TestLinkFlapSeversConnsAndBlocksDials(t *testing.T) {
	n := New(1)
	defer startEcho(t, n, "up:53").Close()

	c, err := n.DialContext(context.Background(), "client", "up:53")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("x")); err != nil {
		t.Fatalf("pre-flap write: %v", err)
	}

	n.SetLinkFlap("up", FlapWindow{Start: 0, End: 80 * time.Millisecond})

	if _, err := c.Write([]byte("x")); err == nil {
		t.Fatal("write on flapped link succeeded, want reset")
	}
	if _, err := n.DialContext(context.Background(), "client", "up:53"); err == nil {
		t.Fatal("dial during flap succeeded, want refusal")
	}

	time.Sleep(100 * time.Millisecond)
	// Outage over: new dials work again.
	c2, err := n.DialContext(context.Background(), "client", "up:53")
	if err != nil {
		t.Fatalf("post-flap dial: %v", err)
	}
	c2.Close()
}

func TestDialProfilesRegistry(t *testing.T) {
	for _, name := range []string{"broken-v6", "flaky-dial"} {
		p, ok := LookupDialProfile(name)
		if !ok {
			t.Fatalf("profile %q missing", name)
		}
		if p.Name != name || p.Description == "" {
			t.Fatalf("profile %q malformed: %+v", name, p)
		}
	}
	if len(DialProfiles()) != len(DialProfileNames()) {
		t.Fatal("DialProfiles and DialProfileNames disagree")
	}
	bv6, _ := LookupDialProfile("broken-v6")
	if !bv6.V6.Blackhole || bv6.V4.active() {
		t.Fatalf("broken-v6 should blackhole only v6: %+v", bv6)
	}

	// ApplyDialProfile fans the per-family faults out to the right hosts.
	n := New(1)
	defer startEcho(t, n, "v4.up:53").Close()
	defer startEcho(t, n, "v6.up:53").Close()
	n.ApplyDialProfile("v4.up", "v6.up", bv6)
	c, err := n.DialContext(context.Background(), "client", "v4.up:53")
	if err != nil {
		t.Fatalf("v4 dial under broken-v6: %v", err)
	}
	c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := n.DialContext(ctx, "client", "v6.up:53"); err == nil {
		t.Fatal("v6 dial under broken-v6 succeeded")
	}
}

// DialProfiles returns the built-in dial-fault profiles sorted by name.
func DialProfiles() []DialProfile {
	out := make([]DialProfile, 0, len(dialProfiles))
	for _, p := range dialProfiles {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
