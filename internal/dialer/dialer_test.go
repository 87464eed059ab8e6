package dialer

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dohcost/internal/netsim"
	"dohcost/internal/telemetry"
)

// simConfig builds a Config over a netsim network where upstream host
// "up" is dual-homed as "v4.up" and "v6.up", both listening on :53.
func simConfig(t *testing.T, n *netsim.Network) Config {
	t.Helper()
	for _, h := range []string{"v4.up", "v6.up"} {
		l, err := n.Listen(h + ":53")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
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
	return Config{
		Resolve: func(ctx context.Context, host string) ([]string, []string, error) {
			return []string{"v4." + host + ":53"}, []string{"v6." + host + ":53"}, nil
		},
		Dial: func(ctx context.Context, addr string) (net.Conn, error) {
			return n.DialContext(ctx, "client", addr)
		},
	}
}

func TestHappyEyeballsPrefersStickyWinner(t *testing.T) {
	n := netsim.New(1)
	cfg := simConfig(t, n)
	var dials []string
	var mu sync.Mutex
	inner := cfg.Dial
	cfg.Dial = func(ctx context.Context, addr string) (net.Conn, error) {
		mu.Lock()
		dials = append(dials, addr)
		mu.Unlock()
		return inner(ctx, addr)
	}
	cfg.PreferV6 = true
	cfg.Stagger = 50 * time.Millisecond
	h := New(cfg)

	// First race leads with v6 (the configured preference) and v6 wins.
	c, err := h.DialContext(context.Background(), "up")
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	mu.Lock()
	first := dials[0]
	mu.Unlock()
	if first != "v6.up:53" {
		t.Fatalf("first dial %s, want v6.up:53", first)
	}
	rep := h.Report()
	if len(rep.Hosts) != 1 || rep.Hosts[0].Winner != "v6" {
		t.Fatalf("report %+v, want v6 winner for up", rep.Hosts)
	}

	// Blackhole v6: the race falls over to v4 within one stagger and,
	// after demoteAfter consecutive sticky failures, the preference is
	// revoked so v4 leads the next race outright.
	n.SetDialFault("v6.up", netsim.DialFault{Blackhole: true})
	for i := 0; i < demoteAfter; i++ {
		c, err = h.DialContext(context.Background(), "up")
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	mu.Lock()
	dials = nil
	mu.Unlock()
	c, err = h.DialContext(context.Background(), "up")
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	mu.Lock()
	first = dials[0]
	mu.Unlock()
	if first != "v4.up:53" {
		t.Fatalf("post-demotion first dial %s, want v4.up:53", first)
	}
}

func TestHappyEyeballsStickyTTLExpires(t *testing.T) {
	n := netsim.New(2)
	cfg := simConfig(t, n)
	now := time.Now()
	cfg.now = func() time.Time { return now }
	cfg.PreferV6 = false // default order leads v4
	cfg.Stagger = 20 * time.Millisecond
	h := New(cfg)

	c, err := h.DialContext(context.Background(), "up")
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if h.preferredFamily("up") != telemetry.DialFamilyV4 {
		t.Fatal("v4 win not remembered")
	}
	// Force the memory to v6, then expire it.
	h.noteWin("up", telemetry.DialFamilyV6)
	if h.preferredFamily("up") != telemetry.DialFamilyV6 {
		t.Fatal("forced v6 winner not preferred")
	}
	now = now.Add(stickyTTL + time.Second)
	if h.preferredFamily("up") != telemetry.DialFamilyV4 {
		t.Fatal("expired winner still preferred")
	}
}

func TestHappyEyeballsBrokenV6BoundedByStagger(t *testing.T) {
	n := netsim.New(3)
	cfg := simConfig(t, n)
	cfg.PreferV6 = true
	cfg.Stagger = 50 * time.Millisecond
	n.SetDialFault("v6.up", netsim.DialFault{Blackhole: true})
	h := New(cfg)

	start := time.Now()
	c, err := h.DialContext(context.Background(), "up")
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	// The blackholed v6 lead costs one stagger interval, then v4
	// connects promptly; it must not cost anything near the 5 s dial
	// timeout.
	if e := time.Since(start); e > 10*cfg.Stagger {
		t.Fatalf("broken-v6 dial took %v, want ≈%v", e, cfg.Stagger)
	}
	if h.preferredFamily("up") != telemetry.DialFamilyV4 {
		t.Fatal("v4 win not recorded after v6 blackhole")
	}
}

func TestHappyEyeballsAllFail(t *testing.T) {
	cfg := Config{
		Resolve: func(ctx context.Context, host string) ([]string, []string, error) {
			return []string{"a:1"}, []string{"b:1"}, nil
		},
		Dial: func(ctx context.Context, addr string) (net.Conn, error) {
			return nil, errors.New("refused")
		},
		Stagger: time.Millisecond,
	}
	h := New(cfg)
	if _, err := h.DialContext(context.Background(), "up"); err == nil {
		t.Fatal("want error when every attempt fails")
	}
}

func TestHappyEyeballsTelemetry(t *testing.T) {
	n := netsim.New(4)
	cfg := simConfig(t, n)
	m := telemetry.New()
	cfg.Telemetry = m
	cfg.PreferV6 = true
	cfg.Stagger = 20 * time.Millisecond
	n.SetDialFault("v6.up", netsim.DialFault{ResetProb: 1})
	h := New(cfg)

	c, err := h.DialContext(context.Background(), "up")
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	snap := m.Snapshot()
	if snap.Dials["v6"]["error"] == 0 {
		t.Fatalf("v6 reset not counted: %+v", snap.Dials)
	}
	if snap.Dials["v4"]["ok"] == 0 {
		t.Fatalf("v4 success not counted: %+v", snap.Dials)
	}
	if snap.DialWins["v4"] != 1 {
		t.Fatalf("dial wins %+v, want one v4 win", snap.DialWins)
	}
}

func TestProberSeedsAndCaches(t *testing.T) {
	seeds := make(map[string]struct {
		d  time.Duration
		ok bool
	})
	var mu sync.Mutex
	seeder := seederFunc(func(name string, d time.Duration, ok bool) {
		mu.Lock()
		seeds[name] = struct {
			d  time.Duration
			ok bool
		}{d, ok}
		mu.Unlock()
	})
	p := &Prober{
		Timeout: 100 * time.Millisecond,
		Seeder:  seeder,
		Targets: []Target{
			{Upstream: "alive", Proto: "udp", Probe: func(ctx context.Context) (time.Duration, error) {
				return 7 * time.Millisecond, nil
			}},
			{Upstream: "alive", Proto: "doh", Probe: func(ctx context.Context) (time.Duration, error) {
				return 30 * time.Millisecond, nil
			}},
			{Upstream: "dead", Proto: "doh", Probe: func(ctx context.Context) (time.Duration, error) {
				<-ctx.Done()
				return 0, ctx.Err()
			}},
		},
	}
	vs := p.Run(context.Background())
	if len(vs) != 3 {
		t.Fatalf("got %d verdicts", len(vs))
	}
	if s := seeds["alive"]; !s.ok || s.d != 7*time.Millisecond {
		t.Fatalf("alive seeded %+v, want fastest OK probe", s)
	}
	if s := seeds["dead"]; s.ok || s.d != p.Timeout {
		t.Fatalf("dead seeded %+v, want timeout failure", s)
	}
	cached := p.Verdicts()
	if len(cached) != 3 || cached[0].Upstream != "alive" || !cached[0].OK {
		t.Fatalf("cached verdicts %+v", cached)
	}
	if rep := p.Report(); rep.Sweeps != 1 || rep.LastRunAgeMs < 0 {
		t.Fatalf("report %+v", rep)
	}
}

type seederFunc func(string, time.Duration, bool)

func (f seederFunc) Seed(name string, d time.Duration, ok bool) { f(name, d, ok) }

func TestProberKickRateLimited(t *testing.T) {
	var runs atomic.Int32
	done := make(chan struct{}, 8)
	p := &Prober{
		KickInterval: time.Hour,
		Targets: []Target{{Upstream: "u", Proto: "udp", Probe: func(ctx context.Context) (time.Duration, error) {
			runs.Add(1)
			done <- struct{}{}
			return time.Millisecond, nil
		}}},
	}
	if !p.Kick(context.Background()) {
		t.Fatal("first kick should start a sweep")
	}
	<-done
	// The sweep has run once; within KickInterval further kicks drop.
	for i := 0; i < 5; i++ {
		if p.Kick(context.Background()) {
			t.Fatal("kick inside the interval should be dropped")
		}
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("probe ran %d times, want 1", got)
	}
}

func TestStormFiresAndCoolsDown(t *testing.T) {
	var fired atomic.Int32
	s := &Storm{Threshold: 3, Cooldown: time.Hour, OnStorm: func() { fired.Add(1) }}
	err := errors.New("boom")
	s.Note(err)
	s.Note(err)
	s.Note(nil) // success resets the run
	s.Note(err)
	s.Note(err)
	if fired.Load() != 0 {
		t.Fatal("storm fired before threshold")
	}
	s.Note(err)
	if fired.Load() != 1 {
		t.Fatal("storm did not fire at threshold")
	}
	for i := 0; i < 10; i++ {
		s.Note(err)
	}
	if fired.Load() != 1 {
		t.Fatal("cooldown did not suppress refiring")
	}
	if s.Fired() != 1 {
		t.Fatalf("Fired()=%d", s.Fired())
	}
}

func TestInterleaveOrders(t *testing.T) {
	v4 := []string{"a4", "b4", "c4"}
	v6 := []string{"a6"}
	got := interleave(v4, v6, telemetry.DialFamilyV6)
	want := []string{"a6", "a4", "b4", "c4"}
	for i, a := range got {
		if a.addr != want[i] {
			t.Fatalf("interleave[%d]=%s want %s (%v)", i, a.addr, want[i], got)
		}
	}
	if got := interleave(nil, nil, telemetry.DialFamilyV4); len(got) != 0 {
		t.Fatalf("empty interleave returned %v", got)
	}
}

func ExampleHappyEyeballs_DialContext() {
	n := netsim.New(0)
	l, _ := n.Listen("v4.up:53")
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
	h := New(Config{
		Resolve: func(ctx context.Context, host string) ([]string, []string, error) {
			return []string{"v4." + host + ":53"}, nil, nil
		},
		Dial: func(ctx context.Context, addr string) (net.Conn, error) {
			return n.DialContext(ctx, "client", addr)
		},
	})
	c, err := h.DialContext(context.Background(), "up")
	if err == nil {
		c.Close()
	}
	fmt.Println(err)
	// Output: <nil>
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
	he := New(Config{
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
