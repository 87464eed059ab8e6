package dnstransport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dohcost/internal/dnswire"
)

// fakeResolver is a scriptable in-process Resolver for pool tests.
type fakeResolver struct {
	name      string
	exchanges atomic.Int64
	fail      atomic.Bool
	closed    atomic.Bool
	slow      atomic.Bool // block until the context ends
}

func (f *fakeResolver) Exchange(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	f.exchanges.Add(1)
	if f.slow.Load() {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	if f.fail.Load() {
		return nil, fmt.Errorf("fake %s: injected failure", f.name)
	}
	r := q.Reply()
	r.Answers = append(r.Answers, dnswire.ResourceRecord{
		Name: q.Question1().Name, Class: dnswire.ClassINET, TTL: 60,
		Data: &dnswire.TXT{Strings: []string{f.name}},
	})
	return r, nil
}

func (f *fakeResolver) Close() error { f.closed.Store(true); return nil }

// answeredBy extracts which fake answered the response.
func answeredBy(t *testing.T, resp *dnswire.Message) string {
	t.Helper()
	if len(resp.Answers) != 1 {
		t.Fatalf("answers = %v", resp.Answers)
	}
	return resp.Answers[0].Data.(*dnswire.TXT).Strings[0]
}

// fakeUpstream tracks every connection dialed toward one upstream.
type fakeUpstream struct {
	name     string
	mu       sync.Mutex
	conns    []*fakeResolver
	attempts atomic.Int64
	// dialErr, when set, makes dialing fail.
	dialErr atomic.Bool
	// failNew makes newly dialed connections fail their exchanges.
	failNew atomic.Bool
}

func (u *fakeUpstream) poolUpstream() PoolUpstream {
	return PoolUpstream{Name: u.name, Dial: func(ctx context.Context) (Resolver, error) {
		u.attempts.Add(1)
		if u.dialErr.Load() {
			return nil, fmt.Errorf("%s: dial refused", u.name)
		}
		f := &fakeResolver{name: u.name}
		f.fail.Store(u.failNew.Load())
		u.mu.Lock()
		u.conns = append(u.conns, f)
		u.mu.Unlock()
		return f, nil
	}}
}

func (u *fakeUpstream) dialed() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return len(u.conns)
}

func (u *fakeUpstream) failAll(fail bool) {
	u.failNew.Store(fail)
	u.mu.Lock()
	for _, c := range u.conns {
		c.fail.Store(fail)
	}
	u.mu.Unlock()
}

func q(name string) *dnswire.Message {
	return dnswire.NewQuery(0, dnswire.Name(name), dnswire.TypeA)
}

func TestPoolMultiplexesOverConns(t *testing.T) {
	up := &fakeUpstream{name: "primary"}
	p, err := NewPool([]PoolUpstream{up.poolUpstream()}, PoolConfig{ConnsPerUpstream: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 9; i++ {
		resp, err := p.Exchange(context.Background(), q(fmt.Sprintf("m%d.example.", i)))
		if err != nil {
			t.Fatal(err)
		}
		if got := answeredBy(t, resp); got != "primary" {
			t.Fatalf("answered by %s", got)
		}
	}
	if up.dialed() != 3 {
		t.Errorf("dialed %d conns, want 3 (round-robin over the pool)", up.dialed())
	}
	// All three connections should have carried traffic.
	up.mu.Lock()
	defer up.mu.Unlock()
	for _, c := range up.conns {
		if c.exchanges.Load() != 3 {
			t.Errorf("conn carried %d exchanges, want 3", c.exchanges.Load())
		}
	}
}

func TestPoolFailsOverAcrossUpstreams(t *testing.T) {
	prim := &fakeUpstream{name: "primary"}
	sec := &fakeUpstream{name: "secondary"}
	p, err := NewPool(
		[]PoolUpstream{prim.poolUpstream(), sec.poolUpstream()},
		PoolConfig{ConnsPerUpstream: 1, MaxFailures: 2, BackoffBase: time.Minute},
	)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Healthy primary answers everything.
	resp, err := p.Exchange(context.Background(), q("a.example."))
	if err != nil || answeredBy(t, resp) != "primary" {
		t.Fatalf("resp=%v err=%v", resp, err)
	}
	if sec.dialed() != 0 {
		t.Fatal("secondary dialed while primary healthy")
	}

	// Break the primary: queries fail over per-exchange.
	prim.failAll(true)
	resp, err = p.Exchange(context.Background(), q("b.example."))
	if err != nil {
		t.Fatal(err)
	}
	if got := answeredBy(t, resp); got != "secondary" {
		t.Fatalf("failover answered by %s", got)
	}

	// After MaxFailures the primary is marked down and skipped entirely.
	p.Exchange(context.Background(), q("c.example."))
	p.Exchange(context.Background(), q("d.example."))
	stats := p.Stats()
	if !stats[0].Down {
		t.Errorf("primary not marked down: %+v", stats)
	}
	primDialsWhenDown := prim.dialed()
	if _, err := p.Exchange(context.Background(), q("e.example.")); err != nil {
		t.Fatal(err)
	}
	if prim.dialed() != primDialsWhenDown {
		t.Error("down upstream still being dialed")
	}
	if stats[1].Down {
		t.Errorf("secondary wrongly down: %+v", stats)
	}
}

func TestPoolRecoversAfterBackoff(t *testing.T) {
	now := time.Now()
	clock := func() time.Time { return now }
	up := &fakeUpstream{name: "flaky"}
	p, err := NewPool([]PoolUpstream{up.poolUpstream()}, PoolConfig{
		ConnsPerUpstream: 1, MaxFailures: 1,
		BackoffBase: time.Second, BackoffMax: 8 * time.Second,
		now: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	up.failAll(true)
	if _, err := p.Exchange(context.Background(), q("x.example.")); err == nil {
		t.Fatal("exchange against broken upstream succeeded")
	}
	// Repair the upstream; within the backoff window the pool still tries
	// (sole upstream — the all-down fallback), dialing a fresh connection.
	up.failAll(false)
	now = now.Add(2 * time.Second) // past the 1s redial backoff
	resp, err := p.Exchange(context.Background(), q("y.example."))
	if err != nil {
		t.Fatal(err)
	}
	if answeredBy(t, resp) != "flaky" {
		t.Fatal("wrong upstream")
	}
	if s := p.Stats(); s[0].Down {
		t.Errorf("upstream still down after success: %+v", s)
	}
}

func TestPoolRedialBackoffThrottlesDialing(t *testing.T) {
	now := time.Now()
	clock := func() time.Time { return now }
	up := &fakeUpstream{name: "dead"}
	up.dialErr.Store(true)
	p, err := NewPool([]PoolUpstream{up.poolUpstream()}, PoolConfig{
		ConnsPerUpstream: 1, MaxFailures: 100, // keep "healthy" so we exercise conn backoff
		BackoffBase: time.Second, now: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	if _, err := p.Exchange(context.Background(), q("a.example.")); err == nil {
		t.Fatal("dial failure swallowed")
	}
	// Immediately after, the slot is in redial backoff: no second dial.
	if _, err := p.Exchange(context.Background(), q("b.example.")); err == nil {
		t.Fatal("backoff exchange succeeded")
	}
	if got := up.attempts.Load(); got != 1 {
		t.Errorf("dial attempts = %d, want 1 (second is throttled)", got)
	}
	now = now.Add(2 * time.Second)
	up.dialErr.Store(false)
	if _, err := p.Exchange(context.Background(), q("c.example.")); err != nil {
		t.Fatalf("exchange after backoff: %v", err)
	}
}

func TestPoolCloseClosesConns(t *testing.T) {
	up := &fakeUpstream{name: "c"}
	p, err := NewPool([]PoolUpstream{up.poolUpstream()}, PoolConfig{ConnsPerUpstream: 2})
	if err != nil {
		t.Fatal(err)
	}
	p.Exchange(context.Background(), q("a.example."))
	p.Exchange(context.Background(), q("b.example."))
	p.Close()
	up.mu.Lock()
	defer up.mu.Unlock()
	for _, c := range up.conns {
		if !c.closed.Load() {
			t.Error("pooled connection left open after Close")
		}
	}
	if _, err := p.Exchange(context.Background(), q("c.example.")); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v, want ErrClosed", err)
	}
}

func TestPoolConcurrentExchanges(t *testing.T) {
	up := &fakeUpstream{name: "conc"}
	p, err := NewPool([]PoolUpstream{up.poolUpstream()}, PoolConfig{ConnsPerUpstream: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := p.Exchange(context.Background(), q(fmt.Sprintf("c%d.example.", i))); err != nil {
				t.Errorf("exchange %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if up.dialed() > 4 {
		t.Errorf("dialed %d conns, want ≤ 4", up.dialed())
	}
}

// TestBackoffJitterSpreadsRedials breaks two connection slots at the same
// instant with the same config and checks their next-dial times differ —
// the anti-thundering-herd property — while both stay inside the
// [base/2, base) jitter window.
func TestBackoffJitterSpreadsRedials(t *testing.T) {
	now := time.Now()
	cfg := PoolConfig{BackoffBase: time.Second, now: func() time.Time { return now }}.withDefaults()
	c1, c2 := &poolConn{}, &poolConn{}
	c1.noteBroken(cfg)
	c2.noteBroken(cfg)
	if c1.redialAt.Equal(c2.redialAt) {
		t.Errorf("two conns broken together redial at the same instant %v (lockstep herd)", c1.redialAt)
	}
	for i, c := range []*poolConn{c1, c2} {
		d := c.redialAt.Sub(now)
		if d < cfg.BackoffBase/2 || d >= cfg.BackoffBase {
			t.Errorf("conn %d redial delay %v outside jitter window [%v, %v)", i, d, cfg.BackoffBase/2, cfg.BackoffBase)
		}
	}
	// The underlying exponential growth stays deterministic: doubling, then
	// capped.
	if got := nextBackoff(time.Second, cfg); got != 2*time.Second {
		t.Errorf("nextBackoff(1s) = %v, want 2s", got)
	}
	if got := nextBackoff(20*time.Second, cfg); got != cfg.BackoffMax {
		t.Errorf("nextBackoff(20s) = %v, want cap %v", got, cfg.BackoffMax)
	}
}

// TestExchangeUpstreamTargetsSpecific checks the steering entry point aims
// one exchange at exactly the named upstream, bypassing preference order.
func TestExchangeUpstreamTargetsSpecific(t *testing.T) {
	prim := &fakeUpstream{name: "primary"}
	sec := &fakeUpstream{name: "secondary"}
	p, err := NewPool([]PoolUpstream{prim.poolUpstream(), sec.poolUpstream()}, PoolConfig{ConnsPerUpstream: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if got, want := p.NumUpstreams(), 2; got != want {
		t.Fatalf("NumUpstreams = %d, want %d", got, want)
	}
	if p.UpstreamName(0) != "primary" || p.UpstreamName(1) != "secondary" {
		t.Fatalf("names = %q, %q", p.UpstreamName(0), p.UpstreamName(1))
	}
	aim, err := q("aim.example.").Pack()
	if err != nil {
		t.Fatal(err)
	}
	wire, err := p.ExchangeUpstreamWire(context.Background(), 1, aim, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp := new(dnswire.Message)
	if err := resp.Unpack(wire); err != nil {
		t.Fatal(err)
	}
	if got := answeredBy(t, resp); got != "secondary" {
		t.Errorf("answered by %s, want secondary", got)
	}
	if prim.dialed() != 0 {
		t.Error("primary dialed by a secondary-directed exchange")
	}
	if _, err := p.ExchangeUpstreamWire(context.Background(), 5, aim, nil); err == nil {
		t.Error("out-of-range upstream index accepted")
	}
}

// TestExchangeObserverSeesOutcomes installs an observer and checks it sees
// both the success and the failure, with the right upstream names.
func TestExchangeObserverSeesOutcomes(t *testing.T) {
	up := &fakeUpstream{name: "watched"}
	p, err := NewPool([]PoolUpstream{up.poolUpstream()}, PoolConfig{ConnsPerUpstream: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	type seen struct {
		name string
		err  error
	}
	var mu sync.Mutex
	var outcomes []seen
	p.SetExchangeObserver(func(name string, d time.Duration, err error) {
		mu.Lock()
		outcomes = append(outcomes, seen{name, err})
		mu.Unlock()
	})
	if _, err := p.Exchange(context.Background(), q("ok.example.")); err != nil {
		t.Fatal(err)
	}
	up.failAll(true)
	p.Exchange(context.Background(), q("bad.example."))
	mu.Lock()
	defer mu.Unlock()
	if len(outcomes) != 2 {
		t.Fatalf("observer saw %d outcomes, want 2: %v", len(outcomes), outcomes)
	}
	if outcomes[0].name != "watched" || outcomes[0].err != nil {
		t.Errorf("first outcome = %+v, want watched success", outcomes[0])
	}
	if outcomes[1].err == nil {
		t.Error("failure outcome reported as success")
	}
}

// TestCancelledExchangeChargesNothing cancels an in-flight exchange and
// checks the upstream's health and the connection slot are untouched: a
// hedge loser's cancellation (or a departed client) must not mark a
// healthy upstream down or force a redial.
func TestCancelledExchangeChargesNothing(t *testing.T) {
	up := &fakeUpstream{name: "innocent"}
	p, err := NewPool([]PoolUpstream{up.poolUpstream()}, PoolConfig{ConnsPerUpstream: 1, MaxFailures: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// Warm the connection, then make it block.
	if _, err := p.Exchange(context.Background(), q("warm.example.")); err != nil {
		t.Fatal(err)
	}
	up.mu.Lock()
	up.conns[0].slow.Store(true)
	up.mu.Unlock()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := p.Exchange(ctx, q("hung.example."))
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-done; err == nil {
		t.Fatal("cancelled exchange returned no error")
	}
	stats := p.Stats()
	if stats[0].Failures != 0 || stats[0].Down {
		t.Errorf("cancellation charged the upstream: %+v", stats[0])
	}
	// The connection survived: the next exchange reuses it, no redial.
	up.mu.Lock()
	up.conns[0].slow.Store(false)
	up.mu.Unlock()
	if _, err := p.Exchange(context.Background(), q("after.example.")); err != nil {
		t.Fatalf("exchange after cancellation: %v", err)
	}
	if up.dialed() != 1 {
		t.Errorf("dialed %d conns, want 1 (cancellation must not drop the slot)", up.dialed())
	}
}

// TestDeadlineExceededChargesUpstream is the counterpart of the
// cancellation test: a deadline that expires mid-exchange IS charged —
// health, failure counter, and connection drop — because a black-holing
// upstream must still be marked down and redialed.
func TestDeadlineExceededChargesUpstream(t *testing.T) {
	up := &fakeUpstream{name: "blackhole"}
	p, err := NewPool([]PoolUpstream{up.poolUpstream()}, PoolConfig{ConnsPerUpstream: 1, MaxFailures: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Exchange(context.Background(), q("warm.example.")); err != nil {
		t.Fatal(err)
	}
	up.mu.Lock()
	up.conns[0].slow.Store(true)
	up.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := p.Exchange(ctx, q("hole.example.")); err == nil {
		t.Fatal("black-holed exchange returned no error")
	}
	stats := p.Stats()
	if stats[0].Failures != 1 || !stats[0].Down {
		t.Errorf("deadline expiry not charged: %+v", stats[0])
	}
}
