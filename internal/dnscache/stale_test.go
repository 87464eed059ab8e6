package dnscache

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dohcost/internal/dnswire"
	"dohcost/internal/telemetry"
)

// tickClock is a concurrency-safe test clock (background refreshes read it
// from their own goroutines).
type tickClock struct{ sec atomic.Int64 }

func newTickClock(sec int64) *tickClock {
	c := &tickClock{}
	c.sec.Store(sec)
	return c
}
func (c *tickClock) now() time.Time { return time.Unix(c.sec.Load(), 0) }
func (c *tickClock) set(sec int64)  { c.sec.Store(sec) }

// waitUntil polls cond for up to two seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestServeStaleAnswersWithoutUpstreamWait is the acceptance scenario: an
// expired-but-stale entry is answered from cache with zero upstream wait —
// proven by a deliberately slow upstream — while exactly one background
// refresh re-populates it, however many clients hit the stale entry
// concurrently.
func TestServeStaleAnswersWithoutUpstreamWait(t *testing.T) {
	clock := newTickClock(1000)
	up := &countingUpstream{ttl: 60}
	c := New(up, WithServeStale(5*time.Minute), withClock(clock.now))
	defer c.Close()
	m := telemetry.New()

	if _, err := c.Exchange(context.Background(), dnswire.NewQuery(1, "stale.example.", dnswire.TypeA)); err != nil {
		t.Fatal(err)
	}
	// Expire the entry (TTL 60, inserted at t=1000) and slow the upstream:
	// any foreground path that waited on it would blow the latency budget.
	clock.set(1100)
	up.delay = 300 * time.Millisecond

	const clients = 8
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id uint16) {
			defer wg.Done()
			tx := m.Begin(telemetry.ProtoUDP)
			defer tx.Finish()
			ctx := telemetry.NewContext(context.Background(), tx)
			start := time.Now()
			resp, err := c.Exchange(ctx, dnswire.NewQuery(id, "stale.example.", dnswire.TypeA))
			if err != nil {
				t.Errorf("stale exchange: %v", err)
				return
			}
			if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
				t.Errorf("stale hit took %v, must not wait on the %v upstream", elapsed, up.delay)
			}
			if len(resp.Answers) != 1 || resp.Answers[0].TTL > uint32(StaleTTL/time.Second) {
				t.Errorf("stale answer = %v, want TTL capped at %v", resp.Answers, StaleTTL)
			}
		}(uint16(i + 2))
	}
	wg.Wait()

	if got := m.Snapshot().CacheEvents["stale_hit"]; got != clients {
		t.Errorf("stale_hit events = %d, want %d", got, clients)
	}
	// Exactly one background refresh goes upstream (initial miss + refresh
	// = 2 calls), and it re-populates the entry.
	waitUntil(t, "background refresh", func() bool { return up.calls.Load() >= 2 })
	waitUntil(t, "refreshed entry", func() bool {
		resp, err := c.Exchange(context.Background(), dnswire.NewQuery(99, "stale.example.", dnswire.TypeA))
		return err == nil && len(resp.Answers) == 1 && resp.Answers[0].TTL > uint32(StaleTTL/time.Second)
	})
	if got := up.calls.Load(); got != 2 {
		t.Errorf("upstream calls = %d, want 2 (one miss + one singleflight refresh)", got)
	}
	// The freshness poll above also rode the stale path while the slow
	// refresh ran, so the stale count is a floor, not an exact value; the
	// exact per-client count is pinned by the telemetry events above.
	s := c.Stats()
	if s.StaleHits < clients || s.Refreshes != 1 || s.Prefetches != 0 || s.Misses != 1 {
		t.Errorf("stats = %+v, want ≥%d stale hits, exactly 1 refresh, 1 miss", s, clients)
	}
}

// TestServeStaleWirePath drives the stale window through ServeWire: the
// zero-alloc path serves the expired entry with StaleTTL-capped TTLs,
// reports the stale_hit outcome, and triggers the same singleflight
// refresh.
func TestServeStaleWirePath(t *testing.T) {
	clock := newTickClock(2000)
	up := &countingUpstream{ttl: 60}
	c := New(up, WithServeStale(10*time.Minute), withClock(clock.now))
	defer c.Close()
	if _, err := c.Exchange(context.Background(), dnswire.NewQuery(1, "wired.example.", dnswire.TypeA)); err != nil {
		t.Fatal(err)
	}
	clock.set(2090) // 30s past the 60s TTL

	fq, _ := fastParse(t, dnswire.NewQuery(0x7777, "wired.example.", dnswire.TypeA))
	resp, outcome, ok := c.ServeWire(nil, &fq, nil, 0)
	if !ok {
		t.Fatal("stale entry not served on the wire path")
	}
	if outcome != telemetry.CacheStaleHit {
		t.Errorf("outcome = %v, want stale_hit", outcome)
	}
	var msg dnswire.Message
	if err := msg.Unpack(resp); err != nil {
		t.Fatal(err)
	}
	if msg.ID != 0x7777 || len(msg.Answers) != 1 || msg.Answers[0].TTL != uint32(StaleTTL/time.Second) {
		t.Errorf("stale wire answer = id %#x %v, want restamped ID and TTL %d", msg.ID, msg.Answers, uint32(StaleTTL/time.Second))
	}
	waitUntil(t, "wire-path refresh", func() bool { return up.calls.Load() == 2 })

	// Past the stale window the wire path declines and the Message path
	// treats it as a plain miss.
	c2 := New(&countingUpstream{ttl: 60}, WithServeStale(time.Minute), withClock(clock.now))
	defer c2.Close()
	if _, err := c2.Exchange(context.Background(), dnswire.NewQuery(1, "gone.example.", dnswire.TypeA)); err != nil {
		t.Fatal(err)
	}
	clock.set(2090 + 3600)
	fq2, _ := fastParse(t, dnswire.NewQuery(2, "gone.example.", dnswire.TypeA))
	if _, _, ok := c2.ServeWire(nil, &fq2, nil, 0); ok {
		t.Error("entry served past the stale window")
	}
}

// TestServeStaleSurvivesFailedRefresh checks a refresh that errors leaves
// the stale entry answerable — the availability property RFC 8767 exists
// for: the upstream is down, and the cache keeps answering.
func TestServeStaleSurvivesFailedRefresh(t *testing.T) {
	clock := newTickClock(3000)
	up := &countingUpstream{ttl: 60}
	c := New(up, WithServeStale(time.Hour), withClock(clock.now))
	defer c.Close()
	if _, err := c.Exchange(context.Background(), dnswire.NewQuery(1, "down.example.", dnswire.TypeA)); err != nil {
		t.Fatal(err)
	}
	clock.set(3100)
	up.fail = true
	if _, err := c.Exchange(context.Background(), dnswire.NewQuery(2, "down.example.", dnswire.TypeA)); err != nil {
		t.Fatalf("stale hit with dead upstream: %v", err)
	}
	waitUntil(t, "failed refresh to finish", func() bool { return up.calls.Load() == 2 })
	// Still answerable afterwards; another stale hit, another refresh try.
	if _, err := c.Exchange(context.Background(), dnswire.NewQuery(3, "down.example.", dnswire.TypeA)); err != nil {
		t.Fatalf("stale hit after failed refresh: %v", err)
	}
	if s := c.Stats(); s.StaleHits != 2 {
		t.Errorf("stale hits = %d, want 2", s.StaleHits)
	}
}

// TestPrefetchRefreshesHotNamesNearExpiry checks the near-expiry prefetch:
// a name hit at least twice gets one background refresh when a hit lands
// inside the prefetch window, so a later query finds it fresh without ever
// missing.
func TestPrefetchRefreshesHotNamesNearExpiry(t *testing.T) {
	clock := newTickClock(4000)
	up := &countingUpstream{ttl: 60}
	c := New(up, WithPrefetch(10*time.Second), withClock(clock.now))
	defer c.Close()
	hit := func(id uint16) {
		t.Helper()
		if _, err := c.Exchange(context.Background(), dnswire.NewQuery(id, "hot.example.", dnswire.TypeA)); err != nil {
			t.Fatal(err)
		}
	}
	hit(1)          // miss, insert (expires 4060)
	hit(2)          // hit far from expiry: no prefetch
	clock.set(4055) // 5s of TTL left, inside the 10s window
	hit(3)          // hot + near expiry → prefetch fires
	waitUntil(t, "prefetch refresh", func() bool { return up.calls.Load() == 2 })
	waitUntil(t, "refreshed entry", func() bool {
		resp, err := c.Exchange(context.Background(), dnswire.NewQuery(9, "hot.example.", dnswire.TypeA))
		return err == nil && resp.Answers[0].TTL > 5
	})
	// After the refresh the entry expires at 4115: a query at 4070 — past
	// the original expiry — is a fresh hit, never a miss.
	clock.set(4070)
	hit(4)
	if got := up.calls.Load(); got != 2 {
		t.Errorf("upstream calls = %d, want 2 (prefetch absorbed the would-be miss)", got)
	}
	s := c.Stats()
	if s.Prefetches != 1 || s.Refreshes != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v, want exactly one prefetch refresh and no second miss", s)
	}
}

// TestPrefetchWirePath checks the zero-alloc path triggers the same
// prefetch: two wire hits heat the entry, a third inside the window
// refreshes it.
func TestPrefetchWirePath(t *testing.T) {
	clock := newTickClock(5000)
	up := &countingUpstream{ttl: 60}
	c := New(up, WithPrefetch(10*time.Second), withClock(clock.now))
	defer c.Close()
	if _, err := c.Exchange(context.Background(), dnswire.NewQuery(1, "hw.example.", dnswire.TypeA)); err != nil {
		t.Fatal(err)
	}
	fq, _ := fastParse(t, dnswire.NewQuery(2, "hw.example.", dnswire.TypeA))
	for i := 0; i < 2; i++ { // heat the entry
		if _, _, ok := c.ServeWire(nil, &fq, nil, 0); !ok {
			t.Fatal("hit lost")
		}
	}
	clock.set(5055)
	if _, outcome, ok := c.ServeWire(nil, &fq, nil, 0); !ok || outcome != telemetry.CacheHit {
		t.Fatalf("near-expiry hit = %v ok=%v, want fresh hit", outcome, ok)
	}
	waitUntil(t, "wire prefetch", func() bool { return up.calls.Load() == 2 })
	if s := c.Stats(); s.Prefetches != 1 {
		t.Errorf("prefetches = %d, want 1", s.Prefetches)
	}
}

// TestNegativeEntriesNotPrefetched pins the gate: NXDOMAIN entries serve
// stale but never prefetch (refreshing a name that does not exist buys
// nothing).
func TestNegativeEntriesNotPrefetched(t *testing.T) {
	clock := newTickClock(6000)
	up := &countingUpstream{rcode: dnswire.RCodeNameError, authority: []dnswire.ResourceRecord{{
		Name: "example.", Class: dnswire.ClassINET, TTL: 600,
		Data: &dnswire.SOA{MName: "ns.example.", RName: "root.example.", Minimum: 30},
	}}}
	c := New(up, WithPrefetch(time.Minute), withClock(clock.now))
	defer c.Close()
	for i := 0; i < 4; i++ {
		if _, err := c.Exchange(context.Background(), dnswire.NewQuery(uint16(i), "nx.example.", dnswire.TypeA)); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	if got := up.calls.Load(); got != 1 {
		t.Errorf("upstream calls = %d, want 1 (negative entries must not prefetch)", got)
	}
	if s := c.Stats(); s.Prefetches != 0 {
		t.Errorf("prefetches = %d, want 0", s.Prefetches)
	}
}

// TestPrefetchSkipsShortTTLEntries pins the amplification gate: a hot
// name whose entire TTL fits inside the prefetch window must never
// prefetch — "near expiry" is always true for it, and refreshing every
// couple of hits would multiply upstream traffic instead of saving it.
func TestPrefetchSkipsShortTTLEntries(t *testing.T) {
	clock := newTickClock(7000)
	up := &countingUpstream{ttl: 5} // 5s TTL ≤ the 10s window
	c := New(up, WithPrefetch(10*time.Second), withClock(clock.now))
	defer c.Close()
	for i := 0; i < 6; i++ { // hot by any measure, always inside the window
		if _, err := c.Exchange(context.Background(), dnswire.NewQuery(uint16(i), "short.example.", dnswire.TypeA)); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	if got := up.calls.Load(); got != 1 {
		t.Errorf("upstream calls = %d, want 1 (short-TTL entries must not prefetch)", got)
	}
	if s := c.Stats(); s.Prefetches != 0 {
		t.Errorf("prefetches = %d, want 0", s.Prefetches)
	}
}
