package dnscache

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dohcost/internal/dnstransport"
	"dohcost/internal/dnswire"
)

// countingUpstream answers with a fixed TTL and counts exchanges.
type countingUpstream struct {
	calls     atomic.Int64
	ttl       uint32
	rcode     dnswire.RCode
	delay     time.Duration
	fail      bool
	noAnswer  bool                     // NODATA: NOERROR with empty answer section
	authority []dnswire.ResourceRecord // appended to every response
}

func (u *countingUpstream) Exchange(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	u.calls.Add(1)
	if u.delay > 0 {
		select {
		case <-time.After(u.delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if u.fail {
		return nil, errors.New("synthetic upstream failure")
	}
	r := q.Reply()
	r.RCode = u.rcode
	if u.rcode == dnswire.RCodeSuccess && !u.noAnswer {
		r.Answers = append(r.Answers, dnswire.ResourceRecord{
			Name: q.Question1().Name, Class: dnswire.ClassINET, TTL: u.ttl,
			Data: &dnswire.TXT{Strings: []string{"cached?"}},
		})
	}
	r.Authorities = append(r.Authorities, u.authority...)
	return r, nil
}

func (u *countingUpstream) Close() error { return nil }

func TestCacheHitAvoidsUpstream(t *testing.T) {
	up := &countingUpstream{ttl: 300}
	c := New(up)
	defer c.Close()
	for i := 0; i < 5; i++ {
		resp, err := c.Exchange(context.Background(), dnswire.NewQuery(uint16(i), "hit.example.", dnswire.TypeA))
		if err != nil {
			t.Fatal(err)
		}
		if resp.ID != uint16(i) {
			t.Errorf("response ID = %d, want %d (restamped)", resp.ID, i)
		}
		if len(resp.Answers) != 1 {
			t.Fatalf("answers = %v", resp.Answers)
		}
	}
	if got := up.calls.Load(); got != 1 {
		t.Errorf("upstream calls = %d, want 1", got)
	}
	s := c.Stats()
	if s.Hits != 4 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestCacheKeyIncludesType(t *testing.T) {
	up := &countingUpstream{ttl: 300}
	c := New(up)
	defer c.Close()
	c.Exchange(context.Background(), dnswire.NewQuery(1, "x.example.", dnswire.TypeA))
	c.Exchange(context.Background(), dnswire.NewQuery(2, "x.example.", dnswire.TypeAAAA))
	c.Exchange(context.Background(), dnswire.NewQuery(3, "X.EXAMPLE.", dnswire.TypeA)) // case-folded hit
	if got := up.calls.Load(); got != 2 {
		t.Errorf("upstream calls = %d, want 2 (A and AAAA)", got)
	}
}

func TestCacheExpiry(t *testing.T) {
	now := time.Now()
	clock := func() time.Time { return now }
	up := &countingUpstream{ttl: 10}
	c := New(up, withClock(func() time.Time { return clock() }))
	defer c.Close()

	c.Exchange(context.Background(), dnswire.NewQuery(1, "exp.example.", dnswire.TypeA))
	now = now.Add(5 * time.Second)
	resp, _ := c.Exchange(context.Background(), dnswire.NewQuery(2, "exp.example.", dnswire.TypeA))
	if up.calls.Load() != 1 {
		t.Fatal("entry expired too early")
	}
	// TTL decays with age.
	if resp.Answers[0].TTL != 5 {
		t.Errorf("decayed TTL = %d, want 5", resp.Answers[0].TTL)
	}
	now = now.Add(6 * time.Second) // past the 10s TTL
	c.Exchange(context.Background(), dnswire.NewQuery(3, "exp.example.", dnswire.TypeA))
	if up.calls.Load() != 2 {
		t.Error("expired entry served")
	}
}

// TestTTLClamping caps week-long records at the default 24 hours and at
// WithMaxTTL's hour: the answer carries the capped TTL, and the entry
// expires when the cap says, not when the record does.
func TestTTLClamping(t *testing.T) {
	for _, tt := range []struct {
		opts []Option
		cap  time.Duration
	}{
		{nil, 24 * time.Hour},
		{[]Option{WithMaxTTL(time.Hour)}, time.Hour},
	} {
		now := time.Now()
		up := &countingUpstream{ttl: 7 * 24 * 3600}
		c := New(up, append(tt.opts, withClock(func() time.Time { return now }))...)
		if _, err := c.Exchange(context.Background(), dnswire.NewQuery(1, "clamp.example.", dnswire.TypeA)); err != nil {
			t.Fatal(err)
		}
		now = now.Add(tt.cap - time.Second)
		resp, err := c.Exchange(context.Background(), dnswire.NewQuery(2, "clamp.example.", dnswire.TypeA))
		if err != nil {
			t.Fatal(err)
		}
		if up.calls.Load() != 1 || resp.Answers[0].TTL != 1 {
			t.Errorf("cap %v: %d upstream calls, TTL %d a second before the cap; want 1 and 1", tt.cap, up.calls.Load(), resp.Answers[0].TTL)
		}
		now = now.Add(2 * time.Second)
		c.Exchange(context.Background(), dnswire.NewQuery(3, "clamp.example.", dnswire.TypeA))
		if up.calls.Load() != 2 {
			t.Errorf("cap %v: entry outlived the cap", tt.cap)
		}
	}
}

// entryCost is what one answer from up to name costs a cache's budget.
func entryCost(up dnstransport.Resolver, name dnswire.Name) int64 {
	c := New(up)
	c.Exchange(context.Background(), dnswire.NewQuery(1, name, dnswire.TypeA))
	return c.BytesLive()
}

func TestLRUEviction(t *testing.T) {
	up := &countingUpstream{ttl: 300}
	// One shard: the budget is exact and eviction order is pure LRU.
	c := New(up, WithMemoryBudget(3*entryCost(&countingUpstream{ttl: 300}, "n0.example.")), WithShards(1))
	defer c.Close()
	for i := 0; i < 5; i++ {
		c.Exchange(context.Background(), dnswire.NewQuery(1, dnswire.Name(fmt.Sprintf("n%d.example.", i)), dnswire.TypeA))
	}
	if c.Len() != 3 {
		t.Errorf("entries = %d, want 3", c.Len())
	}
	if s := c.Stats(); s.Evictions != 2 {
		t.Errorf("evictions = %d, want 2", s.Evictions)
	}
	// Oldest (n0, n1) evicted; n4 hot.
	c.Exchange(context.Background(), dnswire.NewQuery(2, "n4.example.", dnswire.TypeA))
	before := up.calls.Load()
	c.Exchange(context.Background(), dnswire.NewQuery(3, "n0.example.", dnswire.TypeA))
	if up.calls.Load() != before+1 {
		t.Error("evicted entry still served")
	}
}

func TestNegativeCaching(t *testing.T) {
	up := &countingUpstream{rcode: dnswire.RCodeNameError}
	c := New(up)
	defer c.Close()
	for i := 0; i < 3; i++ {
		resp, err := c.Exchange(context.Background(), dnswire.NewQuery(uint16(i), "nx.example.", dnswire.TypeA))
		if err != nil {
			t.Fatal(err)
		}
		if resp.RCode != dnswire.RCodeNameError {
			t.Errorf("rcode = %v", resp.RCode)
		}
	}
	if up.calls.Load() != 1 {
		t.Errorf("NXDOMAIN not negatively cached: %d upstream calls", up.calls.Load())
	}
}

func TestErrorsNotCached(t *testing.T) {
	up := &countingUpstream{fail: true}
	c := New(up)
	defer c.Close()
	for i := 0; i < 3; i++ {
		if _, err := c.Exchange(context.Background(), dnswire.NewQuery(uint16(i), "err.example.", dnswire.TypeA)); err == nil {
			t.Fatal("error swallowed")
		}
	}
	if up.calls.Load() != 3 {
		t.Errorf("failures cached: %d upstream calls", up.calls.Load())
	}
}

func TestSingleflightCoalescing(t *testing.T) {
	up := &countingUpstream{ttl: 300, delay: 50 * time.Millisecond}
	c := New(up)
	defer c.Close()
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := c.Exchange(context.Background(), dnswire.NewQuery(uint16(i), "co.example.", dnswire.TypeA))
			if err != nil || len(resp.Answers) != 1 {
				t.Errorf("coalesced query %d: %v %v", i, resp, err)
			}
		}(i)
	}
	wg.Wait()
	if got := up.calls.Load(); got != 1 {
		t.Errorf("upstream calls = %d, want 1 (singleflight)", got)
	}
	if s := c.Stats(); s.Coalesced != 9 {
		t.Errorf("coalesced = %d, want 9", s.Coalesced)
	}
}

func TestFlushEmptiesCache(t *testing.T) {
	up := &countingUpstream{ttl: 300}
	c := New(up)
	defer c.Close()
	c.Exchange(context.Background(), dnswire.NewQuery(1, "f.example.", dnswire.TypeA))
	c.Flush()
	if c.Len() != 0 {
		t.Error("flush left entries")
	}
	c.Exchange(context.Background(), dnswire.NewQuery(2, "f.example.", dnswire.TypeA))
	if up.calls.Load() != 2 {
		t.Error("flush did not force a refetch")
	}
}

// TestFlightSurvivesLeaderCancellation pins the singleflight contract under
// per-connection contexts: the client that starts a flight disconnecting
// mid-exchange must not fail the coalesced waiters on healthy connections.
func TestFlightSurvivesLeaderCancellation(t *testing.T) {
	up := &countingUpstream{ttl: 300, delay: 80 * time.Millisecond}
	c := New(up)
	defer c.Close()

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		_, err := c.Exchange(leaderCtx, dnswire.NewQuery(1, "flight.example.", dnswire.TypeA))
		leaderDone <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the leader start the flight

	followerDone := make(chan error, 1)
	go func() {
		resp, err := c.Exchange(context.Background(), dnswire.NewQuery(2, "flight.example.", dnswire.TypeA))
		if err == nil && len(resp.Answers) != 1 {
			err = fmt.Errorf("follower answers = %v", resp.Answers)
		}
		followerDone <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the follower coalesce
	cancelLeader()

	if err := <-followerDone; err != nil {
		t.Errorf("follower poisoned by leader's disconnect: %v", err)
	}
	<-leaderDone
	if got := up.calls.Load(); got != 1 {
		t.Errorf("upstream calls = %d, want 1", got)
	}
}

// TestUpstreamKeepsCallerDeadline: detaching the flight from the leader's
// cancellation must not detach it from the leader's deadline.
func TestUpstreamKeepsCallerDeadline(t *testing.T) {
	up := &countingUpstream{ttl: 300, delay: time.Minute}
	c := New(up)
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := c.Exchange(ctx, dnswire.NewQuery(1, "dl.example.", dnswire.TypeA)); err == nil {
		t.Fatal("minute-long upstream exchange beat a 30ms deadline")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("deadline not propagated to the upstream exchange")
	}
}

// TestSmallBoundShrinksShardCount fills a cache whose budget, split 16
// ways, would leave every shard too little for real entries: it runs on
// fewer shards and holds its budget.
func TestSmallBoundShrinksShardCount(t *testing.T) {
	up := &countingUpstream{ttl: 300}
	c := New(up, WithMemoryBudget(4*minShardBudget))
	defer c.Close()
	if c.Shards() != 4 {
		t.Errorf("shards = %d, want 4 (shrunk so each holds minShardBudget)", c.Shards())
	}
	for i := 0; i < 200; i++ {
		c.Exchange(context.Background(), dnswire.NewQuery(1, dnswire.Name(fmt.Sprintf("b%d.example.", i)), dnswire.TypeA))
	}
	if s := c.Stats(); s.Evictions == 0 || c.BytesLive() > 4*minShardBudget {
		t.Errorf("%d B live after %d evictions, want evictions and at most %d B", c.BytesLive(), s.Evictions, 4*minShardBudget)
	}
	checkBudgetInvariants(t, c)
}

// TestShardCountRoundsToPowerOfTwo also holds a shard count past MaxShards —
// one whose rounding would overflow int — to the cap.
func TestShardCountRoundsToPowerOfTwo(t *testing.T) {
	up := &countingUpstream{ttl: 300}
	big := WithMemoryBudget(MaxShards * minShardBudget)
	for _, tt := range []struct {
		ask  int
		want int
		opts []Option
	}{
		{1, 1, nil}, {2, 2, nil}, {3, 4, nil}, {16, 16, nil}, {17, 32, nil},
		{MaxShards + 1, MaxShards, []Option{big}}, {math.MaxInt, MaxShards, []Option{big}},
	} {
		c := New(up, append(tt.opts, WithShards(tt.ask))...)
		if c.Shards() != tt.want {
			t.Errorf("WithShards(%d) → %d shards, want %d", tt.ask, c.Shards(), tt.want)
		}
	}
}

// TestShardedConcurrentMixedLoad hammers the default sharded cache with a
// mix of hot names (hits), unique names (misses) and simultaneous identical
// queries (coalescing) and checks the aggregated accounting; run under
// -race it also proves the per-shard locking sound.
func TestShardedConcurrentMixedLoad(t *testing.T) {
	up := &countingUpstream{ttl: 300, delay: time.Millisecond}
	c := New(up)
	defer c.Close()

	const workers = 16
	const perWorker = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				var name string
				switch i % 3 {
				case 0: // hot set shared by all workers: hits + coalescing
					name = fmt.Sprintf("hot%d.example.", i%5)
				case 1: // per-worker names: misses then hits
					name = fmt.Sprintf("w%d-n%d.example.", w, i%10)
				default: // unique names: pure misses
					name = fmt.Sprintf("uniq-w%d-i%d.example.", w, i)
				}
				resp, err := c.Exchange(context.Background(), dnswire.NewQuery(uint16(i), dnswire.Name(name), dnswire.TypeA))
				if err != nil {
					t.Errorf("worker %d query %d: %v", w, i, err)
					return
				}
				if len(resp.Answers) != 1 {
					t.Errorf("worker %d query %d: answers = %v", w, i, resp.Answers)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	s := c.Stats()
	total := s.Hits + s.Misses + s.Coalesced
	if total != workers*perWorker {
		t.Errorf("accounted %d queries, want %d (stats %+v)", total, workers*perWorker, s)
	}
	if got := up.calls.Load(); got != s.Misses {
		t.Errorf("upstream calls = %d, want %d (one per miss)", got, s.Misses)
	}
	if s.Hits == 0 || s.Misses == 0 {
		t.Errorf("load not mixed: %+v", s)
	}
}

func TestNegativeTTLFromSOAMinimum(t *testing.T) {
	now := time.Now()
	soa := dnswire.ResourceRecord{
		Name: "example.", Class: dnswire.ClassINET, TTL: 3600,
		Data: &dnswire.SOA{MName: "ns.example.", RName: "admin.example.", Minimum: 60},
	}
	up := &countingUpstream{rcode: dnswire.RCodeNameError, authority: []dnswire.ResourceRecord{soa}}
	c := New(up,
		withClock(func() time.Time { return now }),
		withNegativeTTL(10*time.Minute)) // lift the cap: the SOA decides
	defer c.Close()

	c.Exchange(context.Background(), dnswire.NewQuery(1, "nx.example.", dnswire.TypeA))
	// RFC 2308: TTL = min(SOA RR TTL, SOA MINIMUM) = 60s, not the RR's 3600.
	now = now.Add(59 * time.Second)
	c.Exchange(context.Background(), dnswire.NewQuery(2, "nx.example.", dnswire.TypeA))
	if up.calls.Load() != 1 {
		t.Fatalf("negative entry expired before SOA minimum: %d upstream calls", up.calls.Load())
	}
	now = now.Add(2 * time.Second) // past 60s
	c.Exchange(context.Background(), dnswire.NewQuery(3, "nx.example.", dnswire.TypeA))
	if up.calls.Load() != 2 {
		t.Errorf("negative entry outlived SOA minimum: %d upstream calls", up.calls.Load())
	}
}

func TestNegativeTTLNodataAndCap(t *testing.T) {
	now := time.Now()
	soa := dnswire.ResourceRecord{
		Name: "example.", Class: dnswire.ClassINET, TTL: 86400,
		Data: &dnswire.SOA{MName: "ns.example.", RName: "admin.example.", Minimum: 86400},
	}
	// NODATA (NOERROR, no answers) with a huge SOA: the configured negative
	// ceiling caps it.
	up := &countingUpstream{noAnswer: true, authority: []dnswire.ResourceRecord{soa}}
	c := New(up,
		withClock(func() time.Time { return now }),
		withNegativeTTL(30*time.Second))
	defer c.Close()

	c.Exchange(context.Background(), dnswire.NewQuery(1, "nodata.example.", dnswire.TypeTXT))
	now = now.Add(29 * time.Second)
	c.Exchange(context.Background(), dnswire.NewQuery(2, "nodata.example.", dnswire.TypeTXT))
	if up.calls.Load() != 1 {
		t.Fatal("NODATA not cached")
	}
	now = now.Add(2 * time.Second)
	c.Exchange(context.Background(), dnswire.NewQuery(3, "nodata.example.", dnswire.TypeTXT))
	if up.calls.Load() != 2 {
		t.Error("NODATA outlived the negative-TTL cap")
	}
}

// TestEvictionAccountingAcrossShards fills a bounded sharded cache far past
// capacity and checks the books balance: every miss either lives in some
// shard or was evicted from one.
func TestEvictionAccountingAcrossShards(t *testing.T) {
	up := &countingUpstream{ttl: 300}
	const budget = 16 * minShardBudget // some 250 entries
	c := New(up, WithMemoryBudget(budget), WithShards(16))
	defer c.Close()
	if c.Shards() != 16 {
		t.Fatalf("shards = %d, want 16", c.Shards())
	}
	const inserts = 1000
	for i := 0; i < inserts; i++ {
		c.Exchange(context.Background(), dnswire.NewQuery(1, dnswire.Name(fmt.Sprintf("evict%d.example.", i)), dnswire.TypeA))
	}
	s := c.Stats()
	if s.Misses != inserts {
		t.Fatalf("misses = %d, want %d", s.Misses, inserts)
	}
	if c.BytesLive() > budget {
		t.Errorf("%d B live, exceeds the budget %d B", c.BytesLive(), budget)
	}
	if s.Evictions == 0 {
		t.Errorf("no evictions recorded despite %d inserts into %d B", inserts, budget)
	}
	if int64(c.Len())+s.Evictions != s.Misses {
		t.Errorf("accounting broken: live %d + evicted %d != inserted %d", c.Len(), s.Evictions, s.Misses)
	}
}

func TestCachedResponseIsACopy(t *testing.T) {
	up := &countingUpstream{ttl: 300}
	c := New(up)
	defer c.Close()
	r1, _ := c.Exchange(context.Background(), dnswire.NewQuery(1, "cp.example.", dnswire.TypeA))
	r1.Answers[0].TTL = 9999 // mutate the caller's copy
	r2, _ := c.Exchange(context.Background(), dnswire.NewQuery(2, "cp.example.", dnswire.TypeA))
	if r2.Answers[0].TTL == 9999 {
		t.Error("cache shares answer slices with callers")
	}
}
