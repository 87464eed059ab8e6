package dnscache

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"dohcost/internal/dnswire"
)

// sizedUpstream answers TXT records whose padding varies deterministically
// with the query name, so byte-budget tests see realistic size spread.
type sizedUpstream struct {
	calls atomic.Int64
	ttl   uint32
}

func (u *sizedUpstream) Exchange(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	u.calls.Add(1)
	r := q.Reply()
	name := string(q.Question1().Name)
	pad := 10 + (len(name)*37+int(name[0]))%180
	txt := make([]byte, pad)
	for i := range txt {
		txt[i] = 'x'
	}
	r.Answers = append(r.Answers, dnswire.ResourceRecord{
		Name: q.Question1().Name, Class: dnswire.ClassINET, TTL: u.ttl,
		Data: &dnswire.TXT{Strings: []string{string(txt)}},
	})
	return r, nil
}

func (u *sizedUpstream) Close() error { return nil }

// checkBudgetInvariants locks every shard and compares the incremental
// accounting against a shadow recount of the live records: shard byte
// totals, arena-block totals and the budget ceiling, and —
// checkTables — that the index, the LRU ring and the free list agree on
// which records are live. This is the property that catches leak-on-replace
// and stale-refresh double-count bugs.
func checkBudgetInvariants(t testing.TB, c *Cache) {
	t.Helper()
	for i, sh := range c.shards {
		sh.mu.Lock()
		var bytes int64
		wireBytes := 0
		for _, ri := range checkTables(t, sh) {
			r := &sh.recs[ri]
			bytes += int64(entryOverhead + r.size())
			wireBytes += r.size()
		}
		if sh.bytes != bytes {
			t.Errorf("shard %d: accounted %d B, shadow recount %d B (%d entries)",
				i, sh.bytes, bytes, sh.n)
		}
		if sh.wireBytes != wireBytes {
			t.Errorf("shard %d: wireBytes %d, shadow recount %d", i, sh.wireBytes, wireBytes)
		}
		if sh.bytes > sh.budget {
			t.Errorf("shard %d: %d B live exceeds budget %d B", i, sh.bytes, sh.budget)
		}
		sh.mu.Unlock()
	}
}

// drainFlights waits for every in-flight background exchange to settle, so
// invariant checks see a quiescent cache.
func drainFlights(c *Cache) {
	for {
		n := 0
		for _, sh := range c.shards {
			sh.mu.Lock()
			n += len(sh.flights)
			sh.mu.Unlock()
		}
		if n == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMemoryBudgetInvariant runs a seeded property sequence — inserts of
// new names, hot hits, clock jumps over expiry and the stale window,
// serve-stale refreshes, wire-path hits — against a byte-budgeted TinyLFU
// cache with tiny arena slabs (frequent rotations), checking after every
// few operations that the incremental accounting exactly matches a shadow
// recount and never exceeds the budget.
func TestMemoryBudgetInvariant(t *testing.T) {
	var clock atomic.Int64
	clock.Store(time.Unix(5000, 0).UnixNano())
	up := &sizedUpstream{ttl: 60}
	c := New(up,
		withClock(func() time.Time { return time.Unix(0, clock.Load()) }),
		WithMemoryBudget(16<<10),
		WithShards(4),
		WithServeStale(30*time.Second),
		WithTinyLFU(),
		withArenaSlab(1<<10),
	)
	defer c.Close()

	rng := rand.New(rand.NewSource(42))
	ctx := context.Background()
	for i := 0; i < 3000; i++ {
		switch op := rng.Intn(10); {
		case op < 4: // fresh name: insert, evict or admission-reject
			name := dnswire.Name(fmt.Sprintf("new%d.budget.example.", rng.Intn(2000)))
			if _, err := c.Exchange(ctx, dnswire.NewQuery(uint16(i), name, dnswire.TypeA)); err != nil {
				t.Fatal(err)
			}
		case op < 7: // hot name: hit, stale hit, or refresh insert
			name := dnswire.Name(fmt.Sprintf("hot%d.budget.example.", rng.Intn(8)))
			if _, err := c.Exchange(ctx, dnswire.NewQuery(uint16(i), name, dnswire.TypeA)); err != nil {
				t.Fatal(err)
			}
		case op < 9: // wire-path hit on a hot name
			name := dnswire.Name(fmt.Sprintf("hot%d.budget.example.", rng.Intn(8)))
			fq, _ := fastParse(t, dnswire.NewQuery(uint16(i), name, dnswire.TypeA))
			c.ServeWire(nil, &fq, nil, 0)
		default: // age the cache: into and past TTL and stale window
			clock.Add(int64(time.Duration(10+rng.Intn(80)) * time.Second))
		}
		if i%50 == 0 {
			drainFlights(c)
			checkBudgetInvariants(t, c)
		}
	}
	drainFlights(c)
	checkBudgetInvariants(t, c)

	s := c.Stats()
	if s.BytesLive > c.MemoryBudget() {
		t.Errorf("BytesLive %d exceeds budget %d", s.BytesLive, c.MemoryBudget())
	}
	if s.BytesLive != c.BytesLive() {
		t.Errorf("Stats().BytesLive %d != BytesLive() %d", s.BytesLive, c.BytesLive())
	}
	if s.ArenaEpochs == 0 {
		t.Error("no arena rotations despite 1KiB slabs — the sequence never exercised compaction")
	}
}

// TestMemoryBudgetLiftsCountBound: WithMemoryBudget replaces the default
// budget, whose 4 096 typical entries it must not silently keep on top.
func TestMemoryBudgetLiftsCountBound(t *testing.T) {
	up := &sizedUpstream{ttl: 300}
	c := New(up, WithMemoryBudget(64<<20), WithShards(1))
	defer c.Close()
	for i := 0; i < 5000; i++ {
		c.Exchange(context.Background(), dnswire.NewQuery(1, dnswire.Name(fmt.Sprintf("l%d.example.", i)), dnswire.TypeA))
	}
	if c.Len() != 5000 {
		t.Errorf("entries = %d, want 5000 (the default budget must be lifted under a roomy one)", c.Len())
	}
	if s := c.Stats(); s.Evictions != 0 {
		t.Errorf("evictions = %d, want 0", s.Evictions)
	}
}

// TestSmallBudgetShrinksShardCount: a budget too small to split 16 ways
// runs on as many shards as hold minShardBudget each.
func TestSmallBudgetShrinksShardCount(t *testing.T) {
	up := &sizedUpstream{ttl: 300}
	c := New(up, WithMemoryBudget(4<<10)) // 16 shards would leave 256 B each
	defer c.Close()
	if c.Shards() != 2 {
		t.Errorf("shards = %d, want 2 (4KiB budget / 2KiB min per shard)", c.Shards())
	}
}

// TestOversizedEntryNotCached: an answer larger than a whole shard's
// budget is refused (and counted), not inserted over budget.
func TestOversizedEntryNotCached(t *testing.T) {
	up := &sizedUpstream{ttl: 300}
	small := New(up, WithMemoryBudget(minShardBudget), WithShards(1), withArenaSlab(minSlabSize))
	defer small.Close()
	// Drive insertLocked directly with a payload bigger than the whole
	// shard's budget — no upstream answers at that size here, but operators
	// can configure budgets smaller than a worst-case DNSSEC answer.
	sh := small.shards[0]
	sh.mu.Lock()
	rejected := small.insertLocked(sh, []byte("\x05giant\x07example\x00\x00\x01\x00\x01"), 1, make([]byte, int(sh.budget)+1), nil, &dnswire.ResponseScan{})
	sh.mu.Unlock()
	if !rejected {
		t.Fatal("entry larger than the shard budget was admitted")
	}
	if small.Len() != 0 {
		t.Errorf("oversized entry cached: %d entries", small.Len())
	}
	if s := small.Stats(); s.AdmissionRejects != 1 {
		t.Errorf("admission rejects = %d, want 1", s.AdmissionRejects)
	}
}

// TestTinyLFUProtectsWorkingSet floods a full byte-budgeted cache with
// one-hit wonders and checks the admission filter holds the hot set: the
// hot names stay answerable without new upstream traffic, and the flood is
// counted as admission rejects instead of evictions.
func TestTinyLFUProtectsWorkingSet(t *testing.T) {
	up := &sizedUpstream{ttl: 300}
	c := New(up, WithMemoryBudget(8<<10), WithShards(1), WithTinyLFU())
	defer c.Close()
	ctx := context.Background()

	// Establish a hot working set with real frequency: seventeen sightings
	// saturate every counter a hot name touches (the doorkeeper takes the
	// first, the 4-bit counters stop at fifteen), so whatever the process's
	// hash seed makes collide, a flood name estimates at the ceiling at
	// most, and ties keep the incumbent. The 502 lookups stay under the
	// sketch's aging sample (2 048): nothing is halved on the way.
	hot := make([]dnswire.Name, 6)
	for i := range hot {
		hot[i] = dnswire.Name(fmt.Sprintf("hot%d.tlfu.example.", i))
	}
	for round := 0; round < 17; round++ {
		for _, n := range hot {
			if _, err := c.Exchange(ctx, dnswire.NewQuery(1, n, dnswire.TypeA)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Flood: hundreds of once-asked names against a budget that holds ~20
	// entries.
	for i := 0; i < 400; i++ {
		c.Exchange(ctx, dnswire.NewQuery(1, dnswire.Name(fmt.Sprintf("flood%d.tlfu.example.", i)), dnswire.TypeA))
	}

	before := up.calls.Load()
	for _, n := range hot {
		if _, err := c.Exchange(ctx, dnswire.NewQuery(2, n, dnswire.TypeA)); err != nil {
			t.Fatal(err)
		}
	}
	if got := up.calls.Load(); got != before {
		t.Errorf("hot set lost to the flood: %d upstream refetches", got-before)
	}
	if s := c.Stats(); s.AdmissionRejects == 0 {
		t.Errorf("flood admitted freely: %+v", s)
	}
	checkBudgetInvariants(t, c)
}

// TestRefreshReplaceKeepsAccounting drives the serve-stale refresh path —
// the replace-an-existing-entry insert — and checks the replacement
// neither double-counts nor rejects the refreshed entry.
func TestRefreshReplaceKeepsAccounting(t *testing.T) {
	var clock atomic.Int64
	clock.Store(time.Unix(7000, 0).UnixNano())
	up := &sizedUpstream{ttl: 10}
	c := New(up,
		withClock(func() time.Time { return time.Unix(0, clock.Load()) }),
		WithMemoryBudget(8<<10),
		WithShards(1),
		WithTinyLFU(),
		WithServeStale(time.Minute),
	)
	defer c.Close()
	ctx := context.Background()

	if _, err := c.Exchange(ctx, dnswire.NewQuery(1, "stale.example.", dnswire.TypeA)); err != nil {
		t.Fatal(err)
	}
	clock.Add(int64(20 * time.Second)) // expired, within the stale window
	if _, err := c.Exchange(ctx, dnswire.NewQuery(2, "stale.example.", dnswire.TypeA)); err != nil {
		t.Fatal(err)
	}
	drainFlights(c)
	s := c.Stats()
	if s.StaleHits != 1 || s.Refreshes != 1 {
		t.Fatalf("stale refresh not exercised: %+v", s)
	}
	if s.AdmissionRejects != 0 {
		t.Errorf("refresh replacement rejected by admission: %+v", s)
	}
	if c.Len() != 1 {
		t.Errorf("entries = %d, want 1 (refresh replaces in place)", c.Len())
	}
	checkBudgetInvariants(t, c)
}

// TestFootprintMatchesBudget proves the budget's density in resident bytes,
// not accounted ones: a budgeted TinyLFU cache is filled past capacity with
// distinct names of the benchmark's Zipf shape and one-address answers, and
// after a forced collection the heap may have grown by no more than the
// pointer-and-map layout's own ratio to the budget (it grew 5.07 MB under a
// 4 MiB budget, 71.6 MB under 64 MiB) while holding at least 2.4 times the
// entries that layout held (14 560 and 233 008): 35 840 and 573 568 since an
// entry's key is its reply's question, 29 120 and 466 032 when it was
// stored apart. Lowering entryOverhead without shrinking what an entry
// really occupies admits more entries than the bytes allow, and fails the
// first bound; an entry that grows again fails the second.
func TestFootprintMatchesBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory is not the cache's footprint")
	}
	for _, tt := range []struct {
		budget     int64
		growth     float64
		minEntries int
	}{
		{4 << 20, 1.21, 35000},
		{64 << 20, 1.07, 560000},
	} {
		t.Run(fmt.Sprintf("%dMiB", tt.budget>>20), func(t *testing.T) {
			if testing.Short() && tt.budget > 4<<20 {
				t.Skip("fills 64 MiB")
			}
			c := New(replyUpstream{}, WithMemoryBudget(tt.budget), WithTinyLFU())
			defer c.Close()
			// From here on the heap grows by what entries occupy; the admission
			// sketch, sized once in New, is outside the budget (docs/CACHE.md).
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			ctx := context.Background()
			for i := 0; i < int(tt.budget/100); i++ { // a third more names than fit
				name := dnswire.Name(fmt.Sprintf("z%08d.zipf.example.", i))
				if _, err := c.Exchange(ctx, dnswire.NewQuery(1, name, dnswire.TypeA)); err != nil {
					t.Fatal(err)
				}
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			grown := float64(after.HeapAlloc) - float64(before.HeapAlloc)
			t.Logf("%d entries, %d B accounted, heap grew %.0f B: %.3f of the budget, %.1f B an entry",
				c.Len(), c.BytesLive(), grown, grown/float64(tt.budget), grown/float64(c.Len()))
			if grown > tt.growth*float64(tt.budget) {
				t.Errorf("heap grew %.0f B filling a %d B budget, want at most %.2f of it", grown, tt.budget, tt.growth)
			}
			if c.Len() < tt.minEntries {
				t.Errorf("%d entries in %d B, want at least %d", c.Len(), tt.budget, tt.minEntries)
			}
			runtime.KeepAlive(c)
		})
	}
}

func TestParseByteSize(t *testing.T) {
	good := []struct {
		in   string
		want int64
	}{
		{"0", 0}, {"123", 123}, {"1k", 1 << 10}, {"8K", 8 << 10},
		{"64m", 64 << 20}, {"2M", 2 << 20}, {"1g", 1 << 30}, {"3G", 3 << 30},
		{"8589934591g", 8589934591 << 30}, // the largest g count whose product still fits int64
	}
	for _, tt := range good {
		got, err := ParseByteSize(tt.in)
		if err != nil || got != tt.want {
			t.Errorf("ParseByteSize(%q) = %d, %v; want %d", tt.in, got, err, tt.want)
		}
	}
	for _, in := range []string{"", "k", "-1", "-4m", "8x", "1.5m", "8mm", "9999999999g", "9223372036854775808"} {
		if v, err := ParseByteSize(in); err == nil {
			t.Errorf("ParseByteSize(%q) = %d, want error", in, v)
		}
	}
}

// TestDefaultCache pins the cache New builds with no options: the
// documented default budget, 16 shards, LRU without a sketch, and a 9 216 B
// arena slab per shard — a quarter of each shard's 36 KiB share. These are
// the numbers the 4 096-entry bound it replaced produced.
func TestDefaultCache(t *testing.T) {
	c := New(replyUpstream{})
	if got, want := c.MemoryBudget(), int64(576<<10); got != want || defaultBudget != want {
		t.Errorf("MemoryBudget() = %d, defaultBudget %d; want %d", got, defaultBudget, want)
	}
	if c.Shards() != 16 {
		t.Errorf("shards = %d, want 16", c.Shards())
	}
	for i, sh := range c.shards {
		if sh.sk != nil || sh.arena.slabSize != 9216 || sh.budget != 36<<10 {
			t.Errorf("shard %d: sketch %v, slab %d B, budget %d B; want none, 9216 and %d", i, sh.sk != nil, sh.arena.slabSize, sh.budget, 36<<10)
		}
	}
}

// TestDefaultSlabFootprint pins what the default cache holds for a handful
// of answers: every shard's arena slab is sized from its share of the
// budget, so 64 names pin at most 512 KiB in all. A fixed 256 KiB slab per
// shard pinned about 4 MB.
func TestDefaultSlabFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory is not the cache's footprint")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := New(replyUpstream{})
	defer c.Close()
	ctx := context.Background()
	for i := 0; i < 64; i++ {
		name := dnswire.Name(fmt.Sprintf("hot%02d.bench.example.", i))
		if _, err := c.Exchange(ctx, dnswire.NewQuery(1, name, dnswire.TypeA)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d entries in %d shards, heap grew %d B", c.Len(), len(c.shards), grown)
	if c.Len() != 64 || len(c.shards) != 16 {
		t.Fatalf("%d entries in %d shards, want 64 in 16", c.Len(), len(c.shards))
	}
	if grown > 512<<10 {
		t.Errorf("the default cache holding 64 names grew the heap by %d B, want at most 512 KiB", grown)
	}
	runtime.KeepAlive(c)
}
