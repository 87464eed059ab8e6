// Package dnscache provides a TTL-respecting, size-bounded cache that wraps
// any Resolver, plus in-flight query coalescing (singleflight): concurrent
// identical queries share one upstream exchange.
//
// The cache is hash-partitioned into shards, each with its own lock, LRU
// list and in-flight table, so the hit path never funnels through a global
// mutex — the property that lets a forwarding proxy serve hot names from
// many connections at full core count. Negative answers (NXDOMAIN and
// NODATA) are cached with the RFC 2308 TTL: the minimum of the authority
// SOA record's TTL and its MINIMUM field.
//
// Entries are stored as packed wire bytes with their TTL field offsets
// recorded at insert time, packed into per-shard append-only arenas so the
// GC sees a handful of large slabs instead of one small allocation per
// entry; when a shard's arena accumulates more dead bytes than live ones,
// it rotates the epoch — live entries are compacted into fresh slabs and
// the retired slabs recycled. A hit is served by copying the stored bytes,
// restamping the transaction ID and decaying the TTLs in place (ServeWire
// — no Unpack, no clone, no Pack), or, for callers that need a
// *dnswire.Message, by unpacking a fresh message that shares nothing with
// the stored entry.
//
// Capacity can be bounded two ways: WithMaxEntries counts entries, while
// WithMemoryBudget accounts bytes — each entry charged its arena block,
// its key and a fixed index overhead — which is the bound that stays
// honest when answer sizes vary. WithTinyLFU adds frequency-gated
// admission on top of either bound: a per-shard count-min sketch (4-bit
// counters, periodic halving, doorkeeper bloom for one-hit wonders)
// estimates every name's lookup frequency, and an insert that would evict
// must beat its victims' frequency to be admitted — the policy that keeps
// a long tail of once-asked names from churning the working set.
//
// Two resilience mechanisms keep hot answers flowing when the upstream is
// slow or down. With WithServeStale, expired entries stay answerable for a
// window past expiry (RFC 8767): a stale hit is served immediately with
// StaleTTL-capped TTLs while exactly one background refresh — singleflight
// with any concurrent misses — re-populates the entry. With WithPrefetch,
// a hit on a hot entry inside the prefetch window triggers the same
// refresh before expiry, so popular names never go cold at all.
//
// The paper deliberately cleared caches between page loads to measure worst
// cases; this package is the production counterpart — and the knob for the
// cache ablation, which shows how quickly a warm cache erases the DoH
// resolution-time penalty (almost 25% of the paper's 2.18M crawl queries
// went to just fifteen names).
package dnscache

import (
	"container/list"
	"context"
	"fmt"
	"hash/maphash"
	"math"
	"strconv"
	"sync"
	"time"

	"dohcost/internal/dnstransport"
	"dohcost/internal/dnswire"
	"dohcost/internal/qtrace"
	"dohcost/internal/telemetry"
)

// keyBufLen bounds a stack-allocated key buffer: a canonical name is at
// most 254 presentation octets, followed by four octets of type and class.
const keyBufLen = 260

// appendKey renders the cache key for (name, qtype, class): the canonical
// name followed by the big-endian type and class. Keys are plain strings so
// the hit path can look them up with a zero-copy []byte→string conversion.
func appendKey(dst []byte, name dnswire.Name, qtype dnswire.Type, class dnswire.Class) []byte {
	return appendKeyTail(append(dst, string(name)...), qtype, class)
}

// appendKeyTail appends the four type/class octets that close a key whose
// name part is already rendered (the wire fast path renders it from the
// packed question directly).
func appendKeyTail(dst []byte, qtype dnswire.Type, class dnswire.Class) []byte {
	return append(dst, byte(qtype>>8), byte(qtype), byte(class>>8), byte(class))
}

// entry is one cached response. Its payload bytes live in the shard's
// arena and are never rewritten in place, but epoch rotation may relocate
// them (wire and toffs are re-pointed at a fresh slab under the shard
// lock), so readers copy the payload out while holding the lock — the copy
// is a few hundred bytes, far cheaper than a second lock round trip. The
// hits counter is likewise guarded by the shard lock.
type entry struct {
	key string
	// hash is the key's maphash, retained so the admission filter can
	// estimate an eviction victim's frequency without rehashing.
	hash uint64
	// wire is the packed response, still carrying the upstream exchange's
	// transaction ID (hits restamp their own copy); toffs is the packed
	// big-endian uint16 list of its TTL offsets (dnswire.PackTTLOffsets)
	// for in-place decay. Both alias one arena block.
	wire  []byte
	toffs []byte
	// cost is the entry's accounted footprint against the memory budget:
	// arena block + key + entryOverhead.
	cost int
	// negative records the RFC 2308 NXDOMAIN/NODATA classification, so the
	// wire hit path can label telemetry without parsing.
	negative bool
	expires  time.Time
	// ttl is the clamped lifetime the entry was inserted with; the
	// prefetch gate compares it against the prefetch window.
	ttl  time.Duration
	elem *list.Element
	// hits counts fresh hits since insertion — the hotness signal the
	// near-expiry prefetch gates on. Guarded by the shard lock.
	hits int
}

// entryOverhead approximates one entry's index cost outside its arena
// block — the entry struct, its list.Element, its share of the shard map's
// buckets and the key's string header — charged against the memory budget
// so the budget tracks resident footprint, not just payload bytes.
const entryOverhead = 192

// Stats counts cache effectiveness, aggregated across shards. The JSON
// tags match the snake_case style of the telemetry snapshot, which
// embeds these counters in the proxy's /debug/cost report.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"` // queries answered by joining an in-flight exchange
	Evictions int64 `json:"evictions"`
	// StaleHits counts expired-but-stale answers served while a background
	// refresh ran (RFC 8767 serve-stale).
	StaleHits int64 `json:"stale_hits"`
	// Prefetches counts near-expiry background refreshes triggered by hits
	// on hot entries; Refreshes counts all background refreshes started
	// (prefetch + serve-stale).
	Prefetches int64 `json:"prefetches"`
	Refreshes  int64 `json:"refreshes"`
	// AdmissionRejects counts insert candidates the TinyLFU filter refused
	// because an eviction victim out-ranked them on estimated frequency
	// (includes entries too large for a whole shard's budget).
	AdmissionRejects int64 `json:"admission_rejects"`
	// BytesLive is the accounted footprint of live entries (arena payload
	// + keys + index overhead) at snapshot time — a gauge, not a counter.
	BytesLive int64 `json:"bytes_live"`
	// ArenaEpochs counts arena epoch rotations: live entries compacted
	// into fresh slabs, retired slabs recycled.
	ArenaEpochs int64 `json:"arena_epochs"`
	// SketchResets counts TinyLFU sketch aging resets (counters halved,
	// doorkeeper cleared).
	SketchResets int64 `json:"sketch_resets"`
}

// add merges per-shard counters; BytesLive is excluded — it is a gauge
// Stats() reads from the shards' live accounting directly.
func (s *Stats) add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Coalesced += o.Coalesced
	s.Evictions += o.Evictions
	s.StaleHits += o.StaleHits
	s.Prefetches += o.Prefetches
	s.Refreshes += o.Refreshes
	s.AdmissionRejects += o.AdmissionRejects
	s.ArenaEpochs += o.ArenaEpochs
	s.SketchResets += o.SketchResets
}

// flight is one in-progress upstream exchange shared by coalesced callers.
type flight struct {
	done chan struct{}
	resp *dnswire.Message
	err  error
}

// shard is one lock domain: a partition of the key space with its own LRU
// and singleflight table.
type shard struct {
	mu         sync.Mutex
	entries    map[string]*entry
	lru        *list.List // front = most recent
	flights    map[string]*flight
	stats      Stats
	maxEntries int
	// budget bounds the accounted bytes of live entries (0 = no byte
	// bound); bytes is the current accounted total (sum of entry.cost) and
	// wireBytes the live arena payload alone — the rotation heuristic's
	// live measure.
	budget    int64
	bytes     int64
	wireBytes int
	// arena packs entry payloads (nil in message-entry mode); sk is the
	// TinyLFU admission sketch (nil without WithTinyLFU).
	arena *arena
	sk    *sketch
}

// Cache is a sharded caching resolver. Safe for concurrent use.
type Cache struct {
	upstream dnstransport.Resolver
	shards   []*shard
	seed     maphash.Seed

	// maxEntries bounds the cache across all shards (LRU eviction per
	// shard); unset means 4096, or unbounded when a memory budget rules
	// instead.
	maxEntries int
	// budget bounds the cache in accounted bytes across all shards
	// (WithMemoryBudget); 0 disables the byte bound.
	budget int64
	// admission enables the TinyLFU admission filter (WithTinyLFU).
	admission bool
	// slabSize overrides the arena slab size (tests force rotations with
	// tiny slabs); 0 derives it from the budget.
	slabSize int
	// nshards is the shard count, rounded up to a power of two; 0 means 16.
	nshards int
	// minTTL/maxTTL clamp record TTLs (resolver-style cache policy).
	minTTL, maxTTL time.Duration
	// negTTL caps negative-cache TTLs and is the fallback when a negative
	// response carries no SOA (RFC 2308 leaves that response uncacheable;
	// we hold it briefly, the way production resolvers do).
	negTTL time.Duration
	// staleWindow keeps expired entries answerable this long past expiry
	// (RFC 8767 serve-stale); 0 disables.
	staleWindow time.Duration
	// prefetchWindow triggers a background refresh when a hit finds a hot
	// entry within this much of expiry; 0 disables.
	prefetchWindow time.Duration
	// refreshTimeout bounds one background refresh exchange.
	refreshTimeout time.Duration
	// tel, when set, makes background refreshes report their upstream
	// resource usage (WithTelemetry).
	tel *telemetry.Metrics
	// now is the clock, replaceable in tests.
	now func() time.Time
}

// Option configures a Cache.
type Option func(*Cache)

// WithMaxEntries bounds the cache size across all shards.
func WithMaxEntries(n int) Option { return func(c *Cache) { c.maxEntries = n } }

// WithMemoryBudget bounds the cache by accounted bytes instead of entry
// count: every entry is charged its arena block (packed response + TTL
// offsets), its key and entryOverhead of index cost, and the budget is
// split across shards the way WithMaxEntries is. Setting a budget lifts
// the default 4096-entry count bound (an explicit WithMaxEntries still
// applies on top); an entry larger than a whole shard's budget is not
// cached at all. Non-positive budgets are ignored.
func WithMemoryBudget(bytes int64) Option {
	return func(c *Cache) {
		if bytes > 0 {
			c.budget = bytes
		}
	}
}

// ParseByteSize parses a human-friendly byte count for WithMemoryBudget
// flags: a non-negative integer with an optional k, m or g suffix (binary
// multiples, case-insensitive), e.g. "512k", "64m", "2g".
func ParseByteSize(s string) (int64, error) {
	digits, mult := s, int64(1)
	if n := len(s); n > 0 {
		switch s[n-1] {
		case 'k', 'K':
			mult, digits = 1<<10, s[:n-1]
		case 'm', 'M':
			mult, digits = 1<<20, s[:n-1]
		case 'g', 'G':
			mult, digits = 1<<30, s[:n-1]
		}
	}
	v, err := strconv.ParseInt(digits, 10, 64)
	// The range check covers the product too: a count whose multiple wraps
	// int64 would come back negative and be dropped as "no budget".
	if err != nil || v < 0 || v > math.MaxInt64/mult {
		return 0, fmt.Errorf("dnscache: invalid byte size %q (want e.g. 8388608, 8m, 512k)", s)
	}
	return v * mult, nil
}

// WithTinyLFU enables frequency-gated admission: each shard keeps a
// count-min sketch (4-bit counters with periodic halving, doorkeeper bloom
// absorbing one-hit wonders) of lookup frequency, and an insert that would
// evict must estimate strictly hotter than every victim it displaces, or
// the insert is refused and the incumbents stay. Expired victims never
// veto. The filter is what holds the hit rate up when a heavy-tailed name
// stream (most names asked once) washes over a byte-budgeted cache.
func WithTinyLFU() Option { return func(c *Cache) { c.admission = true } }

// withArenaSlab overrides the arena slab size — tests shrink it to force
// frequent epoch rotations.
func withArenaSlab(n int) Option { return func(c *Cache) { c.slabSize = n } }

// WithTTLBounds clamps cached TTLs.
func WithTTLBounds(min, max time.Duration) Option {
	return func(c *Cache) { c.minTTL, c.maxTTL = min, max }
}

// WithShards sets the number of lock partitions (rounded up to a power of
// two). One shard reproduces the classic single-mutex cache; the default
// 16 keeps the hit path off any global lock.
func WithShards(n int) Option { return func(c *Cache) { c.nshards = n } }

// WithNegativeTTL caps how long NXDOMAIN/NODATA answers are cached; it is
// also the TTL used when a negative response carries no SOA.
func WithNegativeTTL(d time.Duration) Option { return func(c *Cache) { c.negTTL = d } }

// WithServeStale keeps expired entries answerable for window past expiry
// (RFC 8767): a query hitting an expired-but-stale entry is answered
// immediately from memory with StaleTTL-capped TTLs while exactly one
// background refresh re-populates the entry. Both serving paths (wire and
// Message) honor the window.
func WithServeStale(window time.Duration) Option {
	return func(c *Cache) { c.staleWindow = window }
}

// WithPrefetch refreshes hot entries before they expire: when a hit finds
// an entry that has been hit at least twice and has less than window of
// TTL left, one background refresh is started so the name never goes
// cold. Negative entries are not prefetched.
func WithPrefetch(window time.Duration) Option {
	return func(c *Cache) { c.prefetchWindow = window }
}

// WithRefreshTimeout bounds each background refresh exchange (serve-stale
// and prefetch); the default is 5s. Foreground misses are bounded by their
// caller's context instead.
func WithRefreshTimeout(d time.Duration) Option {
	return func(c *Cache) { c.refreshTimeout = d }
}

// WithTelemetry attaches the metrics sink background refreshes report
// their upstream resource usage to (pool dials, exchanges, failures,
// bytes), via a background Transaction that counts no client query — so
// serve-stale and prefetch traffic stays visible in the aggregate
// upstream accounting. Foreground queries carry their own Transaction in
// their context and are unaffected.
func WithTelemetry(m *telemetry.Metrics) Option { return func(c *Cache) { c.tel = m } }

// WithClock replaces the cache's clock. Exposed for tests and benchmarks
// that need to age entries without sleeping (the serve-stale and prefetch
// paths are clock-driven).
func WithClock(now func() time.Time) Option { return func(c *Cache) { c.now = now } }

// withClock replaces the clock (tests).
func withClock(now func() time.Time) Option { return WithClock(now) }

// minShardBudget is the smallest per-shard byte budget worth partitioning
// for: below it the shard count shrinks, the way a small entry bound does.
const minShardBudget = 2 << 10

// New wraps upstream with a cache.
func New(upstream dnstransport.Resolver, opts ...Option) *Cache {
	c := &Cache{
		upstream:       upstream,
		maxEntries:     -1, // sentinel: default decided after options
		nshards:        16,
		maxTTL:         24 * time.Hour,
		negTTL:         DefaultNegativeTTL,
		refreshTimeout: 5 * time.Second,
		now:            time.Now,
		seed:           maphash.MakeSeed(),
	}
	for _, o := range opts {
		o(c)
	}
	if c.maxEntries < 0 {
		if c.budget > 0 {
			// The byte budget is the bound; no entry-count ceiling.
			c.maxEntries = math.MaxInt
		} else {
			c.maxEntries = 4096
		}
	}
	n := 1
	for n < c.nshards {
		n <<= 1
	}
	// A bound smaller than the shard count would overshoot (every shard
	// holds at least one entry), so shrink the partition count until the
	// configured bound is exact. A small byte budget shrinks the same way,
	// so every remaining shard has room for real entries.
	for n > 1 && c.maxEntries/n < 1 {
		n >>= 1
	}
	for n > 1 && c.budget > 0 && c.budget/int64(n) < minShardBudget {
		n >>= 1
	}
	c.nshards = n
	slab := c.slabSize
	if slab <= 0 {
		slab = defaultSlabSize
		if c.budget > 0 {
			// Scale slabs to the shard budget so a small cache's resident
			// footprint is not rounded up to whole 256 KiB slabs.
			if s := int(c.budget / int64(n) / 4); s < slab {
				slab = s
			}
		}
	}
	perShard, extra := c.maxEntries/n, c.maxEntries%n
	perB, extraB := c.budget/int64(n), c.budget%int64(n)
	for i := 0; i < n; i++ {
		max := perShard
		if i < extra {
			max++
		}
		budget := perB
		if int64(i) < extraB {
			budget++
		}
		sh := &shard{
			entries:    make(map[string]*entry),
			lru:        list.New(),
			flights:    make(map[string]*flight),
			maxEntries: max,
			budget:     budget,
			arena:      newArena(slab),
		}
		if c.admission {
			sh.sk = newSketch(c.expectedPerShard(budget, max))
		}
		c.shards = append(c.shards, sh)
	}
	return c
}

// expectedPerShard estimates how many entries one shard will hold — the
// admission sketch's sizing input. Budget-bound shards assume a ~384-byte
// average accounted entry; count-bound shards use the bound itself, capped
// so an unbounded cache does not size an unbounded sketch.
func (c *Cache) expectedPerShard(budget int64, max int) int {
	if budget > 0 {
		return int(budget / 384)
	}
	if max > 1<<15 {
		return 1 << 15
	}
	return max
}

// DefaultNegativeTTL is the fallback negative-caching duration for
// responses without an SOA, and the default cap for those with one.
const DefaultNegativeTTL = 30 * time.Second

// StaleTTL caps the TTLs of answers served from expired-but-stale entries,
// per the RFC 8767 §4 recommendation (30 seconds): clients may briefly
// re-cache stale data but re-ask soon.
const StaleTTL = 30 * time.Second

// prefetchMinHits is how many fresh hits an entry needs before a
// near-expiry hit triggers a prefetch — the "hot name" gate that keeps
// one-off lookups from paying refresh traffic.
const prefetchMinHits = 2

// shardFor hashes a key to its partition, returning the full hash too —
// the admission sketch keys on it. maphash.Bytes is the runtime's
// AES-based hash — cheap enough that sharding never shows up next to the
// per-hit response copy.
func (c *Cache) shardFor(kb []byte) (*shard, uint64) {
	h := maphash.Bytes(c.seed, kb)
	return c.shards[(h>>32)&uint64(len(c.shards)-1)], h
}

// Close implements Resolver; it closes the upstream.
func (c *Cache) Close() error { return c.upstream.Close() }

// Stats snapshots the counters, summed over shards. BytesLive is read
// from the shards' live accounting at the same instant.
func (c *Cache) Stats() Stats {
	var s Stats
	for _, sh := range c.shards {
		sh.mu.Lock()
		s.add(sh.stats)
		s.BytesLive += sh.bytes
		sh.mu.Unlock()
	}
	return s
}

// BytesLive reports the accounted footprint of live entries across shards
// (arena payload + keys + index overhead).
func (c *Cache) BytesLive() int64 {
	var n int64
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += sh.bytes
		sh.mu.Unlock()
	}
	return n
}

// MemoryBudget reports the configured byte budget (0 = entry-count bound
// only).
func (c *Cache) MemoryBudget() int64 { return c.budget }

// Len reports the number of live entries (expired ones may linger until
// touched).
func (c *Cache) Len() int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// Shards reports the shard count.
func (c *Cache) Shards() int { return len(c.shards) }

// Flush drops everything: entries, byte accounting, and each shard's
// arena epoch (retired slabs stay on the free list for reuse).
func (c *Cache) Flush() {
	for _, sh := range c.shards {
		sh.mu.Lock()
		sh.entries = make(map[string]*entry)
		sh.lru.Init()
		sh.bytes, sh.wireBytes = 0, 0
		if sh.arena != nil {
			sh.arena.recycle(sh.arena.beginEpoch())
		}
		sh.mu.Unlock()
	}
}

// ServeWire is the zero-allocation cache-hit path: it answers a fast-parsed
// wire query by appending a complete response — the stored packed bytes
// with the client's transaction ID and decayed TTLs patched in — to dst
// (typically sliced from a pooled buffer) and returns the extended slice
// plus the telemetry outcome to record. ok=false sends the caller to the
// Message path without anything having been counted: a miss or an expired
// entry past any stale window (the Message path re-counts and refreshes
// it), or a response larger than limit (truncation needs Message-level
// surgery).
//
// With a serve-stale window configured, an expired-but-stale entry is
// served with StaleTTL-capped TTLs while a singleflight background refresh
// re-populates it; with a prefetch window, a hit on a hot near-expiry
// entry triggers the same refresh early and charges tx (which may be nil)
// with the prefetch. Only those resilience paths allocate; the fresh-hit
// path stays allocation-free.
func (c *Cache) ServeWire(tx *telemetry.Transaction, q *dnswire.Query, dst []byte, limit int) ([]byte, telemetry.CacheOutcome, bool) {
	var kbuf [keyBufLen]byte
	kb := appendKeyTail(q.AppendCanonicalName(kbuf[:0]), q.Type, q.Class)
	sh, h := c.shardFor(kb)

	sh.mu.Lock()
	e, ok := sh.entries[string(kb)]
	if !ok {
		sh.mu.Unlock()
		return nil, telemetry.CacheNone, false
	}
	now := c.now()
	if limit > 0 && len(e.wire) > limit {
		sh.mu.Unlock()
		return nil, telemetry.CacheNone, false
	}
	stale := !now.Before(e.expires)
	if stale && (c.staleWindow <= 0 || !now.Before(e.expires.Add(c.staleWindow))) {
		sh.mu.Unlock()
		return nil, telemetry.CacheNone, false
	}
	sh.lru.MoveToFront(e.elem)
	// Feed the admission sketch only on served hits; declined lookups
	// fall through to Exchange, which counts them there — one frequency
	// sample per query either way.
	if sh.sk != nil && sh.sk.add(h) {
		sh.stats.SketchResets++
	}
	var remaining time.Duration
	refresh, prefetch := false, false
	if stale {
		sh.stats.StaleHits++
		remaining = StaleTTL
		// Checked here, under the lock already held, so the steady state
		// of an upstream outage — every hit stale, one refresh parked on
		// the dead upstream — pays no extra lock round trip or key
		// allocation per hit (the map index below does not materialize
		// the string).
		_, inflight := sh.flights[string(kb)]
		refresh = !inflight
	} else {
		sh.stats.Hits++
		e.hits++
		remaining = e.expires.Sub(now)
		if c.wantsPrefetch(e, remaining) {
			_, inflight := sh.flights[string(kb)]
			refresh, prefetch = !inflight, !inflight
		}
	}
	// Copy, patch and decay under the lock: an epoch rotation relocates
	// entry payloads and recycles their old slabs, so e.wire and e.toffs
	// are only safe to read while the lock pins the arena. The copy lands
	// in the caller's buffer — the response never aliases a slab.
	resp := append(dst[:0], e.wire...)
	dnswire.PatchID(resp, q.ID)
	dnswire.DecayTTLsPacked(resp, e.toffs, uint32(remaining/time.Second))
	negative := e.negative
	sh.mu.Unlock()

	if refresh {
		// maybeRefresh re-checks the flight table under the lock, so the
		// benign race with a just-started flight resolves to a no-op.
		if started := c.maybeRefresh(sh, string(kb), prefetch); started && prefetch {
			tx.Prefetch()
		}
	}

	outcome := telemetry.CacheHit
	switch {
	case stale:
		outcome = telemetry.CacheStaleHit
	case negative:
		outcome = telemetry.CacheNegativeHit
	}
	return resp, outcome, true
}

// wantsPrefetch decides whether a fresh hit should trigger the near-expiry
// refresh. Entries whose whole lifetime fits inside the prefetch window
// never qualify: for them "near expiry" is always true, and prefetching
// would turn every couple of hits into upstream traffic — amplification,
// where the feature exists to save misses on names that live longer than
// the window. Caller holds sh.mu (it reads the entry's hit counter).
func (c *Cache) wantsPrefetch(e *entry, remaining time.Duration) bool {
	return c.prefetchWindow > 0 && !e.negative && e.ttl > c.prefetchWindow &&
		e.hits >= prefetchMinHits && remaining <= c.prefetchWindow
}

// Exchange implements Resolver. Cache hits are answered with the stored
// response re-stamped with the query's ID and decayed TTLs; misses go
// upstream, coalescing concurrent identical questions into one exchange.
// Only the query's shard is locked, and never across the upstream call.
// The query's telemetry Transaction (if its server began one) learns the
// outcome — hit, negative hit, miss, coalesced or bypass — outside the
// shard lock.
func (c *Cache) Exchange(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	tx := telemetry.FromContext(ctx)
	qq := q.Question1()
	if len(q.Questions) != 1 || qq.Type == dnswire.TypeANY {
		// Uncacheable shapes pass straight through.
		tx.SetCache(telemetry.CacheBypass)
		return c.upstream.Exchange(ctx, q)
	}
	// The cache-lookup span covers key build, shard lock and the in-memory
	// decision; on a miss it ends when the flight is registered, so the
	// upstream wait never inflates it.
	tl := tx.TraceStart()
	var kbuf [keyBufLen]byte
	kb := appendKey(kbuf[:0], qq.Name.Canonical(), qq.Type, qq.Class)
	sh, h := c.shardFor(kb)

	sh.mu.Lock()
	// Feed the admission sketch once per cacheable lookup. ServeWire counts
	// the hits it serves itself; everything that reaches this lock — direct
	// Message-path traffic and wire-path misses falling through — is
	// counted here, so no query is sampled twice.
	if sh.sk != nil && sh.sk.add(h) {
		sh.stats.SketchResets++
	}
	if e, ok := sh.entries[string(kb)]; ok {
		now := c.now()
		switch {
		case now.Before(e.expires):
			sh.lru.MoveToFront(e.elem)
			sh.stats.Hits++
			e.hits++
			remaining := e.expires.Sub(now)
			prefetch := false
			if c.wantsPrefetch(e, remaining) {
				_, inflight := sh.flights[string(kb)]
				prefetch = !inflight
			}
			neg := e.negative
			// Copy under the lock: an epoch rotation may relocate the
			// entry's payload and recycle its slab.
			w := append([]byte(nil), e.wire...)
			sh.mu.Unlock()
			tx.TraceSpan(qtrace.PhaseCache, tl)
			if neg {
				tx.SetCache(telemetry.CacheNegativeHit)
			} else {
				tx.SetCache(telemetry.CacheHit)
			}
			if prefetch && c.maybeRefresh(sh, string(kb), true) {
				tx.Prefetch()
			}
			return unpackWire(w, q.ID, remaining)
		case c.staleWindow > 0 && now.Before(e.expires.Add(c.staleWindow)):
			// RFC 8767 serve-stale: answer immediately from the expired
			// entry while one background refresh re-populates it — the
			// client never waits on the upstream.
			sh.lru.MoveToFront(e.elem)
			sh.stats.StaleHits++
			_, inflight := sh.flights[string(kb)]
			w := append([]byte(nil), e.wire...)
			sh.mu.Unlock()
			tx.TraceSpan(qtrace.PhaseCache, tl)
			tx.SetCache(telemetry.CacheStaleHit)
			if !inflight {
				c.maybeRefresh(sh, string(kb), false)
			}
			return unpackWire(w, q.ID, StaleTTL)
		default:
			sh.removeLocked(e)
		}
	}
	// Miss: join or start a flight.
	if f, ok := sh.flights[string(kb)]; ok {
		sh.stats.Coalesced++
		sh.mu.Unlock()
		tx.TraceSpan(qtrace.PhaseCache, tl)
		tx.SetCache(telemetry.CacheCoalesced)
		select {
		case <-f.done:
			if f.err != nil {
				return nil, f.err
			}
			return cloneResponse(f.resp, q.ID, 0), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	k := string(kb)
	f := &flight{done: make(chan struct{})}
	sh.flights[k] = f
	sh.stats.Misses++
	sh.mu.Unlock()
	tx.TraceSpan(qtrace.PhaseCache, tl)
	tx.SetCache(telemetry.CacheMiss)

	// The flight is shared by every coalesced caller, so it must not die
	// with the leader's client: detach from the leader's cancellation but
	// keep its deadline, so a proxy-level upstream timeout still bounds
	// the exchange while a mid-flight disconnect no longer poisons the
	// other waiters with SERVFAIL.
	exCtx := context.WithoutCancel(ctx)
	if deadline, ok := ctx.Deadline(); ok {
		var cancel context.CancelFunc
		exCtx, cancel = context.WithDeadline(exCtx, deadline)
		defer cancel()
	}
	resp, err := c.upstream.Exchange(exCtx, q)
	f.resp, f.err = resp, err

	// The admission span covers entry packing, the admission filter and
	// the insert (evictions included) — the post-upstream cost of a miss.
	ta := tx.TraceStart()
	var e *entry
	if err == nil && cacheable(resp) {
		e = c.buildEntry(k, resp)
	}

	evicted, rejected := 0, false
	sh.mu.Lock()
	delete(sh.flights, k)
	if e != nil {
		evicted, rejected = c.insertLocked(sh, e, h)
	}
	sh.mu.Unlock()
	tx.TraceSpan(qtrace.PhaseAdmit, ta)
	tx.CacheEvicted(evicted)
	if rejected {
		tx.CacheAdmissionRejected()
	}
	close(f.done)
	if err != nil {
		return nil, err
	}
	return cloneResponse(resp, q.ID, 0), nil
}

// buildEntry packs resp into an immutable cache entry. It runs outside the
// shard lock — packing is the expensive part of a miss's insert, and the
// miss has already paid an upstream round trip. A response the codec
// cannot re-pack (never seen in practice: it was just unpacked by the
// transport) is simply not cached.
func (c *Cache) buildEntry(k string, resp *dnswire.Message) *entry {
	ttl := c.clampTTL(c.ttlOf(resp))
	e := &entry{
		key:      k,
		negative: negative(resp),
		ttl:      ttl,
		expires:  c.now().Add(ttl),
	}
	wire, err := resp.Pack()
	if err != nil {
		return nil
	}
	offsets, err := dnswire.TTLOffsets(wire)
	if err != nil {
		return nil
	}
	e.wire = wire
	e.toffs = dnswire.PackTTLOffsets(nil, offsets)
	return e
}

// unpackWire rebuilds a Message from a copy of an entry's packed bytes: a
// fresh unpack shares no mutable state with the cache, which is what lets
// every caller mutate its response freely (the shared-EDNS hazard the old
// deep clone left open). The unpack cannot fail — the bytes came from our
// own packer — but the error is propagated rather than swallowed.
func unpackWire(wire []byte, id uint16, remaining time.Duration) (*dnswire.Message, error) {
	m := new(dnswire.Message)
	if err := m.Unpack(wire); err != nil {
		return nil, err
	}
	m.ID = id
	if remaining > 0 {
		rem := uint32(remaining / time.Second)
		for _, rrs := range [][]dnswire.ResourceRecord{m.Answers, m.Authorities, m.Additionals} {
			for i := range rrs {
				if rrs[i].TTL > rem {
					rrs[i].TTL = rem
				}
			}
		}
	}
	return m, nil
}

// removeLocked unlinks an entry and releases its byte accounting (its arena
// bytes stay dead in their slab until the next epoch rotation). Caller
// holds sh.mu.
func (sh *shard) removeLocked(e *entry) {
	delete(sh.entries, e.key)
	sh.lru.Remove(e.elem)
	sh.bytes -= int64(e.cost)
	sh.wireBytes -= len(e.wire) + len(e.toffs)
}

// needsEvict reports whether installing one more entry of the given cost
// would push the shard past either bound. Caller holds sh.mu.
func (sh *shard) needsEvict(cost int) bool {
	return len(sh.entries)+1 > sh.maxEntries ||
		(sh.budget > 0 && sh.bytes+int64(cost) > sh.budget)
}

// admitLocked runs the TinyLFU admission duel for a candidate that would
// evict: walking from the LRU tail, it accumulates the victims that would
// have to go for the candidate to fit. A victim already expired past any
// stale window is dead weight and never vetoes; a live victim vetoes when
// its estimated frequency is at least the candidate's — ties keep the
// incumbent, which is what stops a stream of once-asked names from
// churning an established working set. Caller holds sh.mu.
func (c *Cache) admitLocked(sh *shard, h uint64, cost int) bool {
	cf := sh.sk.estimate(h)
	now := c.now()
	freedBytes, freed := int64(0), 0
	for el := sh.lru.Back(); el != nil; el = el.Prev() {
		if len(sh.entries)-freed+1 <= sh.maxEntries &&
			(sh.budget <= 0 || sh.bytes-freedBytes+int64(cost) <= sh.budget) {
			break
		}
		v := el.Value.(*entry)
		if now.Before(v.expires.Add(c.staleWindow)) && sh.sk.estimate(v.hash) >= cf {
			return false
		}
		freedBytes += int64(v.cost)
		freed++
	}
	return true
}

// placeLocked copies e's payload into the shard's arena — one block holding
// the packed response followed by its packed TTL offsets — and re-points
// e.wire and e.toffs into it. When the epoch's handed-out bytes outweigh
// the live payload by more than a slab of slack, the shard rotates first:
// compaction then reclaims more than it copies. Caller holds sh.mu.
func (c *Cache) placeLocked(sh *shard, e *entry) {
	need := len(e.wire) + len(e.toffs)
	if sh.arena.used+need > 2*(sh.wireBytes+need)+sh.arena.slabSize {
		c.rotateLocked(sh)
	}
	w := len(e.wire)
	block := sh.arena.alloc(need)
	copy(block, e.wire)
	copy(block[w:], e.toffs)
	e.wire = block[:w:w]
	e.toffs = block[w:]
}

// rotateLocked starts a fresh arena epoch: live entries are compacted into
// new slabs, entries expired past any stale window are dropped on the way
// (rotation doubles as the expiry sweep, and the drops count as
// evictions), and the retired slabs are recycled onto the free list.
// Caller holds sh.mu.
func (c *Cache) rotateLocked(sh *shard) {
	retired := sh.arena.beginEpoch()
	now := c.now()
	for el := sh.lru.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*entry)
		if !now.Before(e.expires.Add(c.staleWindow)) {
			sh.removeLocked(e)
			sh.stats.Evictions++
		} else {
			w := len(e.wire)
			block := sh.arena.alloc(w + len(e.toffs))
			copy(block, e.wire)
			copy(block[w:], e.toffs)
			e.wire = block[:w:w]
			e.toffs = block[w:]
		}
		el = next
	}
	sh.arena.recycle(retired)
	sh.stats.ArenaEpochs++
}

// insertLocked installs e — replacing any existing entry for its key, as a
// background refresh of a still-present stale entry does; replacement
// bypasses the admission filter, because a refresh that first dropped the
// old entry and then lost the duel would lose the name entirely — and
// evicts past the shard bounds. It reports the eviction count and whether
// admission refused the insert. Caller holds sh.mu.
func (c *Cache) insertLocked(sh *shard, e *entry, h uint64) (evicted int, rejected bool) {
	e.hash = h
	block := len(e.wire) + len(e.toffs)
	e.cost = entryOverhead + len(e.key) + block
	if sh.budget > 0 && int64(e.cost) > sh.budget {
		// Larger than the whole shard's budget: uncacheable at this size.
		sh.stats.AdmissionRejects++
		return 0, true
	}
	old, replacing := sh.entries[e.key]
	if !replacing && sh.sk != nil && sh.needsEvict(e.cost) &&
		!c.admitLocked(sh, h, e.cost) {
		sh.stats.AdmissionRejects++
		return 0, true
	}
	if replacing {
		sh.removeLocked(old)
	}
	c.placeLocked(sh, e)
	e.elem = sh.lru.PushFront(e)
	sh.entries[e.key] = e
	sh.bytes += int64(e.cost)
	sh.wireBytes += block
	for len(sh.entries) > sh.maxEntries || (sh.budget > 0 && sh.bytes > sh.budget) {
		oldest := sh.lru.Back()
		if oldest == nil {
			break
		}
		sh.removeLocked(oldest.Value.(*entry))
		sh.stats.Evictions++
		evicted++
	}
	return evicted, false
}

// maybeRefresh starts a background singleflight refresh of key k unless an
// exchange for it is already in flight, reporting whether this call
// started one. prefetch labels the trigger for stats. Caller must not hold
// sh.mu.
func (c *Cache) maybeRefresh(sh *shard, k string, prefetch bool) bool {
	sh.mu.Lock()
	if _, inflight := sh.flights[k]; inflight {
		sh.mu.Unlock()
		return false
	}
	f := &flight{done: make(chan struct{})}
	sh.flights[k] = f
	sh.stats.Refreshes++
	if prefetch {
		sh.stats.Prefetches++
	}
	sh.mu.Unlock()
	go c.refresh(sh, k, f)
	return true
}

// refresh is the background half of serve-stale and prefetch: one upstream
// exchange re-populating k while foreground queries keep answering from
// the existing entry. It holds the key's singleflight slot, so concurrent
// misses for the same name join it instead of going upstream themselves.
// A failed refresh leaves the old entry in place — within a serve-stale
// window that is exactly the availability RFC 8767 wants.
func (c *Cache) refresh(sh *shard, k string, f *flight) {
	ctx, cancel := context.WithTimeout(context.Background(), c.refreshTimeout)
	defer cancel()
	tx := c.tel.BeginBackground()
	defer tx.Finish()
	resp, err := c.upstream.Exchange(telemetry.NewContext(ctx, tx), refreshQuery(k))
	f.resp, f.err = resp, err
	var e *entry
	if err == nil && cacheable(resp) {
		e = c.buildEntry(k, resp)
	}
	rejected := false
	sh.mu.Lock()
	delete(sh.flights, k)
	if e != nil {
		_, rejected = c.insertLocked(sh, e, maphash.Bytes(c.seed, []byte(k)))
	}
	sh.mu.Unlock()
	if rejected {
		tx.CacheAdmissionRejected()
	}
	close(f.done)
}

// refreshQuery rebuilds the question a cache key encodes — the canonical
// name followed by four octets of type and class — into a fresh query
// message for the background refresh.
func refreshQuery(k string) *dnswire.Message {
	name := dnswire.Name(k[:len(k)-4])
	qtype := dnswire.Type(uint16(k[len(k)-4])<<8 | uint16(k[len(k)-3]))
	class := dnswire.Class(uint16(k[len(k)-2])<<8 | uint16(k[len(k)-1]))
	q := dnswire.NewQuery(0, name, qtype)
	q.Questions[0].Class = class
	return q
}

func (c *Cache) clampTTL(ttl time.Duration) time.Duration {
	if ttl < c.minTTL {
		ttl = c.minTTL
	}
	if c.maxTTL > 0 && ttl > c.maxTTL {
		ttl = c.maxTTL
	}
	return ttl
}

// cacheable accepts positive answers and NXDOMAIN/NODATA (negative caching
// per RFC 2308).
func cacheable(resp *dnswire.Message) bool {
	if resp == nil || resp.Truncated {
		return false
	}
	switch resp.RCode {
	case dnswire.RCodeSuccess, dnswire.RCodeNameError:
		return true
	}
	return false
}

// negative reports whether resp is an RFC 2308 negative answer: NXDOMAIN,
// or NOERROR with an empty answer section (NODATA).
func negative(resp *dnswire.Message) bool {
	return resp.RCode == dnswire.RCodeNameError ||
		(resp.RCode == dnswire.RCodeSuccess && len(resp.Answers) == 0)
}

// ttlOf derives the cache lifetime of a response: the smallest answer-
// section TTL for positive answers, or the RFC 2308 §3/§5 negative TTL —
// min(SOA record TTL, SOA MINIMUM field) from the authority section — for
// negative ones, capped at the configured negative ceiling.
func (c *Cache) ttlOf(resp *dnswire.Message) time.Duration {
	if negative(resp) {
		return c.negativeTTL(resp)
	}
	min := time.Duration(-1)
	for _, section := range [][]dnswire.ResourceRecord{resp.Answers, resp.Authorities} {
		for _, rr := range section {
			ttl := time.Duration(rr.TTL) * time.Second
			if min < 0 || ttl < min {
				min = ttl
			}
		}
	}
	if min < 0 {
		return c.negTTL
	}
	return min
}

// negativeTTL implements the RFC 2308 negative-TTL derivation.
func (c *Cache) negativeTTL(resp *dnswire.Message) time.Duration {
	for _, rr := range resp.Authorities {
		soa, ok := rr.Data.(*dnswire.SOA)
		if !ok {
			continue
		}
		secs := rr.TTL
		if soa.Minimum < secs {
			secs = soa.Minimum
		}
		ttl := time.Duration(secs) * time.Second
		if c.negTTL > 0 && ttl > c.negTTL {
			ttl = c.negTTL
		}
		return ttl
	}
	return c.negTTL
}

// cloneResponse copies resp, restamps the transaction ID, and decays TTLs
// by the entry's age (remaining > 0 selects decay toward `remaining`). It
// serves singleflight waiters (whose shared response is a live Message) and
// message-entry-mode hits; the RData payloads and EDNS are shared between
// the clones, which is the shallowness the wire-entry default eliminates.
func cloneResponse(resp *dnswire.Message, id uint16, remaining time.Duration) *dnswire.Message {
	cp := *resp
	cp.ID = id
	decay := func(rrs []dnswire.ResourceRecord) []dnswire.ResourceRecord {
		if remaining <= 0 {
			return append([]dnswire.ResourceRecord(nil), rrs...)
		}
		out := make([]dnswire.ResourceRecord, len(rrs))
		copy(out, rrs)
		rem := uint32(remaining / time.Second)
		for i := range out {
			if out[i].TTL > rem {
				out[i].TTL = rem
			}
		}
		return out
	}
	cp.Answers = decay(resp.Answers)
	cp.Authorities = decay(resp.Authorities)
	cp.Additionals = decay(resp.Additionals)
	return &cp
}

var _ dnstransport.Resolver = (*Cache)(nil)
