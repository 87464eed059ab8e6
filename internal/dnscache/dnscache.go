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
// The cache works on packed bytes end to end. A miss forwards the query's
// own bytes and gets the upstream's bytes back; one strict scan
// (dnswire.ScanResponse) decides whether they may be served and stored
// verbatim and finds every TTL field on the way, so an entry holds
// validated upstream bytes, whose question is the key, and their TTL
// offsets, packed into per-shard append-only arenas and found through a
// pointer-free index (index.go), so the GC sees a handful of large slabs
// and tables instead of objects per entry; when a shard's arena
// accumulates more dead bytes than live ones, it rotates the epoch — live
// entries are compacted into fresh slabs and the retired slabs recycled. A
// hit is served by copying the stored bytes, restamping the transaction ID
// and the asker's question and decaying the TTLs in place (ServeWire — no
// Unpack, no clone, no Pack).
// Callers that hold a *dnswire.Message go through one adapter (Exchange:
// pack, ExchangeWire, unpack) and get a fresh message that shares nothing
// with the stored entry.
//
// Capacity has one bound, bytes: each entry is charged its arena block and
// the size of its index record and slot, the bound that stays honest when
// answer sizes vary. WithMemoryBudget sets it; without it a cache holds
// 576 KiB. WithTinyLFU adds frequency-gated admission on top of the bound:
// a per-shard count-min sketch (4-bit counters, periodic halving,
// doorkeeper bloom for one-hit wonders) estimates every name's lookup
// frequency, and an insert that would evict must beat its victims'
// frequency to be admitted — the policy that keeps a long tail of
// once-asked names from churning the working set.
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
	"context"
	"encoding/binary"
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

// keyBufLen bounds a stack-allocated key buffer: the key is the question in
// canonical wire form (Query.AppendCanonicalQuestion), a name of at most 255
// octets followed by four octets of type and class.
const keyBufLen = 260

// questionAt is where a message's question starts, past its 12-octet
// header. A stored reply's question is its key: ScanResponse has checked
// that it sits there, uncompressed, equal to the query's up to ASCII case.
const questionAt = 12

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
	// BytesLive is the accounted footprint of live entries (arena block:
	// TTL-offset count, reply and TTL offsets; plus entryOverhead of index
	// each) at snapshot time — a gauge, not a counter.
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

// flight is one in-progress upstream exchange shared by coalesced callers,
// and the context that exchange runs under (docs/CACHE.md). The flight table
// files it under its key's 64-bit hash, and key holds the key's bytes, which
// a lookup compares. To followers it is a result: done is made by the first
// of them, under the shard lock, and closed by land once resp and err are
// written — resp a private copy of the reply, made for them, since the
// leader's is in its caller's buffer — and each appends resp to its own
// buffer and patches its own ID and question in. To the upstream it is a
// context.Context (see arm): bounded by the earlier of the exchange timeout
// and the leader's deadline, carrying the leader's values, deaf to the
// leader's cancellation — a flight must not die with one caller's client —
// its Done closed by its own timer, only when the deadline really passes.
// One that lands with no follower and its timer stopped in time nobody can
// still hold (an upstream must not use ctx after ExchangeWire returns): it
// goes back on its shard's free list, timer and channel too.
type flight struct {
	key  []byte // the key's bytes; storage kept across recycling
	done chan struct{}
	resp []byte
	err  error
	// scanned reports that resp passed ScanResponse, so its question sits at
	// questionAt, equal to each follower's up to ASCII case: only then does
	// a follower write its own question over it.
	scanned bool
	// waiters counts the coalesced callers that will copy resp, under the
	// shard lock; with none, the leader keeps resp for itself.
	waiters  int
	leader   context.Context // the leader's context: values only
	deadline time.Time
	expired  chan struct{} // Done: closed by timer at the deadline
	timer    *time.Timer   // nil on a background refresh's flight, which is no context
}

// arm makes f the context of a foreground miss led by a caller under ctx.
func (f *flight) arm(ctx context.Context, timeout time.Duration) {
	f.leader = ctx
	f.deadline = time.Now().Add(timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(f.deadline) {
		f.deadline = d
	}
	switch d := time.Until(f.deadline); {
	case d <= 0:
		close(f.expired) // and never recycled: Stop reports no pending timer
	case f.timer == nil:
		f.timer = time.AfterFunc(d, func() { close(f.expired) })
	default:
		f.timer.Reset(d)
	}
}

// Deadline, Done, Err and Value implement context.Context.
func (f *flight) Deadline() (time.Time, bool) { return f.deadline, true }
func (f *flight) Done() <-chan struct{}       { return f.expired }
func (f *flight) Value(key any) any           { return f.leader.Value(key) }
func (f *flight) Err() error {
	select {
	case <-f.expired:
		return context.DeadlineExceeded
	default:
		return nil
	}
}

// maxFreeFlights bounds a shard's free list: a burst of concurrent misses.
const maxFreeFlights = 16

// shard is one lock domain: a partition of the key space with its own LRU
// and singleflight table.
type shard struct {
	mu sync.Mutex
	// recs, index, freeRec and n are the entry tables (index.go): recs[0]
	// is the LRU ring's sentinel, next the most recent entry, prev the
	// oldest; n counts live entries.
	recs    []record
	index   []uint32
	freeRec uint32
	n       int
	// flights is the singleflight table, keyed by the key's hash: a flight's
	// key bytes tell colliding keys apart (see ExchangeQuery).
	flights map[uint64]*flight
	// free holds landed flights ready for the next miss (see flight).
	free  []*flight
	stats Stats
	// budget bounds the accounted bytes of live entries; bytes is the
	// current accounted total (sum of record.cost) and
	// wireBytes the live arena blocks alone — the rotation heuristic's
	// live measure.
	budget    int64
	bytes     int64
	wireBytes int
	// arena packs entry payloads; sk is the TinyLFU admission sketch (nil
	// without WithTinyLFU).
	arena *arena
	sk    *sketch
}

// Cache is a sharded caching resolver. Safe for concurrent use.
type Cache struct {
	upstream dnstransport.Resolver
	wire     dnstransport.WireResolver // upstream's wire capability
	shards   []*shard
	seed     maphash.Seed
	// rehash, when set, maps each key's maphash to the hash the cache uses:
	// tests force keys to collide with it.
	rehash func(h uint64) uint64

	// budget bounds the cache in accounted bytes across all shards
	// (WithMemoryBudget; defaultBudget when unset).
	budget int64
	// admission enables the TinyLFU admission filter (WithTinyLFU).
	admission bool
	// slabSize overrides the arena slab size (tests force rotations with
	// tiny slabs); 0 derives it from the budget.
	slabSize int
	// nshards is the shard count, rounded up to a power of two and capped
	// at MaxShards; the default is 16.
	nshards int
	// maxTTL caps record TTLs (resolver-style cache policy).
	maxTTL time.Duration
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
	// exchangeTimeout bounds one upstream exchange: a flight, a background
	// refresh, a bypass.
	exchangeTimeout time.Duration
	// tel, when set, makes background refreshes report their upstream
	// resource usage (WithTelemetry).
	tel *telemetry.Metrics
	// now is the clock, replaceable in tests; epoch is what it read in New,
	// the origin of the records' expiry seconds.
	now   func() time.Time
	epoch time.Time
}

// Option configures a Cache.
type Option func(*Cache)

// WithMemoryBudget bounds the cache by accounted bytes in place of
// defaultBudget: every entry is charged its arena block (TTL-offset count,
// packed response, TTL offsets) and entryOverhead of index cost, and the
// budget is split evenly across shards; an entry larger than a whole
// shard's budget is not cached at all. Budgets that are not positive or
// exceed MaxMemoryBudget are ignored.
func WithMemoryBudget(bytes int64) Option {
	return func(c *Cache) {
		if bytes > 0 && bytes <= MaxMemoryBudget {
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

// withRehash maps every key's hash through rehash (tests force collisions
// with it).
func withRehash(rehash func(h uint64) uint64) Option { return func(c *Cache) { c.rehash = rehash } }

// withArenaSlab overrides the arena slab size — tests shrink it to force
// frequent epoch rotations.
func withArenaSlab(n int) Option { return func(c *Cache) { c.slabSize = n } }

// WithMaxTTL caps cached TTLs in place of the default 24 hours.
// Non-positive values are ignored.
func WithMaxTTL(d time.Duration) Option {
	return func(c *Cache) {
		if d > 0 {
			c.maxTTL = d
		}
	}
}

// WithShards sets the number of lock partitions (rounded up to a power of
// two, at most MaxShards). One shard reproduces the classic single-mutex
// cache; the default 16 keeps the hit path off any global lock.
func WithShards(n int) Option { return func(c *Cache) { c.nshards = n } }

// withNegativeTTL replaces DefaultNegativeTTL as the cap on how long
// NXDOMAIN/NODATA answers are cached and the TTL of a negative response
// that carries no SOA (tests move it to see which one decides).
func withNegativeTTL(d time.Duration) Option { return func(c *Cache) { c.negTTL = d } }

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

// WithExchangeTimeout bounds each upstream exchange the cache starts — a
// miss's flight, a background refresh (serve-stale and prefetch), an
// uncacheable query passing through; the default is
// DefaultExchangeTimeout. A caller's earlier deadline still applies to its
// own flight. The flight carries the one timer of a miss: coalesced callers
// are bounded by the flight ending.
func WithExchangeTimeout(d time.Duration) Option {
	return func(c *Cache) { c.exchangeTimeout = d }
}

// WithTelemetry attaches the metrics sink background refreshes report
// their upstream resource usage to (pool dials, exchanges, failures,
// bytes), via a background Transaction that counts no client query — so
// serve-stale and prefetch traffic stays visible in the aggregate
// upstream accounting. Foreground queries carry their own Transaction in
// their context and are unaffected.
func WithTelemetry(m *telemetry.Metrics) Option { return func(c *Cache) { c.tel = m } }

// withClock replaces the cache's clock, for tests and benchmarks that age
// entries without sleeping (the serve-stale and prefetch paths are
// clock-driven).
func withClock(now func() time.Time) Option { return func(c *Cache) { c.now = now } }

// minShardBudget is the smallest per-shard byte budget worth partitioning
// for: below it the shard count shrinks.
const minShardBudget = 2 << 10

// MaxShards caps the shard count: past it a partition buys no parallelism,
// only tables.
const MaxShards = 1 << 10

// MaxMemoryBudget is the largest budget a cache takes, 256 GiB: what
// MaxShards shards address. A budget whose shards would each hold more than
// maxShardBudget runs on more of them.
const MaxMemoryBudget = MaxShards * maxShardBudget

// typicalBlock sizes the admission sketch, which the byte budget alone
// cannot: it is the arena block a typical one-address answer had while the
// block stored its key apart from the reply; blocks are 60–71 bytes now,
// and it stays, so the sketch's width stays as it was (docs/CACHE.md).
const typicalBlock = 96

// defaultBudget is the byte budget of a cache built without
// WithMemoryBudget: 576 KiB, what 4 096 typicalBlock entries cost while a
// record was 40 bytes — 16 shards with a 9 216-byte arena slab each.
const defaultBudget = 576 << 10

// DefaultExchangeTimeout bounds an upstream exchange the cache starts when
// WithExchangeTimeout does not.
const DefaultExchangeTimeout = 5 * time.Second

// New wraps upstream with a cache.
func New(upstream dnstransport.Resolver, opts ...Option) *Cache {
	c := &Cache{
		upstream:        upstream,
		wire:            dnstransport.AsWire(upstream),
		budget:          defaultBudget,
		nshards:         16,
		maxTTL:          24 * time.Hour,
		negTTL:          DefaultNegativeTTL,
		exchangeTimeout: DefaultExchangeTimeout,
		now:             time.Now,
		seed:            maphash.MakeSeed(),
	}
	for _, o := range opts {
		o(c)
	}
	c.epoch = c.now()
	n := 1
	for n < min(c.nshards, MaxShards) {
		n <<= 1
	}
	// A small budget shrinks the partition count, so every remaining shard
	// has room for real entries; a large one grows it, so every shard's
	// share stays within what its arena addresses cover.
	for n > 1 && c.budget/int64(n) < minShardBudget {
		n >>= 1
	}
	for (c.budget+int64(n)-1)/int64(n) > maxShardBudget {
		n <<= 1
	}
	c.nshards = n
	per, extra := c.budget/int64(n), c.budget%int64(n)
	slab := c.slabSize
	if slab <= 0 {
		// A quarter of the shard's share, so a small cache's resident
		// footprint is not rounded up to whole defaultSlabSize slabs;
		// newArena applies the minSlabSize floor.
		slab = int(min(per/4, defaultSlabSize))
	}
	for i := 0; i < n; i++ {
		budget := per
		if int64(i) < extra {
			budget++
		}
		sh := &shard{
			flights: make(map[uint64]*flight),
			budget:  budget,
			arena:   newArena(slab),
		}
		sh.resetIndex()
		if c.admission {
			sh.sk = newSketch(int(budget) / (entryOverhead + typicalBlock))
		}
		c.shards = append(c.shards, sh)
	}
	return c
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

// shardFor hashes a key to its partition, returning the full hash too:
// the index, the flight table and the admission sketch key on it.
func (c *Cache) shardFor(kb []byte) (*shard, uint64) {
	h := c.keyHash(kb)
	return c.shards[(h>>32)&uint64(len(c.shards)-1)], h
}

// keyHash is key kb's 64-bit hash. maphash.Bytes is the runtime's AES-based
// hash — cheap enough that sharding never shows up next to the per-hit
// response copy.
func (c *Cache) keyHash(kb []byte) uint64 {
	h := maphash.Bytes(c.seed, kb)
	if c.rehash != nil {
		h = c.rehash(h)
	}
	return h
}

// sinceEpoch reads the clock as a record's expiry is measured: from the
// epoch, and never before it. Reading an earlier clock as the epoch only
// ages entries, so it can serve none later than its exact expiry allows.
func (c *Cache) sinceEpoch() time.Duration { return max(c.now().Sub(c.epoch), 0) }

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
// (arena blocks + entryOverhead of index each).
func (c *Cache) BytesLive() int64 {
	var n int64
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += sh.bytes
		sh.mu.Unlock()
	}
	return n
}

// MemoryBudget reports the byte budget: WithMemoryBudget's, or
// defaultBudget.
func (c *Cache) MemoryBudget() int64 { return c.budget }

// Len reports the number of live entries (expired ones may linger until
// touched).
func (c *Cache) Len() int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += sh.n
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
		sh.resetIndex()
		sh.bytes, sh.wireBytes = 0, 0
		sh.arena.recycle(sh.arena.beginEpoch())
		sh.mu.Unlock()
	}
}

// ServeWire is the zero-allocation cache-hit path: it answers a fast-parsed
// wire query by appending a complete response — the stored packed bytes
// with the client's transaction ID, question and decayed TTLs patched in —
// to dst (typically sliced from a pooled buffer) and returns the extended
// slice plus the telemetry outcome to record. ok=false sends the caller to
// the miss path (ExchangeQuery) without anything having been counted: a
// miss or an expired entry past any stale window (the miss path re-counts
// and refreshes it), or a response larger than limit (truncation needs
// Message-level surgery on the bytes the miss path returns).
//
// With a serve-stale window configured, an expired-but-stale entry is
// served with StaleTTL-capped TTLs while a singleflight background refresh
// re-populates it; with a prefetch window, a hit on a hot near-expiry
// entry triggers the same refresh early and charges tx (which may be nil)
// with the prefetch. Only those resilience paths allocate; the fresh-hit
// path stays allocation-free.
func (c *Cache) ServeWire(tx *telemetry.Transaction, q *dnswire.Query, dst []byte, limit int) ([]byte, telemetry.CacheOutcome, bool) {
	var kbuf [keyBufLen]byte
	kb := q.AppendCanonicalQuestion(kbuf[:0])
	sh, h := c.shardFor(kb)

	sh.mu.Lock()
	ri := sh.find(h, kb)
	if ri == 0 || (limit > 0 && int(sh.recs[ri].wlen) > limit) {
		sh.mu.Unlock()
		return nil, telemetry.CacheNone, false
	}
	hit, ok := c.serveLocked(sh, ri, h, q.Raw[questionAt:questionAt+len(kb)], q.ID, dst[:0])
	if !ok {
		sh.mu.Unlock()
		return nil, telemetry.CacheNone, false
	}
	// Feed the admission sketch only on served hits; declined lookups
	// fall through to ExchangeQuery, which counts them there — one
	// frequency sample per query either way.
	if sh.sk != nil && sh.sk.add(h) {
		sh.stats.SketchResets++
	}
	sh.mu.Unlock()
	c.afterHit(sh, kb, h, hit)
	return hit.resp, hit.outcome, true
}

// served is what serving an entry decided under the shard lock, for the
// caller to act on once the lock is released.
type served struct {
	resp    []byte
	outcome telemetry.CacheOutcome
	// refresh asks for a background refresh of the entry — serve-stale's,
	// or with prefetch set the near-expiry one.
	refresh, prefetch bool
}

// serveLocked answers from record ri, whose key hashes to h — fresh, or
// expired within the stale window — by appending the stored bytes to dst
// with the asker's question (the key's bytes as the asker cased them, DNS
// 0x20), id and decayed TTLs patched in; ok=false means it is expired past
// any stale window and nothing was counted. It counts the hit, promotes the
// entry and decides whether a refresh is due. Caller holds sh.mu: an epoch
// rotation relocates entry blocks and recycles their old slabs, so they are
// only safe to read while the lock pins the arena, and the copy — a few
// hundred bytes, far cheaper than a second lock round trip — means a
// response never aliases a slab.
func (c *Cache) serveLocked(sh *shard, ri uint32, h uint64, question []byte, id uint16, dst []byte) (hit served, ok bool) {
	now := c.sinceEpoch()
	r := &sh.recs[ri]
	expires := r.expiry()
	stale := now >= expires
	if stale && now >= expires+c.staleWindow {
		return hit, false
	}
	sh.unlink(ri)
	sh.pushFront(ri)
	remaining := StaleTTL
	if stale {
		// RFC 8767 serve-stale: answer immediately from the expired entry
		// while one background refresh re-populates it — the client never
		// waits on the upstream.
		sh.stats.StaleHits++
		hit.outcome = telemetry.CacheStaleHit
	} else {
		sh.stats.Hits++
		if r.hits < math.MaxUint8 {
			r.hits++
		}
		remaining = expires - now
		hit.outcome = telemetry.CacheHit
		if r.flags&flagNegative != 0 {
			hit.outcome = telemetry.CacheNegativeHit
		}
		hit.prefetch = r.flags&flagPrefetchable != 0 && r.hits >= prefetchMinHits && remaining <= c.prefetchWindow
	}
	if stale || hit.prefetch {
		// Checked here, under the lock already held, so the steady state
		// of an upstream outage — every hit stale, one refresh parked on
		// the dead upstream — pays no extra lock round trip per hit. A
		// colliding key's flight holds the refresh off too: it is best
		// effort.
		_, inflight := sh.flights[h]
		hit.refresh, hit.prefetch = !inflight, hit.prefetch && !inflight
	}
	wire, toffs := sh.blockOf(r)
	hit.resp = append(dst, wire...)
	resp := hit.resp[len(dst):]
	dnswire.PatchID(resp, id)
	copy(resp[questionAt:], question)
	dnswire.DecayTTLsPacked(resp, toffs, uint32(remaining/time.Second))
	return hit, true
}

// afterHit starts the refresh serveLocked asked for, outside the shard
// lock. maybeRefresh re-checks the flight table under the lock, so the
// benign race with a just-started flight resolves to a no-op.
func (c *Cache) afterHit(sh *shard, kb []byte, h uint64, hit served) {
	if hit.refresh {
		c.maybeRefresh(sh, kb, h, hit.prefetch)
	}
}

// Exchange implements Resolver over ExchangeWire: the Message face of the
// cache, for callers that hold a *dnswire.Message (the study's clients,
// tests, set-up code). The response is a fresh unpack that shares nothing
// with the stored entry, so every caller may mutate it freely.
func (c *Cache) Exchange(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	return dnstransport.ExchangeMessage(ctx, c, q)
}

// ExchangeWire implements dnstransport.WireResolver: ExchangeQuery for the
// common stub shape dnswire.ParseQuery accepts. Any other query — several
// questions, a non-ASCII name, an unknown EDNS version — is uncacheable
// and passes straight through to the upstream.
func (c *Cache) ExchangeWire(ctx context.Context, query, dst []byte) ([]byte, error) {
	if q, ok := dnswire.ParseQuery(query); ok {
		return c.ExchangeQuery(ctx, &q, dst)
	}
	return c.bypass(ctx, query, nil, dst)
}

// bypass forwards an uncacheable query, bounded like any exchange the
// cache starts; q is its parsed view, when it has one. The reply is vetted
// like any other: nothing an upstream sends reaches a client unread.
func (c *Cache) bypass(ctx context.Context, query []byte, q *dnswire.Query, dst []byte) ([]byte, error) {
	telemetry.FromContext(ctx).SetCache(telemetry.CacheBypass)
	ctx, cancel := context.WithTimeout(ctx, c.exchangeTimeout)
	defer cancel()
	resp, err := c.wire.ExchangeWire(ctx, query, dst)
	if err != nil {
		return nil, err
	}
	resp, _, _, _, err = vet(dst, resp, q, nil)
	return resp, err
}

// vet decides what becomes of an upstream's reply to q, hostile until
// read: resp[len(dst):], appended to dst. One the strict scan passes is
// forwarded as it came, and may be stored as it came when storable is set.
// Anything else — and every reply to a query with no parsed view (q nil) —
// takes the Message fallback: if the codec can read it at all, its
// canonical re-pack, appended to dst in its place, is what is forwarded,
// scanned in turn; refused again (a reply that echoes no question, say) it
// still is forwarded, but never stored. What the codec cannot read fails
// the exchange. The scan's TTL offsets are appended to toffs.
func vet(dst, resp []byte, q *dnswire.Query, toffs []byte) (_ []byte, scan dnswire.ResponseScan, _ []byte, storable bool, err error) {
	if q != nil {
		if scan, toffs, err = dnswire.ScanResponse(resp[len(dst):], q, toffs); err == nil {
			return resp, scan, toffs, true, nil
		}
	}
	var m dnswire.Message
	if err = m.Unpack(resp[len(dst):]); err != nil {
		return nil, scan, toffs, false, err
	}
	// m holds copies of what it read, so it packs over the bytes it came from.
	if resp, err = m.AppendPack(dst); err != nil {
		return nil, scan, toffs, false, err
	}
	if q != nil {
		scan, toffs, err = dnswire.ScanResponse(resp[len(dst):], q, toffs[:0])
	}
	return resp, scan, toffs, q != nil && err == nil, nil
}

// ExchangeQuery answers the query q views, in packed form end to end, and
// appends the reply to dst: a hit is the stored bytes re-stamped with q's ID
// and question and decayed TTLs; a miss goes upstream as q.Raw, concurrent
// identical questions coalescing into one exchange, and comes back as the
// upstream's own bytes once the strict scan has passed them — the leader's
// written into dst by the upstream itself, a follower's copied there from
// the flight. Only the query's shard is locked, and never across the
// upstream call. The query's telemetry Transaction (if its server began one) learns
// the outcome — hit, negative hit, miss, coalesced or bypass — outside the
// shard lock.
func (c *Cache) ExchangeQuery(ctx context.Context, q *dnswire.Query, dst []byte) ([]byte, error) {
	tx := telemetry.FromContext(ctx)
	if q.Type == dnswire.TypeANY {
		return c.bypass(ctx, q.Raw, q, dst)
	}
	// The cache-lookup span covers key build, shard lock and the in-memory
	// decision; on a miss it ends when the flight is registered, so the
	// upstream wait never inflates it.
	tl := tx.TraceStart()
	var kbuf [keyBufLen]byte
	kb := q.AppendCanonicalQuestion(kbuf[:0])
	question := q.Raw[questionAt : questionAt+len(kb)]
	sh, h := c.shardFor(kb)

	sh.mu.Lock()
	// Feed the admission sketch once per cacheable lookup. ServeWire counts
	// the hits it serves itself; everything that reaches this lock — direct
	// Message-path traffic and wire-path misses falling through — is
	// counted here, so no query is sampled twice.
	if sh.sk != nil && sh.sk.add(h) {
		sh.stats.SketchResets++
	}
	if ri := sh.find(h, kb); ri != 0 {
		if hit, ok := c.serveLocked(sh, ri, h, question, q.ID, dst); ok {
			sh.mu.Unlock()
			tx.TraceSpan(qtrace.PhaseCache, tl)
			tx.SetCache(hit.outcome)
			c.afterHit(sh, kb, h, hit)
			return hit.resp, nil
		}
		sh.removeLocked(ri)
	}
	// Miss: join or start a flight. A flight of another key that shares this
	// one's hash is no company: the miss goes upstream on a flight of its
	// own that the table does not file, so nobody can join it, and it lands
	// without touching the other's entry.
	other, filed := sh.flights[h]
	if filed && string(other.key) == string(kb) {
		f := other
		sh.stats.Coalesced++
		if f.waiters++; f.done == nil {
			f.done = make(chan struct{}) // coalescing is rare: the first follower pays
		}
		done := f.done
		sh.mu.Unlock()
		tx.TraceSpan(qtrace.PhaseCache, tl)
		tx.SetCache(telemetry.CacheCoalesced)
		// The flight is bounded by its own deadline, so a follower needs
		// no timer: it leaves when the flight lands or its client does.
		select {
		case <-done:
			if f.err != nil {
				return nil, f.err
			}
			resp := append(dst, f.resp...)
			dnswire.PatchID(resp[len(dst):], q.ID)
			if f.scanned {
				copy(resp[len(dst)+questionAt:], question)
			}
			return resp, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	var f *flight
	if n := len(sh.free); n > 0 {
		f, sh.free = sh.free[n-1], sh.free[:n-1]
	} else {
		f = &flight{expired: make(chan struct{})}
	}
	f.key = append(f.key[:0], kb...)
	if !filed {
		sh.flights[h] = f
	}
	sh.stats.Misses++
	sh.mu.Unlock()
	tx.TraceSpan(qtrace.PhaseCache, tl)
	tx.SetCache(telemetry.CacheMiss)

	// The flight is the exchange's context: a black-holing upstream still
	// ends it, the leader's client disconnecting mid-flight does not.
	f.arm(ctx, c.exchangeTimeout)
	resp, err := c.wire.ExchangeWire(f, q.Raw, dst)

	// The admission span covers the scan, the admission filter and the
	// insert (evictions included) — the post-upstream cost of a miss.
	ta := tx.TraceStart()
	resp, err = c.land(sh, kb, h, f, q, dst, resp, err)
	tx.TraceSpan(qtrace.PhaseAdmit, ta)
	if err != nil {
		return nil, err
	}
	dnswire.PatchID(resp[len(dst):], q.ID)
	return resp, nil
}

// land closes flight f of key kb (hash h) with the outcome of its upstream
// exchange for q, the reply appended to dst in resp: the reply is vetted,
// and one that may be stored verbatim and is cacheable goes into the arena
// — admission is decided before anything is built, and admitted bytes are
// copied straight in. f leaves the flight table if it is the one filed
// under h. Coalesced callers get a private copy of the reply: resp is the
// caller's, and free to be overwritten the moment ExchangeQuery returns.
// Once land returns, f may already be another miss's.
func (c *Cache) land(sh *shard, kb []byte, h uint64, f *flight, q *dnswire.Query, dst, resp []byte, err error) ([]byte, error) {
	var tbuf [64]byte // 32 records' TTL offsets before the scan allocates
	toffs := tbuf[:0]
	var scan dnswire.ResponseScan
	storable := false
	if err == nil {
		resp, scan, toffs, storable, err = vet(dst, resp, q, toffs)
	}
	// A timer stopped while still pending never closes expired: with no
	// follower either, nobody else holds f any more.
	idle := f.timer != nil && f.timer.Stop()
	sh.mu.Lock()
	if sh.flights[h] == f {
		delete(sh.flights, h)
	}
	shared := f.waiters > 0
	if storable && cacheable(&scan) {
		c.insertLocked(sh, kb, h, resp[len(dst):], toffs, &scan)
	}
	if idle && !shared && len(sh.free) < maxFreeFlights {
		f.leader = nil
		sh.free = append(sh.free, f)
	}
	sh.mu.Unlock()
	if shared {
		if err == nil {
			f.resp = append([]byte(nil), resp[len(dst):]...)
		}
		f.err, f.scanned = err, storable
		close(f.done)
	}
	return resp, err
}

// removeLocked drops record ri from the index and the LRU ring, releases its
// byte accounting and puts it on the free list (its arena bytes stay dead in
// their slab until the next epoch rotation). Caller holds sh.mu.
func (sh *shard) removeLocked(ri uint32) {
	r := &sh.recs[ri]
	sh.unindex(ri)
	sh.unlink(ri)
	size := sh.size(r)
	sh.bytes -= int64(entryOverhead + size)
	sh.wireBytes -= size
	*r = record{next: sh.freeRec}
	sh.freeRec = ri
}

// needsEvict reports whether installing one more entry of the given cost
// would push the shard past its budget. Caller holds sh.mu.
func (sh *shard) needsEvict(cost int) bool {
	return sh.bytes+int64(cost) > sh.budget
}

// admitLocked runs the TinyLFU admission duel for a candidate that would
// evict: walking from the LRU tail, it accumulates the victims that would
// have to go for the candidate to fit. A victim already expired past any
// stale window is dead weight and never vetoes; a live victim vetoes when
// its estimated frequency is at least the candidate's — ties keep the
// incumbent, which is what stops a stream of once-asked names from
// churning an established working set. A victim's record keeps half its
// hash; the sketch's estimate hashes its stored key again. Caller holds
// sh.mu.
func (c *Cache) admitLocked(sh *shard, h uint64, cost int) bool {
	cf := sh.sk.estimate(h)
	now := c.sinceEpoch()
	freed := int64(0)
	for vi := sh.recs[0].prev; vi != 0 && sh.bytes-freed+int64(cost) > sh.budget; vi = sh.recs[vi].prev {
		v := &sh.recs[vi]
		if now < v.expiry()+c.staleWindow && sh.sk.estimate(c.keyHash(sh.key(v))) >= cf {
			return false
		}
		freed += int64(sh.cost(v))
	}
	return true
}

// rotateLocked starts a fresh arena epoch: entries expired past any stale
// window are dropped first (rotation doubles as the expiry sweep, and the
// drops count as evictions), then the live entries' blocks are compacted
// into new slabs — only the records' addresses change — and the retired
// slabs are recycled onto the free list. Caller holds sh.mu.
func (c *Cache) rotateLocked(sh *shard) {
	now := c.sinceEpoch()
	for ri := sh.recs[0].next; ri != 0; {
		r := &sh.recs[ri]
		next := r.next
		if now >= r.expiry()+c.staleWindow {
			sh.removeLocked(ri)
			sh.stats.Evictions++
		}
		ri = next
	}
	retired := sh.arena.beginEpoch()
	for ri := sh.recs[0].next; ri != 0; ri = sh.recs[ri].next {
		r := &sh.recs[ri]
		old := r.blockIn(retired)
		r.addr = sh.arena.alloc(len(old))
		copy(sh.arena.block(r.addr, len(old)), old)
	}
	sh.arena.recycle(retired)
	sh.stats.ArenaEpochs++
}

// insertLocked stores the scanned response wire (TTL offsets toffs) under
// key kb — replacing any existing entry for it, as a background refresh of
// a still-present stale entry does; replacement bypasses the admission
// filter, because a refresh that first dropped the old entry and then lost
// the duel would lose the name entirely — and evicts past the shard
// budget. Admission is decided from the sizes alone: a refused candidate
// costs no record and no copy; an admitted one is one block in the arena
// (count | wire | toffs, wire's question overwritten with kb, which it
// equals up to ASCII case) and one record, no heap object. It reports
// whether admission refused the insert; a reply that expired before the
// cache's epoch (a test clock set back past New) is not stored either.
// Caller holds sh.mu.
func (c *Cache) insertLocked(sh *shard, kb []byte, h uint64, wire, toffs []byte, scan *dnswire.ResponseScan) (rejected bool) {
	ttl := min(c.ttlOf(scan), c.maxTTL)
	expires, ok := expiryAt(c.now().Sub(c.epoch), ttl)
	if !ok {
		return false
	}
	block := blockHead + len(wire) + len(toffs)
	cost := entryOverhead + block
	old := sh.find(h, kb)
	// The TTL offsets of a reply that fits (two octets a record of at least
	// eleven) always fit the block's count.
	if len(wire) > math.MaxUint16 ||
		int64(cost) > sh.budget || // larger than the whole shard's budget
		(old == 0 && sh.sk != nil && sh.needsEvict(cost) && !c.admitLocked(sh, h, cost)) {
		sh.stats.AdmissionRejects++
		return true
	}
	if old != 0 {
		sh.removeLocked(old)
	}
	// When the epoch's handed-out bytes outweigh the live blocks by more
	// than a slab of slack, rotate first: compaction then reclaims more
	// than it copies.
	if sh.arena.used+block > 2*(sh.wireBytes+block)+sh.arena.slabSize {
		c.rotateLocked(sh)
	}
	ri := sh.newRecord()
	r := &sh.recs[ri]
	r.hash, r.expires, r.wlen = uint32(h), expires, uint16(len(wire))
	if scan.Negative() {
		r.flags = flagNegative
	} else if c.prefetchWindow > 0 && ttl > c.prefetchWindow {
		r.flags = flagPrefetchable
	}
	r.addr = sh.arena.alloc(block)
	binary.BigEndian.PutUint16(sh.arena.block(r.addr, blockHead), uint16(len(toffs)/2))
	w, t := sh.blockOf(r)
	copy(w, wire)
	copy(w[questionAt:], kb)
	copy(t, toffs)
	sh.pushFront(ri)
	sh.link(ri)
	sh.bytes += int64(cost)
	sh.wireBytes += block
	for sh.bytes > sh.budget {
		sh.removeLocked(sh.recs[0].prev)
		sh.stats.Evictions++
	}
	return false
}

// maybeRefresh starts a background singleflight refresh of key kb (hash h)
// unless an exchange for it — or for a key sharing its hash — is already in
// flight. prefetch labels the trigger for stats. Caller must not hold
// sh.mu.
func (c *Cache) maybeRefresh(sh *shard, kb []byte, h uint64, prefetch bool) {
	sh.mu.Lock()
	if _, inflight := sh.flights[h]; inflight {
		sh.mu.Unlock()
		return
	}
	f := &flight{key: append([]byte(nil), kb...)}
	sh.flights[h] = f
	sh.stats.Refreshes++
	if prefetch {
		sh.stats.Prefetches++
	}
	sh.mu.Unlock()
	go c.refresh(sh, h, f)
}

// refresh is the background half of serve-stale and prefetch: one upstream
// exchange re-populating f's key while foreground queries keep answering
// from the existing entry. It holds the key's singleflight slot, so
// concurrent misses for the same name join it instead of going upstream
// themselves. A failed refresh leaves the old entry in place — within a
// serve-stale window that is exactly the availability RFC 8767 wants.
func (c *Cache) refresh(sh *shard, h uint64, f *flight) {
	tx := c.tel.BeginBackground()
	defer tx.Finish()
	ctx, cancel := context.WithTimeout(telemetry.NewContext(context.Background(), tx), c.exchangeTimeout)
	defer cancel()
	q, err := refreshQuery(f.key)
	var resp []byte
	if err == nil {
		resp, err = c.wire.ExchangeWire(ctx, q.Raw, nil)
	}
	c.land(sh, f.key, h, f, &q, nil, resp, err)
}

// refreshQuery packs the question a cache key is into a fresh query for the
// background refresh, viewed the way a client's is: ID 0, RD set, and the
// OPT record (UDP size 4096) dnswire.NewQuery gives a query.
func refreshQuery(k []byte) (dnswire.Query, error) {
	wire := append([]byte{0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 1}, k...)
	wire = append(wire, 0, 0, byte(dnswire.TypeOPT), 4096>>8, 0, 0, 0, 0, 0, 0, 0)
	q, ok := dnswire.ParseQuery(wire)
	if !ok {
		return q, fmt.Errorf("dnscache: cannot rebuild the query of key %q", k)
	}
	return q, nil
}

// cacheable accepts positive answers and NXDOMAIN/NODATA (negative caching
// per RFC 2308); a truncated response, or any other RCODE, is forwarded
// but never stored.
func cacheable(scan *dnswire.ResponseScan) bool {
	return !scan.Truncated && (scan.RCode == dnswire.RCodeSuccess || scan.RCode == dnswire.RCodeNameError)
}

// ttlOf derives the cache lifetime of a scanned response: the smallest
// answer- or authority-section TTL for positive answers, or the RFC 2308
// §3/§5 negative TTL — min(SOA record TTL, SOA MINIMUM field) from the
// authority section — for negative ones, capped at the configured negative
// ceiling, which is also the lifetime of a negative answer carrying no SOA.
func (c *Cache) ttlOf(scan *dnswire.ResponseScan) time.Duration {
	if !scan.Negative() {
		return time.Duration(scan.MinTTL) * time.Second
	}
	ttl := c.negTTL
	if soa := time.Duration(scan.SOATTL) * time.Second; scan.HasSOA && soa < c.negTTL {
		ttl = soa
	}
	return ttl
}

var (
	_ dnstransport.Resolver     = (*Cache)(nil)
	_ dnstransport.WireResolver = (*Cache)(nil)
)
