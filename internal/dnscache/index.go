package dnscache

import (
	"encoding/binary"
	"math"
	"time"
	"unsafe"
)

// This file is the index half of the cache's storage: what a shard keeps
// per cached name outside the arena (docs/CACHE.md draws index → record →
// arena block). A name owns no Go heap object and no Go pointer, so the
// collector never walks the index, however many names it holds. The index
// is open-addressed with linear probing and backward-shift deletion (no
// tombstones), doubled when three quarters full. Records never move while
// live: an epoch rotation rewrites addr, nothing else.

// record is one cached response's fixed-size descriptor, 24 bytes. Its
// bytes live in the shard's arena as one block, count | wire | toffs: the
// big-endian uint16 number of its TTL offsets; the packed response as the
// upstream sent it but for its question, overwritten with the cache key
// (the same question, letters lower-cased), still carrying the flight
// leader's transaction ID — hits restamp their own copy with the asker's
// question and ID; then the packed big-endian uint16 list of its TTL
// offsets (dnswire.PackTTLOffsets form) for in-place decay. The block is
// never rewritten in place, but epoch rotation relocates it, so readers
// copy out under the shard lock, which guards every field here too.
type record struct {
	// hash is the low half of the key's 64-bit hash: the index places and
	// probes by it and compares it before any key byte. The flight table
	// and the admission sketch key on the whole hash, which a lookup has
	// and an eviction victim's estimate recomputes from its stored key.
	hash uint32
	// expires is the entry's expiry in whole seconds past the cache's
	// epoch, rounded down (expiryAt).
	expires uint32
	// prev and next link the shard's LRU ring by record number (recs[0] is
	// the sentinel); next also threads the free list.
	prev, next uint32
	// addr is the block's arena address, slab<<offBits | off.
	addr uint32
	wlen uint16
	// hits counts fresh hits since insertion, saturating — the hotness
	// signal the near-expiry prefetch gates on.
	hits  uint8
	flags uint8
}

const (
	// flagNegative records the RFC 2308 NXDOMAIN/NODATA classification, so
	// the wire hit path can label telemetry without parsing.
	flagNegative = 1 << iota
	// flagPrefetchable marks a positive entry inserted with a lifetime
	// longer than the prefetch window, the only kind a near-expiry hit
	// refreshes early: for one that lives no longer than the window "near
	// expiry" is always true, and prefetching would turn every couple of
	// hits into upstream traffic — amplification, where the feature exists
	// to save misses on names that outlive the window.
	flagPrefetchable
)

// entryOverhead is one entry's index cost outside its arena block, charged
// against the memory budget so the budget tracks resident footprint: the
// record plus its index slot at the table's mean load of one half.
const entryOverhead = int(unsafe.Sizeof(record{})) + 2*4

// blockHead is the length of a block's TTL-offset count.
const blockHead = 2

// expiryAt is the expiry a record stores for an entry that lives ttl past
// now, both measured from the cache's epoch: the exact expiry rounded down
// to a whole second, so the entry is never fresh, stale-servable or due a
// prefetch later, nor served a higher TTL, than the exact one allows. One
// past what 32 bits of seconds hold is cut to the last of them; ok=false
// means the exact expiry precedes the epoch, which no stored expiry can be
// rounded down to.
func expiryAt(now, ttl time.Duration) (expires uint32, ok bool) {
	e := now + ttl
	if ttl > 0 && e < now {
		e = math.MaxInt64 // overflowed
	}
	if e < 0 {
		return 0, false
	}
	return uint32(min(e/time.Second, math.MaxUint32)), true
}

// expiry is r's expiry past the cache's epoch.
func (r *record) expiry() time.Duration { return time.Duration(r.expires) * time.Second }

// blockIn returns r's block, count | wire | toffs, in slabs: the arena's,
// or during a rotation the retired epoch's.
func (r *record) blockIn(slabs [][]byte) []byte {
	b := at(slabs, r.addr)
	n := blockHead + int(r.wlen) + 2*int(binary.BigEndian.Uint16(b))
	return b[:n:n]
}

// blockOf returns r's arena block split into its reply and TTL offsets.
func (sh *shard) blockOf(r *record) (wire, toffs []byte) {
	b := r.blockIn(sh.arena.slabs)
	w := blockHead + int(r.wlen)
	return b[blockHead:w:w], b[w:]
}

// size is the length of r's arena block.
func (sh *shard) size(r *record) int { return len(r.blockIn(sh.arena.slabs)) }

// cost is r's accounted footprint against the memory budget.
func (sh *shard) cost(r *record) int { return entryOverhead + sh.size(r) }

// key returns the key r is filed under: its stored reply's question, a
// name ScanResponse has read uncompressed, then type and class.
func (sh *shard) key(r *record) []byte {
	wire, _ := sh.blockOf(r)
	end := questionAt
	for wire[end] != 0 {
		end += 1 + int(wire[end])
	}
	return wire[questionAt : end+5]
}

// find returns the number of the record holding key kb, whose hash is h,
// or 0: the one whose stored question is kb (a wire name ends where its
// root octet does, so no key is a prefix of another). The table always
// has an empty slot, so the probe ends.
func (sh *shard) find(h uint64, kb []byte) uint32 {
	mask := uint64(len(sh.index) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		ri := sh.index[i]
		if ri == 0 {
			return 0
		}
		if r := &sh.recs[ri]; r.hash == uint32(h) && int(r.wlen) >= questionAt+len(kb) &&
			string(at(sh.arena.slabs, r.addr)[blockHead+questionAt:][:len(kb)]) == string(kb) {
			return ri
		}
	}
}

// link enters record ri in the index, doubling the table first when it is
// three quarters full.
func (sh *shard) link(ri uint32) {
	if (sh.n+1)*4 > len(sh.index)*3 {
		old := sh.index
		sh.index = make([]uint32, 2*len(old))
		for _, rj := range old {
			if rj != 0 {
				sh.place(rj)
			}
		}
	}
	sh.place(ri)
	sh.n++
}

// place puts ri in the first empty slot of its probe run.
func (sh *shard) place(ri uint32) {
	mask := uint64(len(sh.index) - 1)
	i := uint64(sh.recs[ri].hash) & mask
	for sh.index[i] != 0 {
		i = (i + 1) & mask
	}
	sh.index[i] = ri
}

// unindex takes record ri out of the index: the run behind its slot is
// shifted back over it, each record moving only as far as its own home
// slot allows, so every probe still finds what it found before.
func (sh *shard) unindex(ri uint32) {
	mask := uint64(len(sh.index) - 1)
	i := uint64(sh.recs[ri].hash) & mask
	for sh.index[i] != ri {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; sh.index[j] != 0; j = (j + 1) & mask {
		// A record whose home lies cyclically in (i, j] must stay behind i.
		if home := uint64(sh.recs[sh.index[j]].hash) & mask; (j-home)&mask >= (j-i)&mask {
			sh.index[i] = sh.index[j]
			i = j
		}
	}
	sh.index[i] = 0
	sh.n--
}

// newRecord returns the number of a record zero but for its links: the head
// of the free list (removeLocked cleared it), else one appended. The table
// grows by a sixteenth at a time — not append's quarter to double — because
// its slack is resident memory the budget does not see.
func (sh *shard) newRecord() uint32 {
	if ri := sh.freeRec; ri != 0 {
		sh.freeRec = sh.recs[ri].next
		return ri
	}
	if n := len(sh.recs); n == cap(sh.recs) {
		grown := make([]record, n, n+n/16+16)
		copy(grown, sh.recs)
		sh.recs = grown
	}
	sh.recs = append(sh.recs, record{})
	return uint32(len(sh.recs) - 1)
}

// pushFront links record ri into the LRU ring as the most recent entry.
func (sh *shard) pushFront(ri uint32) {
	first := sh.recs[0].next
	sh.recs[ri].prev, sh.recs[ri].next = 0, first
	sh.recs[first].prev, sh.recs[0].next = ri, ri
}

// unlink takes record ri out of the LRU ring.
func (sh *shard) unlink(ri uint32) {
	r := &sh.recs[ri]
	sh.recs[r.prev].next, sh.recs[r.next].prev = r.next, r.prev
}

// resetIndex empties the shard's tables.
func (sh *shard) resetIndex() {
	sh.recs = make([]record, 1, 16) // the LRU sentinel, linked to itself
	sh.index = make([]uint32, 16)
	sh.freeRec, sh.n = 0, 0
}
