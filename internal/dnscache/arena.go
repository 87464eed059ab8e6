package dnscache

// This file is the storage half of the cache: each shard packs its entries'
// bytes (packed wire response, packed TTL offsets — one block) into
// append-only slabs instead of heap allocations per entry, so at production
// scale the garbage collector scans a handful of large []byte objects
// rather than millions of small ones. A block is addressed by slab number
// and offset, packed into one uint32, not by pointer, so the records that
// own blocks (index.go) hold no pointer either. Freed entries leave dead
// bytes behind in their slab; when an epoch's dead bytes outweigh its live
// ones, the shard rotates the epoch — expired blocks are dropped, live ones
// are copied into fresh slabs, and the retired slabs are recycled onto a
// bounded free list.
// Rotation runs under the shard lock, the same lock every reader copies
// entry bytes out under, so no response can alias a slab that has been
// recycled.

const (
	// defaultSlabSize is the arena's largest standard slab; shards scale
	// it down to their bound (see Cache.shardSlab) so small caches do not
	// round up to 256 KiB.
	defaultSlabSize = 256 << 10
	// minSlabSize floors the scaled-down slab.
	minSlabSize = 4 << 10
	// maxFreeSlabs bounds the per-shard recycled-slab list; beyond it,
	// retired slabs go back to the GC.
	maxFreeSlabs = 8
	// offBits is the width of the offset in a block's address,
	// slab<<offBits | off: an offset lies inside a standard slab, at most
	// defaultSlabSize long, or is 0 in an oversize one.
	offBits = 18
	offMask = 1<<offBits - 1
	// maxSlabs is how many slabs one epoch's addresses can number.
	maxSlabs = 1 << (32 - offBits)
)

// maxShardBudget is the largest shard budget an epoch's addresses cover.
// Between rotations a shard hands out less than 4 budgets and a slab
// (insertLocked rotates once the epoch's bytes pass twice the live blocks
// plus the new one, plus a slab, and neither exceeds the budget). Two
// consecutive standard slabs hold more than a slab between them, or the
// second one's first block would have fit the first, and an oversize slab
// holds more than a slab on its own, so an epoch of u bytes spans fewer
// than 2u/slab + 1 slabs: under 8·budget/slab + 3, which at 256 KiB slabs
// is 8 195 of maxSlabs' 16 384 for this budget (TestBudgetAddressBound).
// A smaller shard budget cuts a quarter of itself as its slab, at most 35
// of them.
const maxShardBudget = 256 << 20

// arena is a per-shard append-only block allocator. Not safe for
// concurrent use; callers hold the shard lock.
type arena struct {
	slabSize int
	// slabs holds this epoch's slabs, standard and oversize dedicated ones
	// alike, under the numbers blocks are addressed by; cur is the number
	// of the active standard slab, written at off (-1 before the first).
	slabs [][]byte
	cur   int
	off   int
	// used is the total bytes handed out this epoch, live and dead alike;
	// the rotation heuristic compares it with the shard's live payload.
	used int
	// free recycles standard-size slabs across epochs, so a steady-state
	// shard allocates no new slabs at all.
	free [][]byte
}

// newArena returns an arena cutting slabs of the given size, within
// minSlabSize and defaultSlabSize.
func newArena(slabSize int) *arena {
	return &arena{slabSize: min(max(slabSize, minSlabSize), defaultSlabSize), cur: -1}
}

// alloc reserves an n-byte block inside the current epoch and returns its
// address. Blocks larger than a slab get a dedicated slab (retired with the
// epoch like any other).
func (a *arena) alloc(n int) (addr uint32) {
	a.used += n
	if n > a.slabSize {
		a.slabs = append(a.slabs, make([]byte, n))
		return uint32(len(a.slabs)-1) << offBits
	}
	if a.cur < 0 || len(a.slabs[a.cur])-a.off < n {
		a.slabs = append(a.slabs, a.newSlab())
		a.cur, a.off = len(a.slabs)-1, 0
	}
	addr = uint32(a.cur)<<offBits | uint32(a.off)
	a.off += n
	return addr
}

// at returns the bytes of slabs from address addr to the end of its slab:
// slabs is this epoch's, or the retired one's during a rotation.
func at(slabs [][]byte, addr uint32) []byte {
	return slabs[addr>>offBits][addr&offMask:]
}

// block returns the n bytes at an address alloc handed out this epoch,
// capacity-clamped so an append by the caller cannot cross into a
// neighbouring entry's bytes.
func (a *arena) block(addr uint32, n int) []byte {
	return at(a.slabs, addr)[:n:n]
}

// newSlab takes a recycled slab if one is free, else cuts a fresh one.
func (a *arena) newSlab() []byte {
	if k := len(a.free); k > 0 {
		s := a.free[k-1]
		a.free = a.free[:k-1]
		return s
	}
	return make([]byte, a.slabSize)
}

// beginEpoch starts a fresh epoch and returns the retired slabs, still
// under their old numbers and still holding the previous epoch's bytes:
// the caller migrates live blocks (alloc draws only from the free list and
// fresh memory, never from the return value) and then hands the retirees
// to recycle.
func (a *arena) beginEpoch() [][]byte {
	retired := a.slabs
	a.slabs, a.cur, a.off, a.used = nil, -1, 0, 0
	return retired
}

// recycle returns retired standard-size slabs to the free list, up to
// maxFreeSlabs; oversize dedicated slabs and any overflow are dropped for
// the GC to reclaim.
func (a *arena) recycle(retired [][]byte) {
	for _, s := range retired {
		if len(s) == a.slabSize && len(a.free) < maxFreeSlabs {
			a.free = append(a.free, s)
		}
	}
}
