package dnscache

// This file is the frequency half of TinyLFU admission (Einziger et al.,
// "TinyLFU: A Highly Efficient Cache Admission Policy"): a 4-bit count-min
// sketch with periodic halving, fronted by a doorkeeper bloom filter that
// absorbs the first sighting of every name. Each shard owns one sketch,
// fed under the shard lock it already holds, so the filter adds no
// synchronization and no allocation to the hit path.
//
// The estimate a sketch returns is a classic count-min upper bound on the
// true occurrence count since the last aging reset, saturated at 15 by the
// 4-bit counters, plus one if the doorkeeper has seen the key. Aging
// (reset) halves every counter and clears the doorkeeper, so across one
// reset an estimate of e can drop to no less than (e-1)/2 — floor((e-1)/2)
// from integer-halving the counters plus losing the doorkeeper bit. That
// bound, the monotonicity of add, and the determinism of the whole state
// machine for a given op sequence are pinned by FuzzSketchAdmission.

// sketchRows is the count-min row count: four independent hash rows, the
// depth at which the min estimate's error probability stops paying for
// more memory.
const sketchRows = 4

// sketchMax is the saturation ceiling of one 4-bit counter.
const sketchMax = 15

// sketch is a per-shard TinyLFU frequency filter. Not safe for concurrent
// use; callers hold the shard lock.
type sketch struct {
	// counters holds sketchRows × width 4-bit counters, two per byte; row
	// r occupies nibble indexes [r·width, (r+1)·width).
	counters []byte
	// mask is width−1 (width is a power of two).
	mask uint64
	// door is the doorkeeper bloom filter: width bits, two probes. A key's
	// first occurrence only sets its doorkeeper bits; the count-min rows
	// start counting from the second, so one-hit wonders never write the
	// counters at all.
	door []uint64
	// adds counts add calls since the last reset; at sample the sketch
	// ages itself.
	adds, sample int
}

// newSketch sizes a sketch for roughly expected concurrently-tracked keys:
// the row width is the next power of two of 2×expected (at least 256), the
// aging sample is 8×width adds. Memory is 2×width bytes of counters plus
// width bits of doorkeeper.
func newSketch(expected int) *sketch {
	w := 256
	for w < 2*expected && w < 1<<16 {
		w <<= 1
	}
	return &sketch{
		counters: make([]byte, sketchRows*w/2),
		mask:     uint64(w - 1),
		door:     make([]uint64, w/64),
		sample:   8 * w,
	}
}

// add records one occurrence of the key hashed to h and reports whether it
// triggered an aging reset. The first occurrence after a reset lands in
// the doorkeeper; subsequent ones bump the count-min rows conservatively
// (only the rows at the current minimum move), so an estimate never
// decreases across an add.
func (s *sketch) add(h uint64) bool {
	if s.doorSeen(h) {
		s.increment(h)
	} else {
		s.doorSet(h)
	}
	s.adds++
	if s.adds >= s.sample {
		s.reset()
		return true
	}
	return false
}

// estimate returns the frequency upper bound for h since the last reset:
// the count-min row minimum plus the doorkeeper bit.
func (s *sketch) estimate(h uint64) int {
	e := s.cmsMin(h)
	if s.doorSeen(h) {
		e++
	}
	return e
}

// admit decides a TinyLFU admission duel: the candidate must strictly beat
// the victim's estimated frequency to displace it — ties keep the
// incumbent, which is what stops a stream of new names from churning an
// established working set.
func (s *sketch) admit(candidate, victim uint64) bool {
	return s.estimate(candidate) > s.estimate(victim)
}

// reset ages the sketch: every 4-bit counter is halved in place (both
// nibbles of a byte at once: (b>>1)&0x77 clears the bit each nibble
// inherits from its neighbour) and the doorkeeper is cleared, so history
// decays geometrically and the sample window restarts half-full.
func (s *sketch) reset() {
	for i, b := range s.counters {
		s.counters[i] = (b >> 1) & 0x77
	}
	for i := range s.door {
		s.door[i] = 0
	}
	s.adds /= 2
}

// cmsMin is the count-min estimate: the minimum of the key's counter
// across the four rows.
func (s *sketch) cmsMin(h uint64) int {
	min := sketchMax + 1
	for r := 0; r < sketchRows; r++ {
		if c := s.counter(s.nibble(h, r)); c < min {
			min = c
		}
	}
	return min
}

// increment bumps the key's counters conservative-update style: only rows
// sitting at the current minimum move, and nothing moves once the minimum
// saturates — the variant that keeps count-min's no-underestimate
// guarantee while halving its overestimation.
func (s *sketch) increment(h uint64) {
	min := s.cmsMin(h)
	if min >= sketchMax {
		return
	}
	for r := 0; r < sketchRows; r++ {
		if i := s.nibble(h, r); s.counter(i) == min {
			s.bump(i)
		}
	}
}

// nibble maps (key hash, row) to the row's counter index. Row columns are
// derived double-hashing style from the two halves of the 64-bit hash, so
// the rows are pairwise-independent without per-row hashing.
func (s *sketch) nibble(h uint64, r int) int {
	col := (h + uint64(r+1)*(h>>32|1)) & s.mask
	return r*int(s.mask+1) + int(col)
}

// counter reads 4-bit counter i.
func (s *sketch) counter(i int) int {
	b := s.counters[i>>1]
	if i&1 == 1 {
		return int(b >> 4)
	}
	return int(b & 0x0F)
}

// bump increments 4-bit counter i (caller guarantees it is below
// saturation).
func (s *sketch) bump(i int) {
	if i&1 == 1 {
		s.counters[i>>1] += 0x10
	} else {
		s.counters[i>>1]++
	}
}

// doorProbes derives the doorkeeper's two bit positions for h.
func (s *sketch) doorProbes(h uint64) (uint64, uint64) {
	return h & s.mask, (h * 0x9E3779B97F4A7C15) & s.mask
}

// doorSeen reports whether both doorkeeper bits for h are set.
func (s *sketch) doorSeen(h uint64) bool {
	p1, p2 := s.doorProbes(h)
	return s.door[p1>>6]&(1<<(p1&63)) != 0 && s.door[p2>>6]&(1<<(p2&63)) != 0
}

// doorSet sets both doorkeeper bits for h.
func (s *sketch) doorSet(h uint64) {
	p1, p2 := s.doorProbes(h)
	s.door[p1>>6] |= 1 << (p1 & 63)
	s.door[p2>>6] |= 1 << (p2 & 63)
}
