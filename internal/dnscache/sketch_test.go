package dnscache

import "testing"

func sketchHash(k int) uint64 {
	return (uint64(k) + 1) * 0x9E3779B97F4A7C15
}

func TestSketchDoorkeeperAbsorbsFirstSighting(t *testing.T) {
	s := newSketch(16)
	h := sketchHash(1)
	if got := s.estimate(h); got != 0 {
		t.Fatalf("fresh key estimate = %d, want 0", got)
	}
	s.add(h)
	if got := s.estimate(h); got != 1 {
		t.Errorf("after one add estimate = %d, want 1", got)
	}
	if got := s.cmsMin(h); got != 0 {
		t.Errorf("first sighting wrote the count-min rows: cmsMin = %d, want 0 (doorkeeper should absorb it)", got)
	}
	s.add(h)
	if got := s.estimate(h); got != 2 {
		t.Errorf("after two adds estimate = %d, want 2", got)
	}
	if got := s.cmsMin(h); got != 1 {
		t.Errorf("second sighting cmsMin = %d, want 1", got)
	}
}

func TestSketchSaturates(t *testing.T) {
	s := newSketch(16)
	h := sketchHash(2)
	for i := 0; i < 100; i++ {
		s.add(h)
	}
	if got := s.estimate(h); got != sketchMax+1 {
		t.Errorf("saturated estimate = %d, want %d", got, sketchMax+1)
	}
}

func TestSketchResetHalves(t *testing.T) {
	s := newSketch(16)
	h := sketchHash(3)
	for i := 0; i < 10; i++ {
		s.add(h)
	}
	if got := s.estimate(h); got != 10 { // doorkeeper 1 + cms 9
		t.Fatalf("estimate = %d, want 10", got)
	}
	s.reset()
	// Counters halve (9 -> 4) and the doorkeeper bit is lost: exactly the
	// documented floor((e-1)/2) worst case.
	if got := s.estimate(h); got != 4 {
		t.Errorf("post-reset estimate = %d, want 4", got)
	}
}

func TestSketchAdmitTiesKeepIncumbent(t *testing.T) {
	s := newSketch(16)
	cand, vict := sketchHash(4), sketchHash(5)
	for i := 0; i < 3; i++ {
		s.add(cand)
		s.add(vict)
	}
	if s.admit(cand, vict) || s.admit(vict, cand) {
		t.Error("tie admitted a challenger")
	}
	s.add(cand)
	if !s.admit(cand, vict) {
		t.Error("strictly hotter candidate refused")
	}
	if s.admit(vict, cand) {
		t.Error("strictly colder candidate admitted")
	}
}

func TestSketchSampleTriggersAging(t *testing.T) {
	s := newSketch(1) // width 256, sample window 2048 adds
	fired := 0
	for i := 0; i < s.sample; i++ {
		if s.add(sketchHash(i)) {
			fired++
		}
	}
	if fired != 1 {
		t.Errorf("fired=%d after one full sample window, want 1", fired)
	}
	if s.adds != s.sample/2 {
		t.Errorf("adds = %d after aging, want %d (window restarts half-full)", s.adds, s.sample/2)
	}
}

// FuzzSketchAdmission pins the three properties the admission filter's
// correctness rests on, against arbitrary op sequences over eight keys:
//
//  1. No underestimation: estimate(k) never drops below a shadow lower
//     bound — adds raise it by one (saturating at 16), and one aging reset
//     lowers it to no less than floor((lb-1)/2).
//  2. Monotonicity: an add that does not trigger aging never decreases any
//     key's estimate.
//  3. Determinism: two sketches fed the identical op sequence agree on
//     every estimate and every admission duel at every step.
//
// Op encoding: low 3 bits pick the key; bit 7 forces an aging reset
// (otherwise the op is an add). Aging also fires naturally when the sample
// window fills.
func FuzzSketchAdmission(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{0, 0, 0, 0x80, 0, 0, 0x80, 0})
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0x81})
	f.Add([]byte{7, 3, 7, 3, 7, 0x80, 7, 3, 0x80, 0x80, 7})
	f.Fuzz(func(t *testing.T, ops []byte) {
		s1, s2 := newSketch(8), newSketch(8)
		var hs [8]uint64
		for k := range hs {
			hs[k] = sketchHash(k)
		}
		lb := [8]int{}
		ageAll := func() {
			for k := range lb {
				if lb[k] = (lb[k] - 1) / 2; lb[k] < 0 {
					lb[k] = 0
				}
			}
		}
		for i, op := range ops {
			k := int(op & 7)
			if op&0x80 != 0 {
				s1.reset()
				s2.reset()
				ageAll()
			} else {
				before := s1.estimate(hs[k])
				fired := s1.add(hs[k])
				if fired2 := s2.add(hs[k]); fired2 != fired {
					t.Fatalf("op %d: aging diverged between identical sketches", i)
				}
				if lb[k] = lb[k] + 1; lb[k] > sketchMax+1 {
					lb[k] = sketchMax + 1
				}
				if fired {
					ageAll()
				} else if after := s1.estimate(hs[k]); after < before {
					t.Fatalf("op %d: add decreased estimate of key %d: %d -> %d", i, k, before, after)
				}
			}
			for j, h := range hs {
				e1, e2 := s1.estimate(h), s2.estimate(h)
				if e1 != e2 {
					t.Fatalf("op %d: estimates diverged for key %d: %d vs %d", i, j, e1, e2)
				}
				if e1 < lb[j] {
					t.Fatalf("op %d: key %d underestimated: estimate %d < lower bound %d", i, j, e1, lb[j])
				}
			}
			for a := 0; a < len(hs); a++ {
				for b := 0; b < len(hs); b++ {
					if s1.admit(hs[a], hs[b]) != s2.admit(hs[a], hs[b]) {
						t.Fatalf("op %d: admission duel %d vs %d nondeterministic", i, a, b)
					}
				}
			}
		}
	})
}
