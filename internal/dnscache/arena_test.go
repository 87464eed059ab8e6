package dnscache

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dohcost/internal/dnswire"
)

func TestArenaAlloc(t *testing.T) {
	a := newArena(minSlabSize)
	a1 := a.alloc(100)
	b1 := a.block(a1, 100)
	if len(b1) != 100 || cap(b1) != 100 {
		t.Errorf("block len/cap = %d/%d, want 100/100 (capacity clamp)", len(b1), cap(b1))
	}
	a2 := a.alloc(50)
	if a2 != a1+100 {
		t.Errorf("second block at %#x, want packed behind the first (%#x)", a2, a1+100)
	}
	// The clamp means an append to b1 cannot run into b2's bytes.
	b1 = append(b1, 0xFF)
	if a.block(a2, 50)[0] == 0xFF {
		t.Error("append to one block scribbled on its neighbour")
	}
	if a.used != 150 {
		t.Errorf("used = %d, want 150", a.used)
	}

	// Oversize blocks get a dedicated slab, retired with the epoch, and
	// leave the active slab active.
	ab := a.alloc(minSlabSize + 1)
	if ab>>offBits == a1>>offBits || ab&offMask != 0 || len(a.block(ab, minSlabSize+1)) != minSlabSize+1 {
		t.Fatalf("oversize block at slab %d offset %d", ab>>offBits, ab&offMask)
	}
	if a3 := a.alloc(10); a3 != a1+150 {
		t.Errorf("block after an oversize one at %#x, want the active slab's %#x", a3, a1+150)
	}

	retired := a.beginEpoch()
	if len(retired) != 2 { // active slab + dedicated slab
		t.Errorf("retired %d slabs, want 2", len(retired))
	}
	if a.used != 0 || a.off != 0 || a.cur != -1 || a.slabs != nil {
		t.Error("beginEpoch did not reset the arena")
	}
	a.recycle(retired)
	if len(a.free) != 1 {
		t.Errorf("free list holds %d slabs, want 1 (oversize slabs are not recycled)", len(a.free))
	}

	// The next slab must come from the free list, not a fresh allocation.
	reused := a.free[0]
	if ad := a.alloc(10); &a.block(ad, 10)[0] != &reused[0] {
		t.Error("recycled slab not reused")
	}
}

func TestArenaFreeListBounded(t *testing.T) {
	a := newArena(minSlabSize)
	var retired [][]byte
	for i := 0; i < maxFreeSlabs+4; i++ {
		retired = append(retired, make([]byte, minSlabSize))
	}
	a.recycle(retired)
	if len(a.free) != maxFreeSlabs {
		t.Errorf("free list holds %d slabs, want %d", len(a.free), maxFreeSlabs)
	}
}

// TestArenaRotationAliasing hammers hot names through the zero-alloc wire
// path while a churn writer forces continual arena epoch rotations, under
// the race detector when enabled. It proves three properties at once:
// served bytes always match the Message path byte for byte, responses
// handed to callers never alias a slab that a later rotation recycles
// (retained responses stay intact), and rotation itself is race-free
// against concurrent readers.
func TestArenaRotationAliasing(t *testing.T) {
	now := time.Unix(9000, 0)
	up := &sizedUpstream{ttl: 300}
	c := New(up,
		withClock(func() time.Time { return now }),
		WithMemoryBudget(8<<10),
		WithShards(1),
		withArenaSlab(minSlabSize),
	)
	defer c.Close()
	ctx := context.Background()

	// Prime the hot set and record, per name, the exact bytes every future
	// wire hit must serve: the clock is frozen, so TTLs never decay and the
	// expected response is a constant.
	const hotNames = 4
	type hot struct {
		fq   dnswire.Query
		q    *dnswire.Message
		want []byte
	}
	hots := make([]*hot, hotNames)
	for i := range hots {
		name := dnswire.Name(fmt.Sprintf("hot%d.arena.example.", i))
		q := dnswire.NewQuery(uint16(0x1000+i), name, dnswire.TypeA)
		if _, err := c.Exchange(ctx, q); err != nil {
			t.Fatal(err)
		}
		fq, _ := fastParse(t, q)
		resp, _, ok := c.ServeWire(nil, &fq, nil, 0)
		if !ok {
			t.Fatalf("%s not served after priming", name)
		}
		// Cross-check against the Message path before trusting it as the
		// oracle for the concurrent phase.
		msg, err := c.Exchange(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := msg.Pack()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resp, want) {
			t.Fatalf("%s: wire path diverges from Message path before churn", name)
		}
		hots[i] = &hot{fq: fq, q: q, want: want}
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	fail := func(format string, args ...any) {
		select {
		case errc <- fmt.Errorf(format, args...):
		default:
		}
	}

	// Readers: hammer the hot names through ServeWire, verifying every
	// response and retaining a sample of returned buffers to re-verify after
	// the churn — a response aliasing a recycled slab would be rewritten
	// under them.
	const readers = 4
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var retained [][]byte
			var retainedWant [][]byte
			dst := make([]byte, 0, 4096)
			for i := 0; !done.Load(); i++ {
				h := hots[(r+i)%hotNames]
				resp, _, ok := c.ServeWire(nil, &h.fq, dst[:0], 0)
				if !ok {
					// The churn can evict a hot entry (plain LRU, no
					// admission filter here); re-prime and move on.
					if _, err := c.Exchange(ctx, h.q); err != nil {
						fail("re-prime %s: %v", h.q.Question1().Name, err)
						return
					}
					continue
				}
				if !bytes.Equal(resp, h.want) {
					fail("reader %d: served bytes diverge for %s", r, h.q.Question1().Name)
					return
				}
				if i%256 == 0 && len(retained) < 64 {
					keep, _, ok := c.ServeWire(nil, &h.fq, nil, 0)
					if ok {
						retained = append(retained, keep)
						retainedWant = append(retainedWant, h.want)
					}
				}
			}
			for i, keep := range retained {
				if !bytes.Equal(keep, retainedWant[i]) {
					fail("reader %d: retained response %d corrupted after arena rotations", r, i)
					return
				}
			}
		}(r)
	}

	// Churn writer: a stream of unique names over a small byte budget keeps
	// evicting, piling dead bytes into the arena until rotation after
	// rotation fires.
	for i := 0; i < 4000; i++ {
		if _, err := c.Exchange(ctx, dnswire.NewQuery(1, dnswire.Name(fmt.Sprintf("churn%d.arena.example.", i)), dnswire.TypeA)); err != nil {
			t.Fatal(err)
		}
	}
	done.Store(true)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	if s := c.Stats(); s.ArenaEpochs == 0 {
		t.Error("churn forced no arena rotations — the test exercised nothing")
	}
	checkBudgetInvariants(t, c)
}
