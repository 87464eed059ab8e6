package dnscache

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"dohcost/internal/dnswire"
	"dohcost/internal/telemetry"
)

// fastParse packs q and fast-parses it, failing the test on either step.
func fastParse(t *testing.T, q *dnswire.Message) (dnswire.Query, []byte) {
	t.Helper()
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	fq, ok := dnswire.ParseQuery(wire)
	if !ok {
		t.Fatalf("query %s not fast-parseable", q.Question1())
	}
	return fq, wire
}

func TestServeWireHitMatchesMessagePath(t *testing.T) {
	now := time.Unix(1000, 0)
	up := &countingUpstream{ttl: 300}
	c := New(up, withClock(func() time.Time { return now }))
	defer c.Close()

	// Prime via the Message path.
	if _, err := c.Exchange(context.Background(), dnswire.NewQuery(1, "wire.example.", dnswire.TypeA)); err != nil {
		t.Fatal(err)
	}

	// 45 seconds later, a different client asks with a different ID.
	now = now.Add(45 * time.Second)
	query := dnswire.NewQuery(0x4242, "Wire.Example.", dnswire.TypeA) // case-insensitive
	fq, _ := fastParse(t, query)
	resp, outcome, ok := c.ServeWire(nil, &fq, make([]byte, 0, 4096), 4096)
	if !ok {
		t.Fatal("wire path missed a primed entry")
	}
	if outcome != telemetry.CacheHit {
		t.Errorf("outcome = %v, want hit", outcome)
	}

	// The bytes must equal what the Message path would serve: same answer,
	// client's ID, TTL decayed by 45s.
	msg, err := c.Exchange(context.Background(), dnswire.NewQuery(0x4242, "wire.example.", dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	want, err := msg.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, want) {
		t.Errorf("wire path bytes diverge from Message path:\n wire %x\n msg  %x", resp, want)
	}
	var m dnswire.Message
	if err := m.Unpack(resp); err != nil {
		t.Fatal(err)
	}
	if m.ID != 0x4242 {
		t.Errorf("ID = %#x, want 0x4242", m.ID)
	}
	if got := m.Answers[0].TTL; got != 255 {
		t.Errorf("decayed TTL = %d, want 255", got)
	}
	if up.calls.Load() != 1 {
		t.Errorf("upstream called %d times, want 1", up.calls.Load())
	}
	if s := c.Stats(); s.Hits != 2 || s.Misses != 1 {
		t.Errorf("stats = %+v, want 2 hits / 1 miss", s)
	}
}

func TestServeWireDeclines(t *testing.T) {
	now := time.Unix(2000, 0)
	up := &countingUpstream{ttl: 60}
	c := New(up, withClock(func() time.Time { return now }))
	defer c.Close()

	fq, _ := fastParse(t, dnswire.NewQuery(1, "miss.example.", dnswire.TypeA))
	if _, _, ok := c.ServeWire(nil, &fq, nil, 0); ok {
		t.Error("wire path served an uncached name")
	}
	if s := c.Stats(); s.Hits != 0 || s.Misses != 0 {
		t.Errorf("a declined lookup must count nothing, got %+v", s)
	}

	if _, err := c.Exchange(context.Background(), dnswire.NewQuery(1, "miss.example.", dnswire.TypeA)); err != nil {
		t.Fatal(err)
	}

	// Response larger than the limit: decline so the Message path can
	// truncate, and count nothing (Exchange will count the hit).
	if _, _, ok := c.ServeWire(nil, &fq, nil, 20); ok {
		t.Error("wire path served past the size limit")
	}
	if s := c.Stats(); s.Hits != 0 {
		t.Errorf("declined oversized hit counted: %+v", s)
	}

	// Expired entries decline too; the Message path refreshes them.
	now = now.Add(2 * time.Minute)
	if _, _, ok := c.ServeWire(nil, &fq, nil, 0); ok {
		t.Error("wire path served an expired entry")
	}
}

func TestServeWireNegativeHit(t *testing.T) {
	up := &countingUpstream{rcode: dnswire.RCodeNameError, authority: []dnswire.ResourceRecord{{
		Name: "example.", Class: dnswire.ClassINET, TTL: 600,
		Data: &dnswire.SOA{MName: "ns.example.", RName: "root.example.", Minimum: 300},
	}}}
	c := New(up)
	defer c.Close()
	if _, err := c.Exchange(context.Background(), dnswire.NewQuery(1, "nx.example.", dnswire.TypeA)); err != nil {
		t.Fatal(err)
	}
	fq, _ := fastParse(t, dnswire.NewQuery(2, "nx.example.", dnswire.TypeA))
	resp, outcome, ok := c.ServeWire(nil, &fq, nil, 0)
	if !ok {
		t.Fatal("negative entry not served")
	}
	if outcome != telemetry.CacheNegativeHit {
		t.Errorf("outcome = %v, want negative hit", outcome)
	}
	var m dnswire.Message
	if err := m.Unpack(resp); err != nil {
		t.Fatal(err)
	}
	if m.RCode != dnswire.RCodeNameError || m.ID != 2 {
		t.Errorf("served %s id=%d, want NXDOMAIN id=2", m.RCode, m.ID)
	}
}

// TestServeWireHitAllocFree pins the zero-alloc wire hit on a fresh arena
// and in the arena's steady production state: a byte-budgeted cache whose
// arena has been through churn-forced epoch rotations (compacted slabs,
// recycled free list), so the hits read relocated blocks in recycled slabs,
// not pristine first-epoch ones. One shard, so every hot entry lives in
// the arena that rotated.
func TestServeWireHitAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name   string
		opts   []Option
		epochs int64
	}{
		{"fresh", nil, 0},
		{"rotated", []Option{WithShards(1), WithMemoryBudget(256 << 10)}, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(&countingUpstream{ttl: 300}, tc.opts...)
			defer c.Close()
			ctx := context.Background()
			const hot = 64
			hotName := func(i int) dnswire.Name { return dnswire.Name(fmt.Sprintf("hot%02d.example.", i)) }
			prime := func() {
				for i := 0; i < hot; i++ {
					if _, err := c.Exchange(ctx, dnswire.NewQuery(1, hotName(i), dnswire.TypeA)); err != nil {
						t.Fatal(err)
					}
				}
			}
			prime()
			for i := 0; c.Stats().ArenaEpochs < tc.epochs; i++ {
				if i == 1<<20 {
					t.Fatalf("no %d arena rotations after %d inserts: %+v", tc.epochs, i, c.Stats())
				}
				if _, err := c.Exchange(ctx, dnswire.NewQuery(1, dnswire.Name(fmt.Sprintf("churn%d.example.", i)), dnswire.TypeA)); err != nil {
					t.Fatal(err)
				}
			}
			prime() // re-prime anything the churn evicted
			queries := make([]dnswire.Query, hot)
			for i := range queries {
				queries[i], _ = fastParse(t, dnswire.NewQuery(uint16(i), hotName(i), dnswire.TypeA))
			}
			dst := make([]byte, 0, 4096)
			next := 0
			allocs := testing.AllocsPerRun(200, func() {
				if _, _, ok := c.ServeWire(nil, &queries[next%hot], dst[:0], 4096); !ok {
					t.Fatal("hit lost")
				}
				next++
			})
			if allocs != 0 {
				t.Errorf("wire hit allocates %.1f per query, want 0", allocs)
			}
		})
	}
}

func TestServeWireEntriesAreImmutable(t *testing.T) {
	up := &countingUpstream{ttl: 300}
	c := New(up)
	defer c.Close()
	if _, err := c.Exchange(context.Background(), dnswire.NewQuery(1, "imm.example.", dnswire.TypeA)); err != nil {
		t.Fatal(err)
	}
	fq, _ := fastParse(t, dnswire.NewQuery(2, "imm.example.", dnswire.TypeA))
	first, _, ok := c.ServeWire(nil, &fq, nil, 0)
	if !ok {
		t.Fatal("hit lost")
	}
	snapshot := append([]byte(nil), first...)
	for i := range first {
		first[i] = 0xFF // a hostile caller scribbles on its response
	}
	second, _, ok := c.ServeWire(nil, &fq, nil, 0)
	if !ok {
		t.Fatal("hit lost")
	}
	if !bytes.Equal(second, snapshot) {
		t.Error("stored entry mutated through a served response")
	}
	// Message-path responses from the same entry are fully independent too:
	// mutating one caller's EDNS must not leak into the next response
	// (the shared-EDNS hazard the old deep clone left open).
	r1, err := c.Exchange(context.Background(), dnswire.NewQuery(3, "imm.example.", dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	if r1.EDNS != nil {
		r1.EDNS.UDPSize = 1
		r1.EDNS.Options = append(r1.EDNS.Options, dnswire.EDNS0Option{Code: 12, Data: make([]byte, 8)})
	}
	r1.Answers[0].Data.(*dnswire.TXT).Strings[0] = "scribbled"
	r2, err := c.Exchange(context.Background(), dnswire.NewQuery(4, "imm.example.", dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	if r2.EDNS != nil && (r2.EDNS.UDPSize == 1 || len(r2.EDNS.Options) != 0) {
		t.Error("EDNS shared between cache hits")
	}
	if r2.Answers[0].Data.(*dnswire.TXT).Strings[0] != "cached?" {
		t.Error("rdata shared between cache hits")
	}
}
