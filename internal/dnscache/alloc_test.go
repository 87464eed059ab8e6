package dnscache

import (
	"context"
	"testing"

	"dohcost/internal/dnswire"
)

// replyUpstream answers every query with one A record — between the
// question and whatever the query carries behind it (its OPT record) —
// appended to the caller's buffer, as a transport client copies a reply out
// of its read buffer.
type replyUpstream struct{}

func (replyUpstream) ExchangeWire(_ context.Context, query, dst []byte) ([]byte, error) {
	end := 12
	for query[end] != 0 {
		end += 1 + int(query[end])
	}
	end += 5 // root label, type, class
	base := len(dst)
	resp := append(dst, query[:end]...)
	resp[base+2] |= 0x80 // QR
	resp[base+7] = 1     // ANCOUNT
	resp = append(resp, 0xC0, 12, 0, 1, 0, 1, 0, 0, 1, 44, 0, 4, 192, 0, 2, 1)
	return append(resp, query[end:]...), nil
}

func (u replyUpstream) Exchange(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	panic("the cache must take the wire path")
}

func (replyUpstream) Close() error { return nil }

// TestAdmittedMissAllocs pins what a miss that is admitted and inserted
// costs the cache itself: nothing but the tables' growth, amortised to a
// fraction AllocsPerRun rounds away. The flight is recycled and filed under
// the key's hash, its key bytes kept in it (a key string was one
// allocation); the upstream appends the reply to the caller's buffer (a
// reply of its own was another); the entry is a block in the arena and a
// record in a table, no object of its own (it was a third).
func TestAdmittedMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool and instrumentation allocate")
	}
	c := New(replyUpstream{}, WithMemoryBudget(64<<20), WithTinyLFU())
	defer c.Close()
	wire, err := dnswire.NewQuery(7, "n0000000.miss.example.", dnswire.TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	ctx, seq := context.Background(), 0
	buf := make([]byte, 0, 512)
	miss := func() {
		seq++
		for i, n := 20, seq; i > 13; i, n = i-1, n/10 {
			wire[i] = '0' + byte(n%10) // the digits of "n0000000"
		}
		q, ok := dnswire.ParseQuery(wire)
		if !ok {
			t.Fatal("ParseQuery declined the query")
		}
		if resp, err := c.ExchangeQuery(ctx, &q, buf); err != nil || len(resp) != len(wire)+16 || &resp[0] != &buf[:1][0] {
			t.Fatalf("miss: %d bytes, err %v", len(resp), err)
		}
	}
	const runs = 2000
	got := testing.AllocsPerRun(runs, miss)
	if s := c.Stats(); s.Misses != runs+1 || c.Len() != runs+1 {
		t.Fatalf("%d misses stored %d entries, want %d of each", s.Misses, c.Len(), runs+1)
	}
	if got > 0 {
		t.Errorf("an admitted miss allocates %.0f times, want none but the tables' amortised growth", got)
	}
	t.Logf("allocs per admitted miss: %.0f", got)
}
