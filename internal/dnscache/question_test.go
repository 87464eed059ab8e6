package dnscache

// The key is the stored reply's question: what that means for names whose
// labels differ only where the presentation form cannot tell (a '.' inside
// a label), for askers who case their names differently (DNS 0x20), and for
// the query a background refresh rebuilds from the key alone.

import (
	"bytes"
	"context"
	"encoding/binary"
	"testing"
	"time"

	"dohcost/internal/dnswire"
	"dohcost/internal/telemetry"
)

// rawQuery packs a stub's query for the name made of labels: RD set, one
// question of type A and class IN, no OPT. Unlike Message.Pack it keeps
// every label's octets as given — a '.' inside one, upper-case letters.
func rawQuery(id uint16, labels ...string) []byte {
	q := []byte{byte(id >> 8), byte(id), 1, 0, 0, 1, 0, 0, 0, 0, 0, 0}
	for _, l := range labels {
		q = append(append(q, byte(len(l))), l...)
	}
	return append(q, 0, 0, byte(dnswire.TypeA), 0, byte(dnswire.ClassINET))
}

// rawAnswer is an upstream's reply to a rawQuery: the query echoed with QR
// and RA set, then one A record, TTL 300, owned by a pointer to the
// question's name. Its address is 192.0.2.n for a name of n labels, so a
// reply tells which of two names it answers.
func rawAnswer(query []byte) []byte {
	r := append([]byte(nil), query...)
	r[2], r[3], r[7] = r[2]|0x80, r[3]|0x80, 1 // QR, RA, ANCOUNT
	labels := byte(0)
	for off := questionAt; r[off] != 0; off += 1 + int(r[off]) {
		labels++
	}
	return append(r, 0xC0, questionAt, 0, byte(dnswire.TypeA), 0, byte(dnswire.ClassINET),
		0, 0, 300>>8, 300&0xFF, 0, 4, 192, 0, 2, labels)
}

// parsed is ParseQuery that fails the test on a query it declines.
func parsed(t *testing.T, query []byte) dnswire.Query {
	t.Helper()
	q, ok := dnswire.ParseQuery(query)
	if !ok {
		t.Fatalf("query %x not fast-parseable", query)
	}
	return q
}

// answeringUpstream replies rawAnswer to every query, once release (if not
// nil) is closed.
func answeringUpstream(release chan struct{}) *wireUpstream {
	return &wireUpstream{reply: func(_ context.Context, query []byte) ([]byte, error) {
		if release != nil {
			<-release
		}
		return rawAnswer(query), nil
	}}
}

// TestLabelBoundariesKeepEntriesApart: the one-label name "a.b" and the
// two-label name a.b print alike, but they are different names. Each misses
// on its own, is stored apart, and is answered from its own entry.
func TestLabelBoundariesKeepEntriesApart(t *testing.T) {
	up := answeringUpstream(nil)
	now := time.Now()
	c := New(up, withClock(func() time.Time { return now })) // a hit decays nothing
	defer c.Close()
	queries := [][]byte{rawQuery(1, "a.b"), rawQuery(2, "a", "b")}
	for _, query := range queries {
		q := parsed(t, query)
		if resp, err := c.ExchangeQuery(context.Background(), &q, nil); err != nil || !bytes.Equal(resp, rawAnswer(query)) {
			t.Errorf("miss for %x: err %v, reply\n %x\nwant\n %x", query, err, resp, rawAnswer(query))
		}
	}
	if s := c.Stats(); up.calls.Load() != 2 || s.Misses != 2 || c.Len() != 2 {
		t.Fatalf("%d upstream exchanges, %d entries, stats %+v: want two of each", up.calls.Load(), c.Len(), s)
	}
	for _, query := range queries {
		q := parsed(t, query)
		if hit, _, ok := c.ServeWire(nil, &q, nil, 0); !ok || !bytes.Equal(hit, rawAnswer(query)) {
			t.Errorf("hit for %x: ok=%v, reply\n %x\nwant\n %x", query, ok, hit, rawAnswer(query))
		}
	}
}

// TestLabelBoundariesFlyApart: concurrent callers of the two names make two
// flights, not one; each name's followers coalesce onto their own name's
// flight and get their own name's answer under their own ID.
func TestLabelBoundariesFlyApart(t *testing.T) {
	release := make(chan struct{})
	up := answeringUpstream(release)
	c := New(up)
	defer c.Close()
	const callers = 4 // per name
	queries := make(map[uint16][]byte)
	results := make(chan missResult, 2*callers)
	for i := uint16(0); i < callers; i++ {
		one, two := rawQuery(0x100+i, "a.b"), rawQuery(0x200+i, "a", "b")
		queries[0x100+i], queries[0x200+i] = one, two
		askAsync(c, parsed(t, one), results)
		askAsync(c, parsed(t, two), results)
	}
	waitUntil(t, "each name's followers to coalesce", func() bool {
		return c.Stats().Coalesced == 2*(callers-1) && up.calls.Load() == 2
	})
	close(release)
	for i := 0; i < 2*callers; i++ {
		r := <-results
		if want := rawAnswer(queries[r.id]); r.err != nil || !bytes.Equal(r.resp, want) {
			t.Errorf("caller %#x: err %v, reply\n %x\nwant\n %x", r.id, r.err, r.resp, want)
		}
	}
	if s := c.Stats(); up.calls.Load() != 2 || s.Misses != 2 || s.Coalesced != 2*(callers-1) {
		t.Errorf("%d upstream exchanges, stats %+v: want 2 misses and %d coalesced", up.calls.Load(), s, 2*(callers-1))
	}
}

// TestHitsEchoTheAskersQuestion: an entry primed by wire.example. answers
// WiRe.ExAmPlE. with the asker's question, byte for byte, and the asker's
// ID (DNS 0x20) — on a fresh hit, on a stale hit, and as a follower of a
// flight led by the primer.
func TestHitsEchoTheAskersQuestion(t *testing.T) {
	primer, asker := rawQuery(1, "wire", "example"), rawQuery(0xABCD, "WiRe", "ExAmPlE")
	ctx := context.Background()

	t.Run("hit", func(t *testing.T) {
		now := time.Now()
		c := New(answeringUpstream(nil), WithServeStale(time.Hour), withClock(func() time.Time { return now }))
		defer c.Close()
		p := parsed(t, primer)
		if _, err := c.ExchangeQuery(ctx, &p, nil); err != nil {
			t.Fatal(err)
		}
		q := parsed(t, asker)
		want := rawAnswer(asker)
		if hit, _, ok := c.ServeWire(nil, &q, nil, 0); !ok || !bytes.Equal(hit, want) {
			t.Errorf("ServeWire hit: ok=%v, reply\n %x\nwant\n %x", ok, hit, want)
		}
		if hit, err := c.ExchangeQuery(ctx, &q, nil); err != nil || !bytes.Equal(hit, want) {
			t.Errorf("ExchangeQuery hit: err %v, reply\n %x\nwant\n %x", err, hit, want)
		}

		now = now.Add(301 * time.Second) // past the TTL, inside the stale window
		binary.BigEndian.PutUint32(want[len(want)-10:], uint32(StaleTTL/time.Second))
		hit, outcome, ok := c.ServeWire(nil, &q, nil, 0)
		if !ok || outcome != telemetry.CacheStaleHit || !bytes.Equal(hit, want) {
			t.Errorf("stale hit: ok=%v outcome %v, reply\n %x\nwant\n %x", ok, outcome, hit, want)
		}
		drainFlights(c)
	})

	t.Run("follower", func(t *testing.T) {
		release := make(chan struct{})
		up := answeringUpstream(release)
		c := New(up)
		defer c.Close()
		results := make(chan missResult, 2)
		askAsync(c, parsed(t, primer), results)
		waitUntil(t, "the primer to go upstream", func() bool { return up.calls.Load() == 1 })
		askAsync(c, parsed(t, asker), results)
		waitUntil(t, "the asker to coalesce", func() bool { return c.Stats().Coalesced == 1 })
		close(release)
		for i := 0; i < 2; i++ {
			r := <-results
			query := primer
			if r.id == 0xABCD {
				query = asker
			}
			if want := rawAnswer(query); r.err != nil || !bytes.Equal(r.resp, want) {
				t.Errorf("caller %#x: err %v, reply\n %x\nwant\n %x", r.id, r.err, r.resp, want)
			}
		}
	})

	// A reply that repeats no question is forwarded but never stored; a
	// follower gets it as the leader does, under its own ID, with nothing
	// written where a question would have been.
	t.Run("questionless", func(t *testing.T) {
		release := make(chan struct{})
		up := &wireUpstream{reply: func(_ context.Context, query []byte) ([]byte, error) {
			<-release
			return append([]byte{0, 0, 0x81, 0x80, 0, 0, 0, 1, 0, 0, 0, 0},
				5, 'o', 't', 'h', 'e', 'r', 7, 'e', 'x', 'a', 'm', 'p', 'l', 'e', 0,
				0, byte(dnswire.TypeTXT), 0, byte(dnswire.ClassINET), 0, 0, 1, 44, 0, 3, 2, 'h', 'i'), nil
		}}
		c := New(up)
		defer c.Close()
		results := make(chan missResult, 2)
		askAsync(c, parsed(t, primer), results)
		waitUntil(t, "the primer to go upstream", func() bool { return up.calls.Load() == 1 })
		askAsync(c, parsed(t, asker), results)
		waitUntil(t, "the asker to coalesce", func() bool { return c.Stats().Coalesced == 1 })
		close(release)
		got := map[uint16][]byte{}
		for i := 0; i < 2; i++ {
			r := <-results
			if r.err != nil {
				t.Fatalf("caller %#x: %v", r.id, r.err)
			}
			got[r.id] = r.resp
		}
		want := append([]byte(nil), got[1]...)
		dnswire.PatchID(want, 0xABCD)
		if !bytes.Equal(got[0xABCD], want) || c.Len() != 0 {
			t.Errorf("follower's reply\n %x\nwant the leader's under its ID\n %x\n(%d entries stored)", got[0xABCD], want, c.Len())
		}
	})
}

// TestRefreshQueryMatchesNewQuery pins the query a background refresh
// rebuilds from a key to the bytes dnswire.NewQuery packs for the same
// question — ID 0, RD, an OPT of UDP size 4096 — whatever the class.
func TestRefreshQueryMatchesNewQuery(t *testing.T) {
	for _, tt := range []struct {
		name  dnswire.Name
		typ   dnswire.Type
		class dnswire.Class
	}{
		{"wire.example.", dnswire.TypeA, dnswire.ClassINET},
		{"Mixed.Case.Example.", dnswire.TypeAAAA, dnswire.ClassINET},
		{"version.bind.", dnswire.TypeTXT, dnswire.ClassCHAOS},
		{".", dnswire.TypeNS, dnswire.ClassINET},
	} {
		m := dnswire.NewQuery(0, tt.name, tt.typ)
		m.Questions[0].Class = tt.class
		want, err := m.Pack()
		if err != nil {
			t.Fatal(err)
		}
		q := parsed(t, want)
		got, err := refreshQuery(q.AppendCanonicalQuestion(nil))
		if err != nil || !bytes.Equal(got.Raw, want) {
			t.Errorf("%s %v %v: refresh query %x (err %v), want %x", tt.name, tt.typ, tt.class, got.Raw, err, want)
		}
	}
}
