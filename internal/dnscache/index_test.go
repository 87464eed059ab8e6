package dnscache

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"time"

	"dohcost/internal/dnswire"
)

// checkTables verifies that a shard's three views of its records — the
// open-addressed index, the LRU ring and the free list — describe the same
// partition of recs: every record but the sentinel is live (indexed once,
// on the ring once, found by its own key) or free (on the free list once,
// cleared), none is both, none is neither. It returns the live records'
// numbers, most recently used first. Caller holds sh.mu.
func checkTables(t testing.TB, sh *shard) []uint32 {
	t.Helper()
	if n := len(sh.index); n&(n-1) != 0 || sh.n*4 > n*3 {
		t.Fatalf("index of %d slots holds %d entries: want a power of two, at most three quarters full", n, sh.n)
	}
	state := make([]byte, len(sh.recs)) // 0 unseen, 'i' indexed, 'l' indexed and on the ring, 'f' free
	slots := 0
	for _, ri := range sh.index {
		if ri == 0 {
			continue
		}
		slots++
		if int(ri) >= len(sh.recs) || state[ri] != 0 {
			t.Fatalf("index names record %d twice or out of range (%d records)", ri, len(sh.recs))
		}
		state[ri] = 'i'
	}
	var live []uint32
	for prev, ri := uint32(0), sh.recs[0].next; ri != 0; prev, ri = ri, sh.recs[ri].next {
		if int(ri) >= len(sh.recs) || state[ri] != 'i' {
			t.Fatalf("LRU ring reaches record %d, which the index does not hold exactly once", ri)
		}
		state[ri] = 'l'
		r := &sh.recs[ri]
		if r.prev != prev {
			t.Fatalf("record %d: prev = %d, want %d", ri, r.prev, prev)
		}
		key := keyOf(sh, r)
		if got := sh.find(r.hash, key); got != ri {
			t.Fatalf("record %d (key %q) is found as record %d", ri, key, got)
		}
		live = append(live, ri)
	}
	if len(live) > 0 && sh.recs[0].prev != live[len(live)-1] {
		t.Fatalf("ring's oldest is %d, walking forward ends at %d", sh.recs[0].prev, live[len(live)-1])
	}
	free := 0
	for ri := sh.freeRec; ri != 0; ri = sh.recs[ri].next {
		if int(ri) >= len(sh.recs) || state[ri] != 0 {
			t.Fatalf("free list reaches record %d, which is live or already on it", ri)
		}
		state[ri] = 'f'
		if r := sh.recs[ri]; r != (record{next: r.next}) {
			t.Fatalf("free record %d not cleared: %+v", ri, r)
		}
		free++
	}
	if slots != sh.n || len(live) != sh.n || len(live)+free+1 != len(sh.recs) {
		t.Fatalf("n = %d: %d index slots, %d on the ring, %d free, %d records with the sentinel — a slot or a record leaked",
			sh.n, slots, len(live), free, len(sh.recs))
	}
	return live
}

// keyOf returns the key record r is filed under: its stored reply's
// question. Caller holds sh.mu.
func keyOf(sh *shard, r *record) []byte {
	wire, _ := sh.blockOf(r)
	end := questionAt
	for wire[end] != 0 {
		end += 1 + int(wire[end])
	}
	return wire[questionAt : end+5]
}

// modelEntry is what the reference model keeps of one cached reply: wire
// carries the key as its question.
type modelEntry struct {
	wire, toffs []byte
	expires     time.Time
}

// indexModel is the differential reference for the shard tables: a plain
// map for the contents and a slice for the recency order, most recent
// first, with the cache's bounds applied the slow, obvious way.
type indexModel struct {
	entries map[string]modelEntry
	order   []string
	stale   time.Duration
}

func (m *indexModel) unorder(k string) {
	for i, o := range m.order {
		if o == k {
			m.order = append(m.order[:i], m.order[i+1:]...)
			return
		}
	}
}

func (m *indexModel) remove(k string) {
	delete(m.entries, k)
	m.unorder(k)
}

func (m *indexModel) touch(k string) {
	m.unorder(k)
	m.order = append([]string{k}, m.order...)
}

func (m *indexModel) dead(e modelEntry, now time.Time) bool {
	return !now.Before(e.expires.Add(m.stale))
}

func (m *indexModel) sweep(now time.Time) {
	for _, k := range append([]string(nil), m.order...) {
		if m.dead(m.entries[k], now) {
			m.remove(k)
		}
	}
}

func (m *indexModel) bytes() (n int64) {
	for _, e := range m.entries {
		n += int64(entryOverhead + len(e.wire) + len(e.toffs))
	}
	return n
}

// indexHashes are the hash functions the differential run swaps in for
// maphash, chosen to corner the probe logic: dense runs from sequential
// homes, a handful of hashes shared by every key (each lookup compares
// equal tags and walks one run holding the whole shard), a well-spread
// multiplier, and homes packed against the table's end so runs wrap.
var indexHashes = []func(id uint64) uint64{
	func(id uint64) uint64 { return id },
	func(id uint64) uint64 { return id & 3 },
	func(id uint64) uint64 { return id * 0x9E3779B97F4A7C15 },
	func(id uint64) uint64 { return ^uint64(0) - id&7 },
}

// runIndexOps drives one shard's tables and the model through the
// operations data encodes — the first octet picks hash function, byte
// budget and stale window, then three octets an operation — and compares
// them after every step: lookups, served bytes, recency order, Len,
// BytesLive, and checkTables' no-leak accounting.
func runIndexOps(t testing.TB, data []byte) {
	if len(data) == 0 {
		return
	}
	cfg := data[0]
	hash := indexHashes[cfg&3]
	now := time.Unix(10_000, 0)
	opts := []Option{WithShards(1), withArenaSlab(minSlabSize), withClock(func() time.Time { return now })}
	m := &indexModel{entries: map[string]modelEntry{}}
	// Some ten entries, or some four: either way most inserts evict, and
	// every entry the operations build fits.
	budget := int64(minShardBudget)
	if cfg&4 == 0 {
		budget = minShardBudget / 2
	}
	opts = append(opts, WithMemoryBudget(budget))
	if cfg&8 != 0 {
		m.stale = 5 * time.Second
		opts = append(opts, WithServeStale(m.stale))
	}
	c := New(&countingUpstream{}, opts...)
	sh := c.shards[0]

	for ops := data[1:]; len(ops) >= 3; ops = ops[3:] {
		op, a, b := ops[0]%8, ops[1], ops[2]
		id := uint64(a & 63)
		kb := []byte{3, 'k', 'a' + byte(id>>3), 'a' + byte(id&7), 0, 0, byte(dnswire.TypeA), 0, byte(dnswire.ClassINET)}
		k, h := string(kb), hash(id)
		sh.mu.Lock()
		switch {
		case op < 4: // insert or replace
			// The key is the stored reply's question: insert writes it at
			// questionAt over whatever the reply held there.
			wire := bytes.Repeat([]byte{a}, questionAt+len(kb)+4+int(b))
			var toffs []byte
			if b&1 != 0 {
				binary.BigEndian.PutUint32(wire[questionAt+len(kb):], 3600)
				toffs = dnswire.PackTTLOffsets(nil, []int{questionAt + len(kb)})
			}
			ttl := 1 + uint32(b&15)
			epochs := sh.stats.ArenaEpochs
			rejected := c.insertLocked(sh, kb, h, wire, toffs, &dnswire.ResponseScan{Answers: 1, MinTTL: ttl, HasTTL: true})
			cost := int64(entryOverhead + len(wire) + len(toffs))
			if rejected != (cost > budget) {
				t.Fatalf("insert of %d B under budget %d: rejected = %v", cost, budget, rejected)
			}
			if rejected {
				break
			}
			m.remove(k)
			if sh.stats.ArenaEpochs != epochs {
				m.sweep(now) // the insert rotated first, and rotation sweeps
			}
			copy(wire[questionAt:], kb)
			m.entries[k] = modelEntry{wire, toffs, now.Add(time.Duration(ttl) * time.Second)}
			m.touch(k)
			for m.bytes() > budget {
				m.remove(m.order[len(m.order)-1])
			}
		case op < 6: // lookup: hit, stale hit, or expired and dropped
			ri := sh.find(h, kb)
			e, ok := m.entries[k]
			if (ri != 0) != ok {
				t.Fatalf("find(%q) = %d, model holds it: %v", k, ri, ok)
			}
			if !ok {
				break
			}
			// The asker's question is the key, its letters upper-cased now
			// and then: a hit echoes it as asked.
			asked := kb
			if b&2 != 0 {
				asked = bytes.ToUpper(kb)
			}
			hit, served := c.serveLocked(sh, ri, asked, 0xBEEF, nil)
			if served == m.dead(e, now) {
				t.Fatalf("%q served = %v at %v, expires %v (stale window %v)", k, served, now, e.expires, m.stale)
			}
			if !served {
				sh.removeLocked(ri)
				m.remove(k)
				break
			}
			want := append([]byte(nil), e.wire...)
			dnswire.PatchID(want, 0xBEEF)
			copy(want[questionAt:], asked)
			remaining := StaleTTL
			if now.Before(e.expires) {
				remaining = e.expires.Sub(now)
			}
			dnswire.DecayTTLsPacked(want, e.toffs, uint32(remaining/time.Second))
			if !bytes.Equal(hit.resp, want) {
				t.Fatalf("%q served %x, model says %x", k, hit.resp, want)
			}
			m.touch(k)
		case op == 6: // time passes
			now = now.Add(time.Duration(b&7) * time.Second)
		default: // epoch rotation, or now and then a flush
			if b == 0xFF {
				sh.mu.Unlock()
				c.Flush()
				sh.mu.Lock()
				m.entries, m.order = map[string]modelEntry{}, nil
				break
			}
			c.rotateLocked(sh)
			m.sweep(now)
		}
		live := checkTables(t, sh)
		sh.mu.Unlock()
		if len(live) != len(m.order) {
			t.Fatalf("%d live records, model holds %d", len(live), len(m.order))
		}
		for i, ri := range live {
			if key := keyOf(sh, &sh.recs[ri]); string(key) != m.order[i] {
				t.Fatalf("LRU position %d holds %q, model says %q", i, key, m.order[i])
			}
		}
		if c.Len() != len(m.order) || c.BytesLive() != m.bytes() {
			t.Fatalf("Len %d BytesLive %d, model %d and %d", c.Len(), c.BytesLive(), len(m.order), m.bytes())
		}
	}
	checkBudgetInvariants(t, c)
}

// TestIndexAgainstModel runs seeded random operation sequences through
// every hash function, budget and stale-window combination.
func TestIndexAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for cfg := byte(0); cfg < 16; cfg++ {
		data := make([]byte, 1+3*1500)
		rng.Read(data)
		data[0] = cfg
		runIndexOps(t, data)
	}
}

// FuzzIndex is the same differential run over fuzzer-chosen sequences.
func FuzzIndex(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 1, 9, 0, 2, 9, 0, 3, 9, 4, 1, 0, 4, 2, 0, 7, 0, 0})             // colliding tags: insert three, look two up, rotate
	f.Add([]byte{7, 0, 1, 200, 0, 2, 200, 0, 3, 200, 6, 0, 7, 4, 1, 0, 7, 0, 0})       // budget: fill, let time pass, look up, rotate
	f.Add([]byte{11, 0, 5, 1, 6, 0, 3, 4, 5, 0, 6, 0, 7, 4, 5, 0, 0, 5, 3, 7, 0, 255}) // serve-stale window, replace, flush
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1+3*400 {
			data = data[:1+3*400]
		}
		runIndexOps(t, data)
	})
}
