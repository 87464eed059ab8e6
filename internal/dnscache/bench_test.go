package dnscache

import (
	"context"
	"fmt"
	"testing"
	"time"

	"dohcost/internal/dnswire"
	"dohcost/internal/telemetry"
)

// BenchmarkCacheHitPathShardedVsMutex isolates the cache's hot path under
// contention: 8+ goroutines hammering cached names, against the classic
// single-mutex layout (shards=1) and the sharded default. The sharded
// variant's queries/s should be ≥2× the mutex variant's on any multicore
// machine — the motivation for hash-partitioning the cache. The third
// case runs the sharded layout with the full telemetry lifecycle per
// query (Begin → cache annotation → verdict → Finish, the proxy serving
// path's accounting) and should stay within noise of the bare sharded
// numbers — the telemetry subsystem's no-lock-contention contract.
func BenchmarkCacheHitPathShardedVsMutex(b *testing.B) {
	for _, tt := range []struct {
		name      string
		shards    int
		telemetry bool
	}{{"mutex-1shard", 1, false}, {"sharded-16", 16, false}, {"sharded-16-telemetry", 16, true}} {
		b.Run(tt.name, func(b *testing.B) {
			c := New(&countingUpstream{ttl: 300}, WithShards(tt.shards))
			defer c.Close()
			var tel *telemetry.Metrics
			if tt.telemetry {
				tel = telemetry.New()
			}
			// Prefill the hot set so the benchmark measures pure hits.
			const hot = 64
			queries := make([]*dnswire.Message, hot)
			for i := range queries {
				queries[i] = dnswire.NewQuery(0, dnswire.Name(fmt.Sprintf("hot%02d.bench.example.", i)), dnswire.TypeA)
				if _, err := c.Exchange(context.Background(), queries[i]); err != nil {
					b.Fatal(err)
				}
			}
			b.SetParallelism(8) // ≥ 8 goroutines even on small GOMAXPROCS
			b.ResetTimer()
			start := time.Now()
			b.RunParallel(func(pb *testing.PB) {
				var i int
				for pb.Next() {
					ctx := context.Background()
					tx := tel.Begin(telemetry.ProtoUDP) // nil tel → nil tx → no-ops
					ctx = telemetry.NewContext(ctx, tx)
					if _, err := c.Exchange(ctx, queries[i%hot]); err != nil {
						b.Error(err)
						return
					}
					tx.SetVerdict(telemetry.VerdictOK)
					tx.Finish()
					i++
				}
			})
			b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "queries/s")
			if tel != nil {
				if got := tel.Snapshot().Queries["udp"]; got != uint64(b.N) {
					b.Fatalf("telemetry lost queries: %d recorded, %d run", got, b.N)
				}
			}
		})
	}
}

// BenchmarkServeStaleHit measures the RFC 8767 stale-hit wire path: an
// expired-but-stale entry served by copy + ID patch + TTL cap while the
// background refresh holds the singleflight slot. The upstream answers the
// prime and then blocks every later exchange until its context ends, so
// every measured lookup stays in the stale regime: the first stale hit
// parks one refresh on the blocked upstream, and the singleflight table
// keeps every later hit refresh-free.
func BenchmarkServeStaleHit(b *testing.B) {
	clock := time.Unix(9000, 0)
	up := &countingUpstream{ttl: 300}
	c := New(up,
		WithServeStale(time.Hour),
		withClock(func() time.Time { return clock }))
	defer c.Close()
	if _, err := c.Exchange(context.Background(), dnswire.NewQuery(1, "stale.bench.example.", dnswire.TypeA)); err != nil {
		b.Fatal(err)
	}
	up.delay = 24 * time.Hour            // refreshes wait on their context
	clock = clock.Add(2 * time.Hour / 4) // past the 300s TTL, inside the stale window
	queryWire, err := dnswire.NewQuery(4242, "stale.bench.example.", dnswire.TypeA).Pack()
	if err != nil {
		b.Fatal(err)
	}
	tel := telemetry.New()
	dst := make([]byte, 0, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, ok := dnswire.ParseQuery(queryWire)
		if !ok {
			b.Fatal("fast parse failed")
		}
		tx := tel.Begin(telemetry.ProtoUDP)
		resp, outcome, ok := c.ServeWire(tx, &q, dst[:0], 4096)
		if !ok {
			b.Fatal("stale hit lost")
		}
		if outcome != telemetry.CacheStaleHit {
			b.Fatalf("outcome = %v, want stale hit", outcome)
		}
		tx.SetCache(outcome)
		tx.SetVerdict(telemetry.VerdictOK)
		tx.Finish()
		_ = resp
	}
}
