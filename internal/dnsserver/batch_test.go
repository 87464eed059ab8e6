package dnsserver

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dohcost/internal/dnswire"
	"dohcost/internal/telemetry"
	"dohcost/internal/udpio"
)

// listenLoopback binds an ephemeral real UDP socket (the batch path
// exists for real sockets; netsim conns exercise the fallback elsewhere).
func listenLoopback(t *testing.T) net.PacketConn {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pc.Close() })
	return pc
}

// collectResponses sends one query per entry of queries to addr and reads
// until every ID has answered, returning raw response bytes keyed by ID.
// Lost datagrams are re-sent: UDP gives no delivery guarantee even on
// loopback under buffer pressure.
func collectResponses(t *testing.T, addr string, queries map[uint16][]byte) map[uint16][]byte {
	t.Helper()
	c, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got := make(map[uint16][]byte, len(queries))
	buf := make([]byte, 65535)
	deadline := time.Now().Add(10 * time.Second)
	for len(got) < len(queries) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out with %d/%d responses", len(got), len(queries))
		}
		for id, q := range queries {
			if _, ok := got[id]; !ok {
				if _, err := c.Write(q); err != nil {
					t.Fatal(err)
				}
			}
		}
		c.SetReadDeadline(time.Now().Add(250 * time.Millisecond))
		for {
			n, err := c.Read(buf)
			if err != nil {
				break // retry window over; resend what's missing
			}
			if n < 12 {
				t.Fatalf("short response: %d bytes", n)
			}
			id := uint16(buf[0])<<8 | uint16(buf[1])
			if _, known := queries[id]; !known {
				t.Fatalf("response for unknown ID %#x", id)
			}
			if _, dup := got[id]; !dup {
				got[id] = append([]byte(nil), buf[:n]...)
			}
		}
	}
	return got
}

// TestBatchShardedHotName hammers one cached name through SO_REUSEPORT
// shards from concurrent clients — the -race workout for the sharded
// fast path's reused read/write vectors — and checks the shard counters
// account for the traffic.
func TestBatchShardedHotName(t *testing.T) {
	stub := newWireStub(t, "hot.example.")
	conns, err := udpio.ListenShards("udp", "127.0.0.1:0", 4)
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	srv := &UDPServer{Handler: stub, Telemetry: tel}
	done := make(chan struct{})
	go func() { defer close(done); srv.ServeBatch(conns, 32) }()
	addr := conns[0].LocalAddr().String()

	const clients = 8
	const perClient = 50
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			queries := make(map[uint16][]byte, perClient)
			for i := 0; i < perClient; i++ {
				id := uint16(g*perClient + i + 1)
				wire, err := dnswire.NewQuery(id, "hot.example.", dnswire.TypeA).Pack()
				if err != nil {
					errs <- err
					return
				}
				queries[id] = wire
			}
			for id, raw := range collectResponses(t, addr, queries) {
				var m dnswire.Message
				if err := m.Unpack(raw); err != nil {
					errs <- fmt.Errorf("client %d: bad response: %w", g, err)
					return
				}
				if m.ID != id || len(m.Answers) != 1 || m.Answers[0].TTL != 42 {
					errs <- fmt.Errorf("client %d ID %#x: wrong response %s", g, id, &m)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	stats := srv.ShardStats()
	if len(stats) != len(conns) {
		t.Fatalf("ShardStats returned %d shards, want %d", len(stats), len(conns))
	}
	var hits, datagrams, reads, histogram uint64
	for _, st := range stats {
		hits += st.FastHits
		datagrams += st.Datagrams
		reads += st.Reads
		for _, n := range st.BatchSizes {
			histogram += n
		}
	}
	if hits < clients*perClient {
		t.Errorf("shards served %d fast hits, want >= %d", hits, clients*perClient)
	}
	if datagrams < hits {
		t.Errorf("shards read %d datagrams but served %d hits", datagrams, hits)
	}
	if reads == 0 || histogram != reads {
		t.Errorf("shards counted %d reads and %d in the batch-size histogram, want the same nonzero count", reads, histogram)
	}

	for _, c := range conns {
		c.Close()
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ServeBatch did not return after conns closed")
	}
}

// TestSpillBounded pins the bound on UDP's slow steps: with maxSlowSteps of
// them blocked in the handler the reader blocks too — concurrency never
// exceeds the bound, every goroutine started is counted as a spill, none
// beyond the bound ever starts — and nothing read or left in the socket is
// lost: every datagram is answered once the handlers unblock, by the slots
// the first ones made.
func TestSpillBounded(t *testing.T) {
	const bound = 4
	var inflight, peak atomic.Int64
	release := make(chan struct{})
	handler := HandlerFunc(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		cur := inflight.Add(1)
		defer inflight.Add(-1)
		for {
			m := peak.Load()
			if cur <= m || peak.CompareAndSwap(m, cur) {
				break
			}
		}
		select {
		case <-release:
		case <-ctx.Done():
		}
		r := q.Reply()
		r.Answers = append(r.Answers, dnswire.ResourceRecord{
			Name: q.Question1().Name, Class: dnswire.ClassINET, TTL: 1,
			Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.9")},
		})
		return r, nil
	})
	tel := telemetry.New()
	pc := listenLoopback(t)
	srv := &UDPServer{Handler: handler, maxSlowSteps: bound, Telemetry: tel}
	go srv.Serve(pc)

	c, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const total = 16
	for i := 0; i < total; i++ {
		wire, err := dnswire.NewQuery(uint16(i+1), "blocked.example.", dnswire.TypeA).Pack()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(wire); err != nil {
			t.Fatal(err)
		}
	}

	// The reader hands off until the bound is in flight, then blocks on the
	// next datagram: the rest wait in the socket.
	waitFor(t, func() bool { return inflight.Load() == bound })
	time.Sleep(20 * time.Millisecond) // a slot over the bound would show up now
	if got := inflight.Load(); got != bound {
		t.Errorf("%d handlers in flight while saturated, want exactly %d (then backpressure)", got, bound)
	}
	if got := srv.ShardStats()[0].SlowPath; got != bound+1 {
		t.Errorf("reader handed off %d datagrams while saturated, want %d in flight and one waiting for a slot", got, bound)
	}
	close(release)
	waitFor(t, func() bool { return tel.Snapshot().Queries["udp"] == total })

	if p := peak.Load(); p > bound {
		t.Errorf("peak handler concurrency %d exceeds the bound %d", p, bound)
	}
	if spills := srv.ShardStats()[0].Spills; spills != bound {
		t.Errorf("%d goroutines started for %d datagrams, want %d: the slots the first burst made serve the rest",
			spills, total, bound)
	}
	replies := 0
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	for buf := make([]byte, 512); replies < total; replies++ {
		if _, err := c.Read(buf); err != nil {
			t.Fatalf("%d of %d datagrams answered: %v", replies, total, err)
		}
	}
}

// TestUDPBatchSizeHistogram checks the shard's datagrams-per-read
// histogram: the bucket boundaries, and one scripted read of a whole batch
// landing in its bucket beside the read and datagram totals.
func TestUDPBatchSizeHistogram(t *testing.T) {
	for n, want := range map[int]string{
		1: "1", 2: "2-3", 3: "2-3", 4: "4-7", 7: "4-7", 8: "8-15", 15: "8-15",
		16: "16-31", 31: "16-31", 32: "32-63", 63: "32-63", 64: "64+", 200: "64+",
	} {
		if got := BatchSizeBuckets[batchBucket(n)]; got != want {
			t.Errorf("a read of %d datagrams lands in bucket %q, want %q", n, got, want)
		}
	}
	_, _, srv, _, _ := serveScripted(t, "histogram.example.", 1232, 32)
	st := srv.ShardStats()[0]
	if want := [len(BatchSizeBuckets)]uint64{5: 1}; st.Reads != 1 || st.Datagrams != 32 || st.BatchSizes != want {
		t.Errorf("one read of 32 datagrams: reads %d, datagrams %d, histogram %v, want 1, 32, %v",
			st.Reads, st.Datagrams, st.BatchSizes, want)
	}
}
