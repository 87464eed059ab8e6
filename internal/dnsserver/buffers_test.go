package dnsserver

// Serving buffers are sized for DNS messages, not for the 65 535-octet
// ceiling: what a datagram longer than the UDP read window gets, replies
// flushed early when the flush buffer runs short, and the heap a UDP shard
// and an idle stream connection pin.

import (
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dohcost/internal/dnswire"
	"dohcost/internal/guard"
	"dohcost/internal/qtrace"
	"dohcost/internal/telemetry"
	"dohcost/internal/udpio"
)

// paddedQuery packs an A query for name whose OPT carries an RFC 7830
// padding option long enough to make the whole message size octets.
func paddedQuery(t *testing.T, id uint16, name dnswire.Name, size int) (*dnswire.Message, []byte) {
	t.Helper()
	q := dnswire.NewQuery(id, name, dnswire.TypeA)
	q.EDNS = &dnswire.EDNS{UDPSize: 1232}
	bare, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	q.EDNS.Options = []dnswire.EDNS0Option{{Code: 12, Data: make([]byte, size-len(bare)-4)}}
	wire, err := q.Pack()
	if err != nil || len(wire) != size {
		t.Fatalf("padded query: %d octets, %v", len(wire), err)
	}
	return q, wire
}

// TestOversizeDatagramGoesToTCP: a query longer than the UDP read window is
// answered with a TC=1 echo of its header and question and no OPT — on a
// kernel batch conn and on the per-packet fallback alike — and the same
// query over TCP gets the real answer. The guard's check runs first: a
// client over its budget is dropped as before, not echoed.
func TestOversizeDatagramGoesToTCP(t *testing.T) {
	for _, tc := range []struct {
		name string
		wrap func(net.PacketConn) udpio.BatchConn
	}{
		{"kernel", udpio.Wrap},
		// Hiding the concrete type makes udpio.Wrap choose the fallback.
		{"fallback", func(pc net.PacketConn) udpio.BatchConn { return udpio.Wrap(struct{ net.PacketConn }{pc}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q, wire := paddedQuery(t, 0x5151, "fast.example.", 5000)
			stub := &refStub{}
			// One query's burst, then nothing: the second datagram is the guard's.
			g := guard.New(guard.Config{ClientQPS: 1e-6, Burst: 1, SlipEvery: -1, DisableCookies: true})
			pc := listenLoopback(t)
			conn := tc.wrap(pc)
			if tc.name == "kernel" && !conn.Batched() {
				t.Skip("no kernel batch I/O on this platform")
			}
			srv := &UDPServer{Handler: stub, Guard: g}
			go srv.ServeBatch([]udpio.BatchConn{conn}, 16)

			c, err := net.Dial("udp", pc.LocalAddr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			buf := make([]byte, 65535)
			c.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := c.Write(wire); err != nil {
				t.Fatal(err)
			}
			n, err := c.Read(buf)
			if err != nil {
				t.Fatal(err)
			}
			var m dnswire.Message
			if err := m.Unpack(buf[:n]); err != nil {
				t.Fatal(err)
			}
			qlen := 12 + len("fast.example.") + 1 + 4
			if !m.Truncated || !m.Response || m.ID != q.ID || len(m.Questions) != 1 || m.Questions[0] != q.Questions[0] ||
				len(m.Answers) != 0 || m.EDNS != nil || n != qlen {
				t.Errorf("oversize datagram: want a %d-octet TC=1 echo of header and question, got %d octets %s", qlen, n, &m)
			}
			if stub.fast.Load() != 0 || stub.msg.Load() != 0 {
				t.Error("the handler ran for a datagram the server could not read whole")
			}

			if _, err := c.Write(wire); err != nil {
				t.Fatal(err)
			}
			// A batch's datagrams are counted when it is read, each one's fate
			// after: wait for the whole ledger, not for the read.
			settled := func(st UDPShardStats) bool {
				return st.Datagrams == 2 && st.Oversize == 1 && st.GuardDropped == 1 &&
					st.Datagrams == st.FastHits+st.SlowPath+st.GuardDropped+st.Oversize
			}
			st := srv.ShardStats()[0]
			for deadline := time.Now().Add(2 * time.Second); !settled(st) && time.Now().Before(deadline); st = srv.ShardStats()[0] {
				time.Sleep(time.Millisecond)
			}
			if !settled(st) {
				t.Errorf("shard counters %+v: want one oversize, one guard drop, and every datagram in exactly one", st)
			}
			c.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
			if n, err := c.Read(buf); err == nil {
				t.Errorf("a guard-dropped oversize datagram was answered: %d octets", n)
			}

			// The retry the TC bit asks for: over TCP any size is served.
			cc, sc := net.Pipe()
			defer cc.Close()
			go (&StreamServer{Handler: stub}).ServeConn(sc)
			got := streamExchange(t, cc, map[uint16][]byte{q.ID: wire})[q.ID]
			want, err := Respond(context.Background(), &refStub{}, q).Pack()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("over TCP:\n got  %x\n want %x", got, want)
			}
		})
	}
}

// scriptedConn is a kernel-batched BatchConn over memory: its first
// ReadBatch returns every datagram in dgrams at once, later ones block until
// Close. Every flush is recorded, payloads copied.
type scriptedConn struct {
	dgrams [][]byte
	from   net.Addr
	read   bool
	closed chan struct{}
	once   sync.Once

	mu      sync.Mutex
	flushes [][][]byte
	single  int // replies sent outside any flush
}

func (c *scriptedConn) ReadBatch(ms []udpio.Message) (int, error) {
	if c.read {
		<-c.closed
		return 0, net.ErrClosed
	}
	c.read = true
	for i, d := range c.dgrams {
		ms[i].N = copy(ms[i].Buf, d)
		ms[i].Addr = c.from
	}
	return len(c.dgrams), nil
}

func (c *scriptedConn) WriteBatch(ms []udpio.Message) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var f [][]byte
	for _, m := range ms {
		f = append(f, append([]byte(nil), m.Buf[:m.N]...))
	}
	c.flushes = append(c.flushes, f)
	return len(ms), nil
}

func (c *scriptedConn) WriteTo(b []byte, _ net.Addr) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.single++
	return len(b), nil
}

func (c *scriptedConn) LocalAddr() net.Addr             { return c.from }
func (c *scriptedConn) SetReadDeadline(time.Time) error { return nil }
func (c *scriptedConn) Close() error                    { c.once.Do(func() { close(c.closed) }); return nil }
func (c *scriptedConn) Batched() bool                   { return true }

// serveScripted serves one batch of queries, each asking for name with EDNS
// size edns, over a scriptedConn with the server's default size limits, and
// returns the conn once every reply has left, with the replies the handler
// packed for them and the count of finished transactions.
func serveScripted(t *testing.T, name dnswire.Name, edns uint16, batch int) (conn *scriptedConn, want [][]byte, srv *UDPServer, stub *refStub, finished int64) {
	t.Helper()
	ref := &refStub{}
	conn = &scriptedConn{from: &net.UDPAddr{IP: net.IPv4(192, 0, 2, 7), Port: 5353}, closed: make(chan struct{})}
	for i := 0; i < batch; i++ {
		q := dnswire.NewQuery(uint16(0x6000+i), name, dnswire.TypeA)
		q.EDNS = &dnswire.EDNS{UDPSize: edns}
		wire, err := q.Pack()
		if err != nil {
			t.Fatal(err)
		}
		conn.dgrams = append(conn.dgrams, wire)
		resp, err := Respond(context.Background(), ref, q).Pack()
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, resp)
	}
	var fin atomic.Int64
	tel := telemetry.New()
	tel.SetListener(telemetry.ListenerFunc(func(*qtrace.Record) { fin.Add(1) }))
	stub = &refStub{}
	srv = &UDPServer{Handler: stub, Telemetry: tel}
	done := make(chan error)
	go func() { done <- srv.ServeBatch([]udpio.BatchConn{conn}, batch) }()
	waitFor(t, func() bool { return srv.ShardStats() != nil && srv.ShardStats()[0].FlushedDatagrams == uint64(batch) })
	conn.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	return conn, want, srv, stub, fin.Load()
}

// TestEarlyFlushKeepsReadOrder: a batch of hits whose replies outgrow the
// flush buffer is flushed early, mid-batch, whenever a reply no longer fits
// the room left — and still every reply leaves exactly once, in the order
// the queries were read, byte for byte what the handler packed, and every
// transaction is finished once.
func TestEarlyFlushKeepsReadOrder(t *testing.T) {
	const batch = 32
	conn, want, srv, stub, finished := serveScripted(t, "huge.example.", 16384, batch)

	var got [][]byte
	for _, f := range conn.flushes {
		got = append(got, f...)
	}
	if len(conn.flushes) < 2 || conn.single != 0 {
		t.Fatalf("%d flushes and %d single writes for %d replies of %d octets: want the flush buffer to fill mid-batch",
			len(conn.flushes), conn.single, batch, len(want[0]))
	}
	if len(got) != batch {
		t.Fatalf("%d replies left for %d queries", len(got), batch)
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("reply %d (ID %#x) differs from the handler's:\n got  %.40x…\n want %.40x…",
				i, binary.BigEndian.Uint16(got[i]), got[i], want[i])
		}
	}
	st := srv.ShardStats()[0]
	if st.FastHits != batch || st.Flushes != uint64(len(conn.flushes)) || stub.fast.Load() != batch {
		t.Errorf("shard counters %+v, %d fast answers: want %d hits in %d flushes", st, stub.fast.Load(), batch, len(conn.flushes))
	}
	if finished != batch {
		t.Errorf("%d transactions finished for %d replies", finished, batch)
	}
	t.Logf("%d replies of %d octets in %d flushes", batch, len(want[0]), len(conn.flushes))
}

// TestOrdinaryRepliesFlushOnce: the flush buffer is not reserved by the
// size a client advertises. A batch of ordinary hits for clients that
// advertise 1232, 4096 or 65 535 octets of EDNS, with the server's default
// size limits, leaves in a single write.
func TestOrdinaryRepliesFlushOnce(t *testing.T) {
	const batch = DefaultBatch
	for _, edns := range []uint16{1232, 4096, 65535} {
		for _, name := range []dnswire.Name{"fast.example.", "big.example."} {
			conn, want, srv, _, _ := serveScripted(t, name, edns, batch)
			st := srv.ShardStats()[0]
			if len(conn.flushes) != 1 || st.Flushes != 1 || st.FastHits != batch {
				t.Errorf("EDNS %d, %d replies of %d octets: %d flushes, counters %+v; want every hit in one flush",
					edns, batch, len(want[0]), len(conn.flushes), st)
			}
		}
	}
}

// heapGrowth reports how much live heap serving holds: HeapAlloc after a
// forced collection, once before start and once after it has returned with
// what it started still running. Two collections empty sync.Pool's victim
// cache, so only buffers something holds on to are counted.
func heapGrowth(start func()) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	start()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// TestBatchShardFootprint pins what one UDP shard of DefaultBatch holds
// while it serves: a read window per slot and one flush buffer, at most
// 256 KiB. Read and write slots of 64 KiB each pinned about 4 MB.
func TestBatchShardFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory is not the server's footprint")
	}
	pc := listenLoopback(t)
	conn := udpio.Wrap(pc)
	if !conn.Batched() {
		t.Skip("no kernel batch I/O on this platform")
	}
	stub := newWireStub(t, "fast.example.")
	_, wire := packQuery(t, 7, "fast.example.")
	c, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf := make([]byte, 512)
	done := make(chan struct{})
	grown := heapGrowth(func() {
		go func() {
			defer close(done)
			(&UDPServer{Handler: stub}).ServeBatch([]udpio.BatchConn{conn}, DefaultBatch)
		}()
		// One answered query: the shard's vector is in place.
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := c.Write(wire); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Read(buf); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("a serving shard of %d holds %d B", DefaultBatch, grown)
	if grown > 256<<10 {
		t.Errorf("a serving shard of %d holds %d B of heap, want at most 256 KiB", DefaultBatch, grown)
	}
	conn.Close()
	<-done
}

// TestStreamConnFootprint pins what an idle stream connection holds between
// queries: its pooled read buffer and its buffered reader, at most 16 KiB.
// A read buffer sized for the 65 535-octet ceiling pinned 64 KiB each.
func TestStreamConnFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory is not the server's footprint")
	}
	const conns = 16
	stub := newWireStub(t, "fast.example.")
	_, wire := packQuery(t, 7, "fast.example.")
	clients := make([]net.Conn, conns)
	var served sync.WaitGroup
	grown := heapGrowth(func() {
		for i := range clients {
			var s net.Conn
			clients[i], s = net.Pipe()
			served.Add(1)
			go func() { defer served.Done(); (&StreamServer{Handler: stub}).ServeConn(s) }()
			streamExchange(t, clients[i], map[uint16][]byte{7: wire})
		}
	})
	t.Logf("%d idle connections hold %d B, %d B each", conns, grown, grown/conns)
	if grown > conns*16<<10 {
		t.Errorf("%d idle stream connections hold %d B of heap, want at most 16 KiB each", conns, grown)
	}
	for _, c := range clients {
		c.Close()
	}
	served.Wait()
}
