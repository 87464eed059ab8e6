package dnsserver

import (
	"context"
	"encoding/binary"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"dohcost/internal/dnswire"
	"dohcost/internal/telemetry"
)

// cannedMiss answers hit.example. on the wire fast path and resolves every
// other name in its wire miss step with the same packed answer under the
// query's ID, allocating nothing itself: what is left of a round trip's
// allocations is the server's. With gate set the miss step blocks instead,
// until its context ends.
type cannedMiss struct {
	*wireStub
	gate     chan struct{} // closed: the blocked miss steps give up, as on a timeout of their own
	inflight atomic.Int64
}

func (s *cannedMiss) ServeDNSWire(tx *telemetry.Transaction, q *dnswire.Query, dst []byte, limit int) ([]byte, bool) {
	var name [256]byte
	if string(q.AppendCanonicalName(name[:0])) != string(s.fastName) {
		return nil, false
	}
	return s.wireStub.ServeDNSWire(tx, q, dst, limit)
}

func (s *cannedMiss) ServeDNSWireMiss(ctx context.Context, q *dnswire.Query, dst []byte) ([]byte, error) {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if s.gate != nil {
		select {
		case <-s.gate:
			return nil, context.DeadlineExceeded
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	resp := append(dst, s.resp...)
	dnswire.PatchID(resp, q.ID)
	return resp, nil
}

// tcpPair returns the two ends of a loopback TCP connection: unlike
// netsim's or a pipe's, its reads and writes allocate nothing.
func tcpPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if client, err = net.Dial("tcp", l.Addr().String()); err != nil {
		t.Fatal(err)
	}
	if server, err = l.Accept(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

// TestUDPSlowStepAllocs pins what UDP's slow step costs around the handler,
// socket to socket on the batched loop with guard and telemetry armed: the
// hand-off to a parked slot, the slot's copy of the query and its source,
// the slot's context carrying the transaction, the client key on it, the
// reply appended into a pooled buffer, fit, the write — nothing. A query
// owed a server cookie costs the same: fit grows the reply where it lies.
func TestUDPSlowStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool and instrumentation allocate")
	}
	stub := &cannedMiss{wireStub: newWireStub(t, "hit.example.")}
	pc := listenLoopback(t)
	go (&UDPServer{Handler: stub, Guard: openGuard(), Telemetry: telemetry.New()}).Serve(pc)
	c, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, plain := packQuery(t, 0x4242, "miss.example.")
	for _, tc := range []struct {
		name  string
		wire  []byte
		extra int // octets fit adds to the handler's reply
	}{
		{"cookie-less", plain, 0},
		// An OPT record of its own (11 octets) with the cookie option (4 + 24).
		{"cookie-owed", cookieQuery(t, 0x4242, "miss.example.", []byte{1, 2, 3, 4, 5, 6, 7, 8}), 11 + 4 + 24},
	} {
		buf := make([]byte, 512)
		exchange := func() {
			c.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := c.Write(tc.wire); err != nil {
				t.Fatal(err)
			}
			if n, err := c.Read(buf); err != nil || n != len(stub.resp)+tc.extra || binary.BigEndian.Uint16(buf) != 0x4242 {
				t.Fatalf("%s UDP miss: %d bytes, %v", tc.name, n, err)
			}
		}
		exchange() // the first hand-off makes the slot
		if got := testing.AllocsPerRun(200, exchange); got > 0 {
			t.Errorf("a %s UDP slow step allocates %.1f times around a handler that allocates nothing, want none", tc.name, got)
		}
	}
	if stub.fastServed.Load() != 0 {
		t.Error("the driver's query was a fast-path hit")
	}
}

// TestOutOfOrderStreamMissAllocs is the same pin for an out-of-order stream
// connection: read through the connection's buffer, guard, hit step
// declined, hand-off to a parked slot, slow step under the slot's context,
// the reply appended behind room for its length prefix, framed write — no
// allocation. (The per-query goroutine, closure and query copy this
// replaced cost 14 with a wire-miss handler's own Unpack and Pack.)
func TestOutOfOrderStreamMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool and instrumentation allocate")
	}
	stub := &cannedMiss{wireStub: newWireStub(t, "hit.example.")}
	client, server := tcpPair(t)
	go (&StreamServer{Handler: stub, OutOfOrder: true, Guard: openGuard(), Telemetry: telemetry.New()}).ServeConn(server)
	_, wire := packQuery(t, 0x4242, "miss.example.")
	buf := make([]byte, 512)
	exchange := func() {
		client.SetDeadline(time.Now().Add(5 * time.Second))
		if err := WriteStreamMessage(client, wire); err != nil {
			t.Fatal(err)
		}
		if resp, err := ReadStreamMessageInto(client, buf); err != nil || len(resp) != len(stub.resp) || binary.BigEndian.Uint16(resp) != 0x4242 {
			t.Fatalf("stream miss: %x, %v", resp, err)
		}
	}
	exchange()
	if got := testing.AllocsPerRun(200, exchange); got > 0 {
		t.Errorf("an out-of-order stream miss allocates %.1f times around a handler that allocates nothing, want none", got)
	}
}

// TestSlowStepOwnsItsQuery: the read loop reuses its buffer and its view the
// moment it has handed a query off, so a slow step must see its own copy of
// both. Eight distinct pipelined misses block in the handler while the read
// loop goes on to read a ninth query over the same buffer; released, every
// one answers the question it was asked under the ID it was asked with.
func TestSlowStepOwnsItsQuery(t *testing.T) {
	release := make(chan struct{})
	h := &echoMiss{wireStub: newWireStub(t, "hit.example."), release: release}
	client, server := tcpPair(t)
	go (&StreamServer{Handler: h, OutOfOrder: true}).ServeConn(server)
	const n = 8
	want := make(map[uint16]dnswire.Name, n)
	for i := 0; i < n; i++ {
		id, name := uint16(0x100+i), dnswire.Name(string(rune('a'+i))+"-miss.example.")
		want[id] = name
		_, wire := packQuery(t, id, name)
		if err := WriteStreamMessage(client, wire); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return h.entered.Load() == n })
	_, hit := packQuery(t, 0x999, "hit.example.") // read into the buffer the misses came through
	if err := WriteStreamMessage(client, hit); err != nil {
		t.Fatal(err)
	}
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	if resp, err := ReadStreamMessageInto(client, make([]byte, 2)); err != nil || binary.BigEndian.Uint16(resp) != 0x999 {
		t.Fatalf("inline hit behind blocked misses: %x, %v", resp, err)
	}
	close(release)
	for i := 0; i < n; i++ {
		resp, err := ReadStreamMessageInto(client, make([]byte, 2))
		if err != nil {
			t.Fatal(err)
		}
		var m dnswire.Message
		if err := m.Unpack(resp); err != nil {
			t.Fatal(err)
		}
		if name, ok := want[m.ID]; !ok || m.Question1().Name != name {
			t.Errorf("reply %#x answers %q, want %q", m.ID, m.Question1().Name, name)
		}
		delete(want, m.ID)
	}
}

// echoMiss resolves a miss, once released, from the view it was handed: the
// reply is the query's own bytes turned into a response.
type echoMiss struct {
	*wireStub
	release chan struct{}
	entered atomic.Int64
}

func (s *echoMiss) ServeDNSWireMiss(ctx context.Context, q *dnswire.Query, dst []byte) ([]byte, error) {
	s.entered.Add(1)
	select {
	case <-s.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return q.AppendReply(dst, dnswire.RCodeSuccess), nil
}

// TestStreamFloodIsBounded: one out-of-order connection pipelines 5 000
// misses at a handler that does not answer. Its slow steps in flight stop
// at the per-connection bound and its read loop with them, so goroutines
// stay under the bound plus a constant; a second connection's cache hit is
// answered inline meanwhile; and once the flooding connection is closed
// every slot is released — the read loop, waiting for a slot, learns of it
// when the steps in flight end (here as the cache's exchange timeout ends
// them) and their replies fail to write, and the serve loop's return
// cancels and waits for the rest.
func TestStreamFloodIsBounded(t *testing.T) {
	stub := &cannedMiss{wireStub: newWireStub(t, "hit.example."), gate: make(chan struct{})}
	srv := &StreamServer{Handler: stub, OutOfOrder: true, Telemetry: telemetry.New()}
	before := runtime.NumGoroutine()

	flood, floodSrv := tcpPair(t)
	floodDone := make(chan error, 1)
	go func() { floodDone <- srv.ServeConn(floodSrv) }()
	go func() {
		for i := 0; i < 5000; i++ {
			_, wire := packQuery(t, uint16(i), "flood.example.")
			if WriteStreamMessage(flood, wire) != nil {
				return // the connection was closed under the flood
			}
		}
	}()
	waitFor(t, func() bool { return stub.inflight.Load() == maxStreamSlowSteps })
	time.Sleep(50 * time.Millisecond) // a slow step over the bound would start now
	if got := stub.inflight.Load(); got != maxStreamSlowSteps {
		t.Errorf("%d slow steps in flight on the flooding connection, want the bound, %d", got, maxStreamSlowSteps)
	}
	// Two serve loops, the flooder, and this test's odds and ends.
	if got := runtime.NumGoroutine(); got > before+maxStreamSlowSteps+8 {
		t.Errorf("%d goroutines under the flood (%d before), want at most the bound %d and a constant more", got, before, maxStreamSlowSteps)
	}

	other, otherSrv := tcpPair(t)
	go srv.ServeConn(otherSrv)
	_, hit := packQuery(t, 0x5151, "hit.example.")
	other.SetDeadline(time.Now().Add(5 * time.Second))
	if err := WriteStreamMessage(other, hit); err != nil {
		t.Fatal(err)
	}
	if resp, err := ReadStreamMessageInto(other, make([]byte, 2)); err != nil || binary.BigEndian.Uint16(resp) != 0x5151 {
		t.Fatalf("a second connection's hit during the flood: %x, %v", resp, err)
	}

	flood.Close()
	close(stub.gate)
	select {
	case <-floodDone:
	case <-time.After(5 * time.Second):
		t.Fatal("the flooding connection's serve loop did not return once it closed")
	}
	if got := stub.inflight.Load(); got != 0 {
		t.Errorf("%d slow steps still in flight after the flooding connection's serve loop returned", got)
	}
	other.Close()
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before+2 })
}

// countingConn counts the Read calls on the connection that returned data.
type countingConn struct {
	net.Conn
	reads atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.reads.Add(1) // not the call still waiting for the next message
	}
	return n, err
}

// TestStreamReadsOncePerBurst: a plain connection is read through one
// buffer, so a framed message costs one Read, not one for the prefix and
// one for the body, and a burst of pipelined frames that arrived together
// costs one for all of them. The bytes, and what an oversized or truncated
// frame does, are the unbuffered reader's.
func TestStreamReadsOncePerBurst(t *testing.T) {
	stub := newWireStub(t, "hit.example.")
	client, server := tcpPair(t)
	cc := &countingConn{Conn: server}
	done := make(chan error, 1)
	go func() { done <- (&StreamServer{Handler: stub, OutOfOrder: true}).ServeConn(cc) }()

	ask := func(burst int) {
		t.Helper()
		var frames []byte
		for i := 0; i < burst; i++ {
			_, wire := packQuery(t, uint16(i+1), "hit.example.")
			frames = binary.BigEndian.AppendUint16(frames, uint16(len(wire)))
			frames = append(frames, wire...)
		}
		if _, err := client.Write(frames); err != nil { // one segment: the burst arrives together
			t.Fatal(err)
		}
		client.SetReadDeadline(time.Now().Add(5 * time.Second))
		for i := 0; i < burst; i++ {
			if resp, err := ReadStreamMessageInto(client, make([]byte, 2)); err != nil || binary.BigEndian.Uint16(resp) != uint16(i+1) {
				t.Fatalf("reply %d of %d: %x, %v", i+1, burst, resp, err)
			}
		}
	}
	ask(1)
	if got := cc.reads.Load(); got != 1 {
		t.Errorf("one framed message took %d Reads, want 1", got)
	}
	cc.reads.Store(0)
	ask(20)
	if got := cc.reads.Load(); got != 1 {
		t.Errorf("a burst of 20 pipelined frames took %d Reads, want 1", got)
	}

	// A frame larger than the read buffer, then one cut short: served, and
	// an unexpected EOF that ends the loop quietly, as before.
	big := dnswire.NewQuery(0x7777, "hit.example.", dnswire.TypeA)
	big.EDNS.Options = []dnswire.EDNS0Option{{Code: EDNS0PaddingCode, Data: make([]byte, 2*streamReadBuf)}}
	wire, err := big.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteStreamMessage(client, wire); err != nil {
		t.Fatal(err)
	}
	if resp, err := ReadStreamMessageInto(client, make([]byte, 2)); err != nil || binary.BigEndian.Uint16(resp) != 0x7777 {
		t.Fatalf("reply to a %d-byte query: %x, %v", len(wire), resp, err)
	}
	client.Write([]byte{0, 40, 1, 2, 3})
	client.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("a truncated frame ended the serve loop with %v, want a quiet return", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the serve loop did not return")
	}
}
