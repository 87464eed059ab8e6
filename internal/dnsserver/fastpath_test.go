package dnsserver

import (
	"bytes"
	"context"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"dohcost/internal/dnswire"
	"dohcost/internal/netsim"
	"dohcost/internal/telemetry"
)

// wireStub is a Handler+WireResponder whose fast path serves a canned
// packed response (for one magic name) and declines everything else,
// counting which path each query took.
type wireStub struct {
	resp        []byte // served by the fast path for fastName
	fastName    dnswire.Name
	fastServed  atomic.Int64
	msgServed   atomic.Int64
	lastOutcome telemetry.CacheOutcome
}

func (s *wireStub) ServeDNS(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	s.msgServed.Add(1)
	r := q.Reply()
	r.Answers = append(r.Answers, dnswire.ResourceRecord{
		Name: q.Question1().Name, Class: dnswire.ClassINET, TTL: 60,
		Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.200")},
	})
	return r, nil
}

func (s *wireStub) ServeDNSWire(tx *telemetry.Transaction, q *dnswire.Query, dst []byte, limit int) ([]byte, bool) {
	name := dnswire.Name(q.AppendCanonicalName(nil))
	if name != s.fastName || (limit > 0 && len(s.resp) > limit) {
		return nil, false
	}
	s.fastServed.Add(1)
	out := append(dst, s.resp...)
	dnswire.PatchID(out, q.ID)
	tx.SetCache(telemetry.CacheHit)
	return out, true
}

func newWireStub(t *testing.T, fastName dnswire.Name) *wireStub {
	t.Helper()
	m := &dnswire.Message{
		ID: 0xAAAA, Response: true, RecursionAvailable: true,
		Questions: []dnswire.Question{{Name: fastName, Type: dnswire.TypeA, Class: dnswire.ClassINET}},
		Answers: []dnswire.ResourceRecord{{
			Name: fastName, Class: dnswire.ClassINET, TTL: 42,
			Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.100")},
		}},
	}
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	return &wireStub{resp: wire, fastName: fastName}
}

func TestUDPServerWireFastPath(t *testing.T) {
	n := netsim.New(3)
	pc, err := n.ListenPacket("srv:53")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pc.Close() })
	stub := newWireStub(t, "fast.example.")
	tel := telemetry.New()
	srv := &UDPServer{Handler: stub, Telemetry: tel}
	go srv.Serve(pc)
	cli, err := n.ListenPacket("cli:5353")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })

	// A fast-served name comes back as the stub's canned bytes with the
	// client's ID patched in — the Message handler never runs.
	raw := exchangeRaw(t, cli, dnswire.NewQuery(0x0707, "fast.example.", dnswire.TypeA))
	want := append([]byte(nil), stub.resp...)
	dnswire.PatchID(want, 0x0707)
	if !bytes.Equal(raw, want) {
		t.Errorf("fast path bytes:\n got  %x\n want %x", raw, want)
	}
	if stub.fastServed.Load() != 1 || stub.msgServed.Load() != 0 {
		t.Errorf("served fast=%d msg=%d, want 1/0", stub.fastServed.Load(), stub.msgServed.Load())
	}

	// A declined name falls back to the Message path — and the transaction
	// begun for the fast attempt is reused, not double-counted.
	raw = exchangeRaw(t, cli, dnswire.NewQuery(0x0808, "slow.example.", dnswire.TypeA))
	var resp dnswire.Message
	if err := resp.Unpack(raw); err != nil {
		t.Fatal(err)
	}
	if resp.ID != 0x0808 || len(resp.Answers) != 1 {
		t.Errorf("fallback response = %s", &resp)
	}
	if stub.msgServed.Load() != 1 {
		t.Errorf("message path served %d, want 1", stub.msgServed.Load())
	}
	waitFor(t, func() bool { return tel.Snapshot().Queries["udp"] == 2 })
	snap := tel.Snapshot()
	if snap.Queries["udp"] != 2 {
		t.Errorf("telemetry counted %d udp queries, want 2 (no double Begin)", snap.Queries["udp"])
	}
	if snap.Verdicts["ok"] != 2 {
		t.Errorf("verdicts = %+v, want 2 ok", snap.Verdicts)
	}
	if snap.CacheEvents["hit"] != 1 {
		t.Errorf("cache events = %+v, want 1 hit from the fast path", snap.CacheEvents)
	}
}

func TestStreamServerWireFastPath(t *testing.T) {
	n := netsim.New(4)
	l, err := n.Listen("srv:53")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	stub := newWireStub(t, "fast.example.")
	srv := &StreamServer{Handler: stub, OutOfOrder: true}
	go srv.Serve(l)

	conn, err := n.Dial("cli", "srv:53")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })

	send := func(q *dnswire.Message) {
		wire, err := q.Pack()
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteStreamMessage(conn, wire); err != nil {
			t.Fatal(err)
		}
	}
	recv := func() *dnswire.Message {
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		wire, err := ReadStreamMessageInto(conn, make([]byte, 2))
		if err != nil {
			t.Fatal(err)
		}
		var m dnswire.Message
		if err := m.Unpack(wire); err != nil {
			t.Fatal(err)
		}
		return &m
	}

	send(dnswire.NewQuery(0x1111, "fast.example.", dnswire.TypeA))
	if m := recv(); m.ID != 0x1111 || m.Answers[0].TTL != 42 {
		t.Errorf("fast stream reply = %s", m)
	}
	send(dnswire.NewQuery(0x2222, "slow.example.", dnswire.TypeA))
	if m := recv(); m.ID != 0x2222 || len(m.Answers) != 1 {
		t.Errorf("fallback stream reply = %s", m)
	}
	if stub.fastServed.Load() != 1 || stub.msgServed.Load() != 1 {
		t.Errorf("served fast=%d msg=%d, want 1/1", stub.fastServed.Load(), stub.msgServed.Load())
	}
}

// TestUDPServeShutdownCancelsInFlight pins the worker-pool shutdown
// contract: closing the socket must cancel every in-flight handler's
// context and let Serve return promptly, never waiting out a query
// parked on a slow upstream.
func TestUDPServeShutdownCancelsInFlight(t *testing.T) {
	n := netsim.New(5)
	pc, err := n.ListenPacket("srv:53")
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{}, 1)
	srv := &UDPServer{Handler: HandlerFunc(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		started <- struct{}{}
		<-ctx.Done() // park until the serve loop cancels us
		return nil, ctx.Err()
	})}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(pc) }()

	cli, err := n.ListenPacket("cli:5353")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	wire, err := dnswire.NewQuery(1, "stuck.example.", dnswire.TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.WriteTo(wire, netsim.Addr("srv:53")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(2 * time.Second):
		t.Fatal("handler never started")
	}
	pc.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v, want nil on close", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve hung on an in-flight handler after close")
	}
}

// TestUDPServeGivesUpOnBrokenSocket pins the reader-loop error policy: a
// socket that fails every read (here: a permanently expired deadline)
// must make Serve return the error promptly — one reader gives up after
// its retry budget and closes the socket so its peers unblock — instead
// of limping forever at reduced read capacity.
func TestUDPServeGivesUpOnBrokenSocket(t *testing.T) {
	n := netsim.New(6)
	pc, err := n.ListenPacket("srv:53")
	if err != nil {
		t.Fatal(err)
	}
	pc.SetReadDeadline(time.Unix(1, 0)) // every ReadFrom times out
	srv := &UDPServer{Handler: Static(netip.MustParseAddr("192.0.2.1"), 60)}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(pc) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Serve returned nil for a persistently broken socket")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve never gave up on a broken socket")
	}
}

// waitFor polls cond until it holds or a deadline passes — UDP telemetry
// finishes just after the response datagram leaves, so a reader can
// observe the reply marginally before the counters settle.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}
