package dnsserver

import (
	"bytes"
	"context"
	"net"
	"testing"

	"dohcost/internal/dnswire"
	"dohcost/internal/guard"
	"dohcost/internal/h2"
	"dohcost/internal/telemetry"
)

// cannedWire is a WireResponder that answers every query with one packed
// response, allocating nothing: the cache hit without the cache.
type cannedWire struct {
	refStub
	resp []byte
}

func (s *cannedWire) ServeDNSWire(tx *telemetry.Transaction, q *dnswire.Query, dst []byte, limit int) ([]byte, bool) {
	out := append(dst, s.resp...)
	dnswire.PatchID(out, q.ID)
	tx.SetCache(telemetry.CacheHit)
	return out, true
}

// TestDoHHitAllocs pins the garbage of a DoH cache hit from socket to socket:
// a bound DoH handler behind h2.Server, guard and telemetry in the path, a
// ClientConn in front. The serving side — header block into the connection's
// scratch, a recycled stream, the hit appended into the connection's body
// scratch, one shared header slice, the response written on the read loop —
// allocates nothing once warm, and neither does a client whose Request is
// reused: the Response and its body are that Request's storage.
func TestDoHHitAllocs(t *testing.T) {
	q, wire := packQuery(t, 0x1234, "fast.example.")
	want, err := Respond(context.Background(), &refStub{}, q).Pack()
	if err != nil {
		t.Fatal(err)
	}
	d := &DoH{Handler: &cannedWire{resp: want}, Guard: openGuard(), Telemetry: telemetry.New()}

	l, err := net.Listen("tcp", "127.0.0.1:0") // loopback: unlike netsim's, its reads and writes allocate nothing
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	s, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h2h, _ := d.Bind(guard.NewContext(t.Context(), 424242))
	go (&h2.Server{Handler: h2h}).ServeConn(s)
	cc, err := h2.NewClientConn(c)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	req := &h2.Request{Method: "POST", Scheme: "https", Authority: "doh.test", Path: "/dns-query", Header: dohPOSTHeader, Body: wire}
	exchange := func() {
		resp, err := cc.RoundTrip(context.Background(), req)
		if err != nil || resp.Status != 200 || !bytes.Equal(resp.Body, want) || resp.HeaderValue("content-type") != ContentTypeWire {
			t.Fatalf("DoH hit: %+v, %v", resp, err)
		}
	}
	for i := 0; i < 4; i++ { // SETTINGS and HPACK indexing are behind us
		exchange()
	}
	once := *req // a Request of its own, never sent again
	kept, err := cc.RoundTrip(context.Background(), &once)
	if err != nil {
		t.Fatal(err)
	}
	// Under -race the count is not read, but the hits still run: the
	// detector's sync.Pool drops some of the clientStreams and Transactions
	// put back, and a miss allocates one.
	if allocs := testing.AllocsPerRun(200, exchange); allocs != 0 && !raceEnabled {
		t.Errorf("DoH hit round trip with a reused Request: %v allocs/op, want 0", allocs)
	}
	// A response whose Request is not sent again is the caller's: 200 later
	// hits, answered from the same connection-owned scratch, have not
	// touched it.
	if kept.Status != 200 || !bytes.Equal(kept.Body, want) || kept.HeaderValue("content-type") != ContentTypeWire {
		t.Errorf("a response changed after it was returned: %+v", kept)
	}
}
