package dnstransport

import (
	"bytes"
	"context"
	"crypto/tls"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"dohcost/internal/dnswire"
	"dohcost/internal/h2"
	"dohcost/internal/tlsx"
)

// What a wire exchange may do to the caller's buffer: append the reply and
// nothing else, and touch it no more once the exchange has returned.

// echoReply is query turned into its own reply: the QR bit set, the rest
// (ID, question) as it came — what dnswire.ValidateResponseWire accepts.
func echoReply(dst, query []byte) []byte {
	base := len(dst)
	dst = append(dst, query...)
	dst[base+2] |= 0x80
	return dst
}

// scribbler is a wire-native upstream. A failing one writes junk into the
// caller's buffer before it gives up, as a transport client that read half a
// reply might; the other answers with the query's echo.
type scribbler struct{ fail bool }

var errScribbled = errors.New("upstream failed after writing")

func (s scribbler) ExchangeWire(_ context.Context, query, dst []byte) ([]byte, error) {
	if s.fail {
		for range 64 {
			dst = append(dst, 0xBD)
		}
		return nil, errScribbled
	}
	return echoReply(dst, query), nil
}

func (s scribbler) Exchange(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	return ExchangeMessage(ctx, s, q)
}

func (scribbler) Close() error { return nil }

// TestPoolFailoverOverwritesDst: when the first upstream fails after writing
// into the caller's buffer, the pool fails over and the second upstream's
// reply is appended where the first one's junk began — the buffer holds what
// it held before and the second reply, nothing of the first.
func TestPoolFailoverOverwritesDst(t *testing.T) {
	ups := []PoolUpstream{
		{Name: "broken", Dial: func(context.Context) (Resolver, error) { return scribbler{fail: true}, nil }},
		{Name: "good", Dial: func(context.Context) (Resolver, error) { return scribbler{}, nil }},
	}
	p, err := NewPool(ups, PoolConfig{ConnsPerUpstream: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	query, err := q("failover.example.").Pack()
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("kept")
	dst := append(make([]byte, 0, 512), prefix...)
	resp, err := p.ExchangeWire(context.Background(), query, dst)
	if err != nil {
		t.Fatal(err)
	}
	want := echoReply(append([]byte(nil), prefix...), query)
	if !bytes.Equal(resp, want) {
		t.Errorf("after failover the buffer holds\n %x\nwant the prefix and the second reply alone\n %x", resp, want)
	}
	if &resp[0] != &dst[0] {
		t.Error("the reply is not in the caller's buffer")
	}
	if s := p.Stats(); s[0].Failures != 1 || s[1].Exchanges != 1 {
		t.Errorf("stats %+v: want one failure on the first upstream, one exchange on the second", s)
	}
}

// loopback returns the two ends of a loopback TCP connection, whose reads
// and writes allocate nothing.
func loopback(t *testing.T) (client, server net.Conn) {
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

// echoStream answers every framed query on conn with its echo, allocating
// nothing itself. With gate set it reports each query read on served and
// waits for a token on gate before answering.
func echoStream(conn net.Conn, served, gate chan struct{}) {
	var buf [2 + 512]byte
	for {
		if _, err := io.ReadFull(conn, buf[:2]); err != nil {
			return
		}
		n := int(binary.BigEndian.Uint16(buf[:2]))
		if n > len(buf)-2 {
			return
		}
		if _, err := io.ReadFull(conn, buf[2:2+n]); err != nil {
			return
		}
		if gate != nil {
			served <- struct{}{}
			<-gate
		}
		buf[4] |= 0x80 // QR
		if _, err := conn.Write(buf[:2+n]); err != nil {
			return
		}
	}
}

// TestStreamExchangeIntoDstAllocs pins a stream exchange on a live
// connection: the query framed in a pooled buffer, a recycled waiter, the
// reply read into the connection's buffer and copied into the caller's —
// with room for it there, nothing is allocated.
func TestStreamExchangeIntoDstAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool and instrumentation allocate")
	}
	client, server := loopback(t)
	go echoStream(server, nil, nil)
	c := NewTCPClient(func(context.Context) (net.Conn, error) { return client, nil })
	defer c.Close()
	query, err := q("alloc.example.").Pack()
	if err != nil {
		t.Fatal(err)
	}
	dst, want := make([]byte, 0, 512), echoReply(nil, query)
	exchange := func() {
		resp, err := c.ExchangeWire(context.Background(), query, dst)
		if err != nil || !bytes.Equal(resp, want) || &resp[0] != &dst[:1][0] {
			t.Fatalf("exchange: %x, %v", resp, err)
		}
	}
	exchange() // dial
	if got := testing.AllocsPerRun(200, exchange); got > 0 {
		t.Errorf("a stream exchange into a buffer with room allocates %.1f times, want none", got)
	}
}

// echoH2 answers every DoH request inline with its body's echo, from a
// Response of its own: the server side of an exchange without its garbage.
type echoH2 struct{ resp h2.Response }

func (*echoH2) ServeH2(req *h2.Request) *h2.Response {
	return &h2.Response{Status: 200, Body: echoReply(nil, req.Body)}
}

func (h *echoH2) ServeH2Inline(req *h2.Request) (*h2.Response, func() *h2.Response) {
	h.resp.Status, h.resp.Body = 200, echoReply(h.resp.Body[:0], req.Body)
	return &h.resp, nil
}

// TestDoHExchangeIntoDstAllocs pins a persistent h2 DoH exchange on loopback
// TLS: a pooled request that owns its response storage, the query's ID-0
// copy in the same pooled exchange, and the body appended to the caller's
// buffer. With room for it there, what is left is crypto/tls's per-read
// allocation, on the client's read of the response and the server's read of
// the request.
func TestDoHExchangeIntoDstAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool and instrumentation allocate")
	}
	chain, err := tlsx.GenerateChain(tlsx.CloudflareLike("resolver.test"))
	if err != nil {
		t.Fatal(err)
	}
	client, server := loopback(t)
	go (&h2.Server{Handler: &echoH2{}}).ServeConn(tls.Server(server, chain.ServerConfig(tls.VersionTLS13, tls.VersionTLS13, "h2")))
	c := &DoHClient{Dial: func(context.Context) (net.Conn, error) { return client, nil },
		TLS: chain.ClientConfig("resolver.test"), Persistent: true}
	defer c.Close()
	query, err := q("alloc.example.").Pack()
	if err != nil {
		t.Fatal(err)
	}
	dst, want := make([]byte, 0, 512), echoReply(nil, query)
	exchange := func() {
		resp, err := c.ExchangeWire(context.Background(), query, dst)
		if err != nil || !bytes.Equal(resp, want) || &resp[0] != &dst[:1][0] {
			t.Fatalf("exchange: %x, %v", resp, err)
		}
	}
	for i := 0; i < 4; i++ { // dial, SETTINGS, HPACK indexing
		exchange()
	}
	if got := testing.AllocsPerRun(200, exchange); got > 2 {
		t.Errorf("a DoH exchange into a buffer with room allocates %.1f times, want crypto/tls's per-read allocation on each side, 2 at most", got)
	}
}

// TestDepartedWaiterIsNeverWritten: a waiter leaving on its context while
// the read loop delivers its reply either took the reply or is never
// written to again. Each round cancels the exchange as the server answers;
// a caller that left with its context's error scribbles over its buffer at
// once, and its buffer must hold only the scribble once the read loop has
// moved on. Under -race, a copy into a departed waiter's buffer is a
// report.
func TestDepartedWaiterIsNeverWritten(t *testing.T) {
	client, server := loopback(t)
	served, gate := make(chan struct{}), make(chan struct{})
	go echoStream(server, served, gate)
	c := NewTCPClient(func(context.Context) (net.Conn, error) { return client, nil })
	defer c.Close()
	query, err := q("departed.example.").Pack()
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		resp []byte
		err  error
	}
	var departed [][]byte
	for round := 0; round < 200; round++ {
		dst := make([]byte, 0, 256)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan outcome, 1)
		go func() {
			resp, err := c.ExchangeWire(ctx, query, dst)
			done <- outcome{resp, err}
		}()
		<-served
		gate <- struct{}{} // the server answers…
		if round%4 != 0 {
			time.Sleep(time.Duration(round%7) * time.Microsecond)
		}
		cancel() // …as the caller leaves
		out := <-done
		if out.err == nil {
			if !bytes.Equal(out.resp, echoReply(nil, query)) {
				t.Fatalf("round %d: reply %x", round, out.resp)
			}
			continue
		}
		if !errors.Is(out.err, context.Canceled) {
			t.Fatalf("round %d: %v", round, out.err)
		}
		all := dst[:cap(dst)]
		for i := range all {
			all[i] = 0xEE
		}
		departed = append(departed, all)
	}
	// One more exchange: its reply comes after every earlier one, so the
	// read loop is done with them all.
	done := make(chan error, 1)
	go func() {
		_, err := c.ExchangeWire(context.Background(), query, nil)
		done <- err
	}()
	<-served
	gate <- struct{}{}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for i, all := range departed {
		for j, b := range all {
			if b != 0xEE {
				t.Fatalf("departed waiter %d: octet %d written after it left", i, j)
			}
		}
	}
	t.Logf("%d of 200 waiters left before their reply was theirs", len(departed))
}
