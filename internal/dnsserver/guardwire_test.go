package dnsserver

// Serving-path coverage for the abuse guard: the UDP loop's
// slip/drop/cookie behaviour and guard accounting, and the
// stream path's REFUSED synthesis. The guard's own semantics (bucket math,
// cookie crypto, breaker) are pinned in internal/guard; here we prove the
// servers consult it and account for it correctly.

import (
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"dohcost/internal/dnswire"
	"dohcost/internal/guard"
	"dohcost/internal/udpio"
)

// noRefill is a client QPS low enough that buckets effectively never
// refill within a test run, making limit decisions deterministic.
const noRefill = 1e-6

// cookieQuery packs a query for name carrying the given COOKIE option data.
func cookieQuery(t *testing.T, id uint16, name dnswire.Name, cookie []byte) []byte {
	t.Helper()
	m := dnswire.NewQuery(id, name, dnswire.TypeA)
	m.EDNS = &dnswire.EDNS{UDPSize: 1232, Options: []dnswire.EDNS0Option{
		{Code: guard.EDNS0CookieCode, Data: cookie},
	}}
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// sendRecv writes one datagram and reads one response.
func sendRecv(t *testing.T, c net.Conn, q []byte) *dnswire.Message {
	t.Helper()
	if _, err := c.Write(q); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 65535)
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := c.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	var m dnswire.Message
	if err := m.Unpack(buf[:n]); err != nil {
		t.Fatalf("bad response: %v", err)
	}
	return &m
}

// respCookie extracts the COOKIE option data from a response.
func respCookie(m *dnswire.Message) []byte {
	if m.EDNS == nil {
		return nil
	}
	for _, o := range m.EDNS.Options {
		if o.Code == guard.EDNS0CookieCode {
			return o.Data
		}
	}
	return nil
}

// TestUDPGuardSlipAndCookieBypass walks the full RRL + cookie story over
// the UDP loop: answers carry server cookies, over-limit
// queries degrade to TC=1 slips (never silence, with SlipEvery=1), and
// presenting the issued cookie bypasses the exhausted bucket.
func TestUDPGuardSlipAndCookieBypass(t *testing.T) {
	g := guard.New(guard.Config{
		ClientQPS: noRefill, Burst: 2, SlipEvery: 1, CookieSecret: 0xc0ffee,
	})
	pc := listenLoopback(t)
	srv := &UDPServer{
		Handler: Static(netip.MustParseAddr("192.0.2.7"), 60),
		Guard:   g,
	}
	go srv.Serve(pc)
	c, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cc := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	// Query 1: answered on the Message path, cookie echoed.
	r1 := sendRecv(t, c, cookieQuery(t, 1, "a.example.", cc))
	if r1.Truncated || len(r1.Answers) != 1 {
		t.Fatalf("query 1: truncated=%v answers=%d", r1.Truncated, len(r1.Answers))
	}
	full := respCookie(r1)
	if len(full) != 24 {
		t.Fatalf("response cookie %d bytes, want 24", len(full))
	}
	// Query 2 drains the burst; query 3 is over-limit and must slip TC=1
	// with the question echoed and no records.
	sendRecv(t, c, cookieQuery(t, 2, "a.example.", cc))
	r3 := sendRecv(t, c, cookieQuery(t, 3, "a.example.", cc))
	if !r3.Truncated || len(r3.Answers) != 0 {
		t.Fatalf("query 3: truncated=%v answers=%d, want TC referral", r3.Truncated, len(r3.Answers))
	}
	if r3.ID != 3 || len(r3.Questions) != 1 || r3.Questions[0].Name.Canonical() != "a.example." {
		t.Fatalf("slip did not echo the question: %v", r3)
	}
	if sc := respCookie(r3); len(sc) != 24 {
		t.Fatalf("slip response cookie %d bytes, want 24 (clients must be able to graduate)", len(sc))
	}
	// Query 4 presents the issued server cookie: rate limit bypassed.
	r4 := sendRecv(t, c, cookieQuery(t, 4, "a.example.", full))
	if r4.Truncated || len(r4.Answers) != 1 {
		t.Fatalf("cookie-validated query: truncated=%v answers=%d", r4.Truncated, len(r4.Answers))
	}
	rep := g.Report()
	if rep.Slips == 0 || rep.CookiesValidated == 0 || rep.CookiesIssued == 0 {
		t.Fatalf("guard report %+v: want slips, validations and issues", rep)
	}
}

// TestUDPHotCacheEchoesCookie pins GUARD.md's cookie promise against a hot
// cache: a client cookie that arrives without a valid server cookie is owed
// one, and gets it on the inline hit step — fit grows the reply where it
// lies in the flush buffer — so a client never has to be slipped first to
// graduate. Cookie-owed, cookie-validated and cookie-less queries are all
// inline hits.
func TestUDPHotCacheEchoesCookie(t *testing.T) {
	stub := newWireStub(t, "hot.example.")
	g := guard.New(guard.Config{CookieSecret: 0xc0ffee})
	pc := listenLoopback(t)
	srv := &UDPServer{Handler: stub, Guard: g}
	go srv.Serve(pc)
	c, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cc := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	r1 := sendRecv(t, c, cookieQuery(t, 1, "hot.example.", cc))
	full := respCookie(r1)
	if len(r1.Answers) != 1 || len(full) != 24 {
		t.Fatalf("client cookie against a hot cache: answers=%d cookie=%d bytes issued=%d, want 1 answer with a 24-byte server cookie",
			len(r1.Answers), len(full), g.Report().CookiesIssued)
	}
	// The issued cookie validates, and a validated query is a plain hit again.
	r2 := sendRecv(t, c, cookieQuery(t, 2, "hot.example.", full))
	wire, err := dnswire.NewQuery(3, "hot.example.", dnswire.TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	r3 := sendRecv(t, c, wire)
	if len(r2.Answers) != 1 || len(r3.Answers) != 1 {
		t.Fatalf("validated / cookie-less hits: answers=%d/%d", len(r2.Answers), len(r3.Answers))
	}
	if fast := stub.fastServed.Load(); fast != 3 {
		t.Fatalf("fast hits = %d, want 3: cookie-owed, cookie-validated and cookie-less queries are inline", fast)
	}
	if rep := g.Report(); rep.CookiesIssued != 1 || rep.CookiesValidated != 1 {
		t.Fatalf("guard report %+v: want one cookie issued and one validated", rep)
	}
	if st := srv.ShardStats(); st[0].FastHits != 3 || st[0].SlowPath != 0 {
		t.Fatalf("shard ledger %+v: want 3 fast hits and no slow path", st[0])
	}
}

// TestBatchGuardDroppedAccounting pins the ServeBatch fix: datagrams the
// guard consumes (drops and slips) land in their own shard counter and the
// batch ledger stays exact — Datagrams == FastHits + SlowPath +
// GuardDropped — and agrees with the guard's own Report.
func TestBatchGuardDroppedAccounting(t *testing.T) {
	stub := newWireStub(t, "hot.example.")
	g := guard.New(guard.Config{ClientQPS: noRefill, Burst: 3, SlipEvery: 2})
	conns, err := udpio.ListenShards("udp", "127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	srv := &UDPServer{Handler: stub, Guard: g}
	done := make(chan struct{})
	go func() { defer close(done); srv.ServeBatch(conns, 8) }()

	c, err := net.Dial("udp", conns[0].LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const total = 12
	for i := 0; i < total; i++ {
		wire, err := dnswire.NewQuery(uint16(i+1), "hot.example.", dnswire.TypeA).Pack()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(wire); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond) // let each datagram land; ordering keeps burst math exact
	}

	accounted := func() (fast, slow, guarded, datagrams uint64) {
		for _, st := range srv.ShardStats() {
			fast += st.FastHits
			slow += st.SlowPath
			guarded += st.GuardDropped
			datagrams += st.Datagrams
		}
		return
	}
	waitFor(t, func() bool { _, _, _, d := accounted(); return d >= total })
	fast, slow, guarded, datagrams := accounted()
	if fast+slow+guarded != datagrams {
		t.Fatalf("ledger broken: fast %d + slow %d + guarded %d != datagrams %d",
			fast, slow, guarded, datagrams)
	}
	if fast != 3 || guarded != total-3 {
		t.Fatalf("fast=%d guarded=%d, want 3 and %d (burst then limits)", fast, guarded, total-3)
	}
	rep := g.Report()
	if rep.Drops+rep.Slips != guarded {
		t.Fatalf("guard drops %d + slips %d != shard guarded %d", rep.Drops, rep.Slips, guarded)
	}

	for _, cc := range conns {
		cc.Close()
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ServeBatch did not return")
	}
}

// TestBatchGuardConcurrentHotName mirrors TestBatchShardedHotName with the
// guard engaged: concurrent clients hammer one hot name through sharded
// batch loops while token-bucket refills race the per-datagram guard
// checks — the -race workout for the bucket's striped state on the batch
// path. Limits are set high so every query is admitted and answered.
func TestBatchGuardConcurrentHotName(t *testing.T) {
	stub := newWireStub(t, "hot.example.")
	g := guard.New(guard.Config{ClientQPS: 1e6, Burst: 1 << 20, Shards: 2, Slots: 64})
	conns, err := udpio.ListenShards("udp", "127.0.0.1:0", 4)
	if err != nil {
		t.Fatal(err)
	}
	srv := &UDPServer{Handler: stub, Guard: g}
	done := make(chan struct{})
	go func() { defer close(done); srv.ServeBatch(conns, 32) }()
	addr := conns[0].LocalAddr().String()

	const clients = 8
	const perClient = 50
	var wg sync.WaitGroup
	for gi := 0; gi < clients; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			queries := make(map[uint16][]byte, perClient)
			for i := 0; i < perClient; i++ {
				id := uint16(gi*perClient + i + 1)
				wire, err := dnswire.NewQuery(id, "hot.example.", dnswire.TypeA).Pack()
				if err != nil {
					t.Error(err)
					return
				}
				queries[id] = wire
			}
			collectResponses(t, addr, queries)
		}(gi)
	}
	wg.Wait()

	if rep := g.Report(); rep.Allowed < clients*perClient {
		t.Fatalf("guard admitted %d, want >= %d", rep.Allowed, clients*perClient)
	}
	for _, c := range conns {
		c.Close()
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ServeBatch did not return")
	}
}

// TestStreamGuardRefuses pins the stream policy: over-limit queries on a
// connection-oriented transport get an honest REFUSED — question echoed,
// no TC, connection intact — and service resumes within the same
// connection once the bucket refills.
func TestStreamGuardRefuses(t *testing.T) {
	g := guard.New(guard.Config{ClientQPS: noRefill, Burst: 1})
	srv := &StreamServer{Handler: Static(netip.MustParseAddr("192.0.2.7"), 60), Guard: g}
	client, server := net.Pipe()
	defer client.Close()
	go srv.ServeConn(server)

	exchange := func(id uint16) *dnswire.Message {
		t.Helper()
		wire, err := dnswire.NewQuery(id, "a.example.", dnswire.TypeA).Pack()
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteStreamMessage(client, wire); err != nil {
			t.Fatal(err)
		}
		raw, err := ReadStreamMessageInto(client, make([]byte, 2))
		if err != nil {
			t.Fatal(err)
		}
		var m dnswire.Message
		if err := m.Unpack(raw); err != nil {
			t.Fatal(err)
		}
		return &m
	}
	if r := exchange(1); r.RCode != dnswire.RCodeSuccess || len(r.Answers) != 1 {
		t.Fatalf("first query: rcode %v answers %d", r.RCode, len(r.Answers))
	}
	r := exchange(2)
	if r.RCode != dnswire.RCodeRefused || r.Truncated || len(r.Answers) != 0 {
		t.Fatalf("over-limit stream query: rcode %v tc %v answers %d, want clean REFUSED",
			r.RCode, r.Truncated, len(r.Answers))
	}
	if r.ID != 2 || len(r.Questions) != 1 {
		t.Fatalf("refusal did not echo the question: %v", r)
	}
}

// TestDoHGuardRefuses drives the DoH core directly: a bound context
// carries the client identity, and an over-limit wire query comes back as
// a DNS REFUSED inside an HTTP 200, per RFC 8484's resolution-error model.
func TestDoHGuardRefuses(t *testing.T) {
	g := guard.New(guard.Config{ClientQPS: noRefill, Burst: 1})
	d := &DoH{Handler: Static(netip.MustParseAddr("192.0.2.7"), 60), Guard: g}
	ctx := guard.NewContext(t.Context(), 424242)

	q, err := dnswire.NewQuery(9, "a.example.", dnswire.TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	status, ct, body := bindDoH(d, ctx).serve("POST", "/dns-query", ContentTypeWire, q)
	if status != 200 || ct != ContentTypeWire {
		t.Fatalf("first query: %d %q", status, ct)
	}
	status, ct, body = bindDoH(d, ctx).serve("POST", "/dns-query", ContentTypeWire, q)
	if status != 200 || ct != ContentTypeWire {
		t.Fatalf("refused query: %d %q, want DNS-level refusal in HTTP 200", status, ct)
	}
	var m dnswire.Message
	if err := m.Unpack(body); err != nil {
		t.Fatal(err)
	}
	if m.RCode != dnswire.RCodeRefused || m.ID != 9 {
		t.Fatalf("refused query: rcode %v id %d", m.RCode, m.ID)
	}
	// An unbound context (no client identity) is never limited.
	for i := 0; i < 5; i++ {
		status, _, _ = bindDoH(d, t.Context()).serve("POST", "/dns-query", ContentTypeWire, q)
		if status != 200 {
			t.Fatalf("unbound query %d: %d", i, status)
		}
	}
}
