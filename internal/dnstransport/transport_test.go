package dnstransport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"dohcost/internal/dnsserver"
	"dohcost/internal/dnswire"
	"dohcost/internal/netsim"
	"dohcost/internal/tlsx"
)

// testbed is a full resolver deployment on a simulated network.
type testbed struct {
	net   *netsim.Network
	chain *tlsx.Chain
	host  string
	run   *dnsserver.Running
}

func newTestbed(t *testing.T, handler dnsserver.Handler, mutate func(*dnsserver.Server)) *testbed {
	t.Helper()
	n := netsim.New(1)
	chain, err := tlsx.GenerateChain(tlsx.CloudflareLike("resolver.test"))
	if err != nil {
		t.Fatal(err)
	}
	srv := &dnsserver.Server{
		Handler: handler,
		Chain:   chain,
		Endpoints: []dnsserver.Endpoint{
			{Path: "/dns-query", Wire: true, JSON: true},
		},
	}
	if mutate != nil {
		mutate(srv)
	}
	run, err := srv.Start(n, "resolver.test")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(run.Close)
	return &testbed{net: n, chain: chain, host: "resolver.test", run: run}
}

func staticHandler() dnsserver.Handler {
	return dnsserver.Static(netip.MustParseAddr("192.0.2.53"), 300)
}

func (tb *testbed) udpClient(t *testing.T) *UDPClient {
	t.Helper()
	pc, err := tb.net.ListenPacket("")
	if err != nil {
		t.Fatal(err)
	}
	c := NewUDPClient(pc, netsim.Addr(tb.host+":53"))
	t.Cleanup(func() { c.Close() })
	return c
}

func (tb *testbed) tcpClient(t *testing.T) *StreamClient {
	t.Helper()
	c := NewTCPClient(func(ctx context.Context) (net.Conn, error) { return tb.net.DialContext(ctx, "client", tb.host+":53") })
	t.Cleanup(func() { c.Close() })
	return c
}

func (tb *testbed) dotClient(t *testing.T) *StreamClient {
	t.Helper()
	c := NewDoTClient(
		func(ctx context.Context) (net.Conn, error) { return tb.net.DialContext(ctx, "client", tb.host+":853") },
		tb.chain.ClientConfig(tb.host),
	)
	t.Cleanup(func() { c.Close() })
	return c
}

func (tb *testbed) dohClient(t *testing.T, mode DoHMode, persistent bool) *DoHClient {
	t.Helper()
	c := &DoHClient{
		Dial:       func(ctx context.Context) (net.Conn, error) { return tb.net.DialContext(ctx, "client", tb.host+":443") },
		TLS:        tb.chain.ClientConfig(tb.host),
		Mode:       mode,
		Persistent: persistent,
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func checkAnswer(t *testing.T, resp *dnswire.Message, name dnswire.Name) {
	t.Helper()
	if resp.RCode != dnswire.RCodeSuccess {
		t.Fatalf("rcode = %v", resp.RCode)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("answers = %v", resp.Answers)
	}
	a, ok := resp.Answers[0].Data.(*dnswire.A)
	if !ok || a.Addr != netip.MustParseAddr("192.0.2.53") {
		t.Fatalf("answer = %v", resp.Answers[0])
	}
	if resp.Answers[0].Name != name.Canonical() {
		t.Fatalf("answer name = %v, want %v", resp.Answers[0].Name, name)
	}
}

func TestAllTransportsResolve(t *testing.T) {
	tb := newTestbed(t, staticHandler(), nil)
	clients := map[string]Resolver{
		"udp":            tb.udpClient(t),
		"tcp":            tb.tcpClient(t),
		"dot":            tb.dotClient(t),
		"doh-h2":         tb.dohClient(t, ModeH2, true),
		"doh-h1":         tb.dohClient(t, ModeH1, true),
		"doh-h2-oneshot": tb.dohClient(t, ModeH2, false),
	}
	for name, c := range clients {
		t.Run(name, func(t *testing.T) {
			q := dnswire.NewQuery(0, "www.example.com.", dnswire.TypeA)
			resp, err := c.Exchange(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			checkAnswer(t, resp, "www.example.com.")
		})
	}
}

func TestDoHEncodings(t *testing.T) {
	tb := newTestbed(t, staticHandler(), nil)
	for _, enc := range []struct {
		name string
		e    DoHEncoding
	}{{"post", EncodingPOST}, {"get", EncodingGET}, {"json", EncodingJSON}} {
		t.Run(enc.name, func(t *testing.T) {
			c := tb.dohClient(t, ModeH2, true)
			c.Encoding = enc.e
			resp, err := c.Exchange(context.Background(), dnswire.NewQuery(0, "enc.example.com.", dnswire.TypeA))
			if err != nil {
				t.Fatal(err)
			}
			checkAnswer(t, resp, "enc.example.com.")
		})
	}
}

func TestDoHUnsupportedPath(t *testing.T) {
	tb := newTestbed(t, staticHandler(), nil)
	c := tb.dohClient(t, ModeH2, true)
	c.Path = "/resolve" // not configured on this deployment
	if _, err := c.Exchange(context.Background(), dnswire.NewQuery(0, "x.com.", dnswire.TypeA)); err == nil {
		t.Fatal("query to unknown path succeeded")
	}
}

func TestDoHJSONOnlyEndpointRejectsWire(t *testing.T) {
	tb := newTestbed(t, staticHandler(), func(s *dnsserver.Server) {
		s.Endpoints = []dnsserver.Endpoint{{Path: "/resolve", JSON: true}}
	})
	wire := tb.dohClient(t, ModeH2, true)
	wire.Path = "/resolve"
	if _, err := wire.Exchange(context.Background(), dnswire.NewQuery(0, "x.com.", dnswire.TypeA)); err == nil {
		t.Fatal("wireformat accepted on JSON-only endpoint")
	}
	jsonc := tb.dohClient(t, ModeH2, true)
	jsonc.Path = "/resolve"
	jsonc.Encoding = EncodingJSON
	resp, err := jsonc.Exchange(context.Background(), dnswire.NewQuery(0, "y.example.com.", dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	checkAnswer(t, resp, "y.example.com.")
}

func TestConcurrentQueriesEveryTransport(t *testing.T) {
	tb := newTestbed(t, staticHandler(), nil)
	clients := map[string]Resolver{
		"udp":    tb.udpClient(t),
		"tcp":    tb.tcpClient(t),
		"dot":    tb.dotClient(t),
		"doh-h2": tb.dohClient(t, ModeH2, true),
	}
	for name, c := range clients {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for i := 0; i < 25; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					qname := dnswire.Name(fmt.Sprintf("host%02d.example.com.", i))
					resp, err := c.Exchange(context.Background(), dnswire.NewQuery(0, qname, dnswire.TypeA))
					if err != nil {
						t.Errorf("query %d: %v", i, err)
						return
					}
					if len(resp.Questions) > 0 && resp.Questions[0].Name != qname {
						t.Errorf("query %d: echoed question %v", i, resp.Questions[0].Name)
					}
				}(i)
			}
			wg.Wait()
		})
	}
}

func TestUDPRetryOnLoss(t *testing.T) {
	tb := newTestbed(t, staticHandler(), nil)
	// 60% loss: with 4 attempts the exchange should almost always succeed.
	tb.net.SetLink("lossy", "resolver.test", netsim.Link{Loss: 0.6})
	pc, err := tb.net.ListenPacket("lossy:1")
	if err != nil {
		t.Fatal(err)
	}
	c := NewUDPClient(pc, netsim.Addr("resolver.test:53"))
	c.Timeout = 50 * time.Millisecond
	c.Retries = 8
	defer c.Close()
	resp, err := c.Exchange(context.Background(), dnswire.NewQuery(0, "retry.example.com.", dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	checkAnswer(t, resp, "retry.example.com.")
}

func TestUDPTimesOutWithoutServer(t *testing.T) {
	n := netsim.New(1)
	pc, _ := n.ListenPacket("cli:1")
	c := NewUDPClient(pc, netsim.Addr("void:53"))
	c.Timeout = 20 * time.Millisecond
	c.Retries = 1
	defer c.Close()
	start := time.Now()
	_, err := c.Exchange(context.Background(), dnswire.NewQuery(0, "x.com.", dnswire.TypeA))
	if err == nil {
		t.Fatal("query into the void succeeded")
	}
	if d := time.Since(start); d < 35*time.Millisecond {
		t.Errorf("gave up after %v, want ≥ 2 attempts × 20ms", d)
	}
}

func TestUDPTruncationOnSmallEDNS(t *testing.T) {
	// Handler returning a large answer set; client advertises a small
	// buffer, so the server must set TC and strip the answers.
	tb := newTestbed(t, bigHandler(), nil)
	c := tb.udpClient(t)
	q := dnswire.NewQuery(0, "big.example.com.", dnswire.TypeTXT)
	q.EDNS.UDPSize = 512
	resp, err := c.Exchange(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Truncated {
		t.Error("oversized response not truncated")
	}
	if len(resp.Answers) != 0 {
		t.Errorf("truncated response carries %d answers", len(resp.Answers))
	}
	// The same query over TCP returns everything.
	tc := tb.tcpClient(t)
	resp, err = tc.Exchange(context.Background(), dnswire.NewQuery(0, "big.example.com.", dnswire.TypeTXT))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Truncated || len(resp.Answers) != 40 {
		t.Errorf("tcp fallback: tc=%v answers=%d", resp.Truncated, len(resp.Answers))
	}
}

// bigHandler answers every query with an answer set far beyond any UDP
// payload limit, forcing the server-side TC=1 path.
func bigHandler() dnsserver.Handler {
	return dnsserver.HandlerFunc(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		r := q.Reply()
		for i := 0; i < 40; i++ {
			r.Answers = append(r.Answers, dnswire.ResourceRecord{
				Name: q.Question1().Name, Class: dnswire.ClassINET, TTL: 60,
				Data: &dnswire.TXT{Strings: []string{fmt.Sprintf("record number %02d with some padding text", i)}},
			})
		}
		return r, nil
	})
}

func TestUDPTruncationFallsBackToTCP(t *testing.T) {
	// RFC 7766 §5: a TC=1 UDP response must be retried over TCP. The
	// server's answer set overflows the client's advertised 512-byte
	// buffer, so without the fallback the client would surface a stripped,
	// truncated response (the case TestUDPTruncationOnSmallEDNS pins down).
	tb := newTestbed(t, bigHandler(), nil)
	c := tb.udpClient(t)
	c.Fallback = NewTCPClient(func(ctx context.Context) (net.Conn, error) { return tb.net.DialContext(ctx, "client", tb.host+":53") })
	q := dnswire.NewQuery(0, "fb.example.com.", dnswire.TypeTXT)
	q.EDNS.UDPSize = 512
	resp, err := c.Exchange(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Truncated {
		t.Error("fallback response still truncated")
	}
	if len(resp.Answers) != 40 {
		t.Errorf("fallback answers = %d, want 40", len(resp.Answers))
	}
}

func TestDoTOutOfOrderVsInOrder(t *testing.T) {
	// A slow first query blocks the second on an in-order DoT server but
	// not on an out-of-order one. This is the paper's §3 DoT finding and
	// the ablation benchmark's subject.
	slowThenFast := func() dnsserver.Handler {
		var n int
		var mu sync.Mutex
		return dnsserver.HandlerFunc(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
			mu.Lock()
			n++
			first := n == 1
			mu.Unlock()
			if first {
				time.Sleep(200 * time.Millisecond)
			}
			return staticHandler().ServeDNS(ctx, q)
		})
	}
	run := func(t *testing.T, ooo bool) time.Duration {
		tb := newTestbed(t, slowThenFast(), func(s *dnsserver.Server) {
			s.DoTOutOfOrder = ooo
		})
		c := tb.dotClient(t)
		// Prime the connection so the handshake is out of the way.
		// (The first handler call is the slow one; fire it async.)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Exchange(context.Background(), dnswire.NewQuery(0, "slow.example.com.", dnswire.TypeA))
		}()
		time.Sleep(50 * time.Millisecond)
		start := time.Now()
		_, err := c.Exchange(context.Background(), dnswire.NewQuery(0, "fast.example.com.", dnswire.TypeA))
		if err != nil {
			t.Fatal(err)
		}
		d := time.Since(start)
		wg.Wait()
		return d
	}
	inOrder := run(t, false)
	outOfOrder := run(t, true)
	if inOrder < 100*time.Millisecond {
		t.Errorf("in-order DoT fast query = %v, expected head-of-line blocking", inOrder)
	}
	if outOfOrder > 100*time.Millisecond {
		t.Errorf("out-of-order DoT fast query = %v, expected independence", outOfOrder)
	}
}

func TestStreamClientReconnectsAfterServerClose(t *testing.T) {
	tb := newTestbed(t, staticHandler(), nil)
	c := tb.tcpClient(t)
	if _, err := c.Exchange(context.Background(), dnswire.NewQuery(0, "a.example.com.", dnswire.TypeA)); err != nil {
		t.Fatal(err)
	}
	// Kill the client's connection from underneath.
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	conn.Close()
	time.Sleep(10 * time.Millisecond)
	resp, err := c.Exchange(context.Background(), dnswire.NewQuery(0, "b.example.com.", dnswire.TypeA))
	if err != nil {
		t.Fatalf("exchange after connection loss: %v", err)
	}
	checkAnswer(t, resp, "b.example.com.")
}

func TestCostRecordingUDP(t *testing.T) {
	tb := newTestbed(t, staticHandler(), nil)
	var costs []Cost
	c := tb.udpClient(t)
	c.Recorder = CostFunc(func(cost Cost) { costs = append(costs, cost) })
	if _, err := c.Exchange(context.Background(), dnswire.NewQuery(0, "cost.example.com.", dnswire.TypeA)); err != nil {
		t.Fatal(err)
	}
	if len(costs) != 1 {
		t.Fatalf("recorded %d costs", len(costs))
	}
	wc := costs[0].WireCost()
	if wc.Packets != 2 {
		t.Errorf("udp packets = %d, want 2", wc.Packets)
	}
	// Query ~45B + response ~80B + 2×28B headers ≈ 180B — the paper's
	// median UDP resolution is 182 bytes.
	if wc.Bytes < 120 || wc.Bytes > 320 {
		t.Errorf("udp bytes = %d, want ~180", wc.Bytes)
	}
}

func TestCostRecordingDoHNonPersistent(t *testing.T) {
	tb := newTestbed(t, staticHandler(), nil)
	var costs []Cost
	c := tb.dohClient(t, ModeH2, false)
	c.Recorder = CostFunc(func(cost Cost) { costs = append(costs, cost) })
	if _, err := c.Exchange(context.Background(), dnswire.NewQuery(0, "cost.example.com.", dnswire.TypeA)); err != nil {
		t.Fatal(err)
	}
	if len(costs) != 1 || !costs[0].IncludesSetup {
		t.Fatalf("costs = %+v", costs)
	}
	wc := costs[0].WireCost()
	// Non-persistent DoH must be dominated by TLS setup: thousands of
	// bytes, tens of packets (paper: 5737 B / 27 packets for Cloudflare).
	if wc.Bytes < 3000 {
		t.Errorf("non-persistent DoH bytes = %d, want > 3000", wc.Bytes)
	}
	if wc.Packets < 12 {
		t.Errorf("non-persistent DoH packets = %d, want > 12", wc.Packets)
	}
	bd := costs[0].Breakdown()
	if bd.TLS < 1900 {
		t.Errorf("TLS layer = %d bytes, want > cert chain size", bd.TLS)
	}
	if bd.Body <= 0 || bd.Hdr <= 0 || bd.Mgmt <= 0 {
		t.Errorf("breakdown = %+v", bd)
	}
}

func TestCostRecordingDoHPersistentAmortizes(t *testing.T) {
	tb := newTestbed(t, staticHandler(), nil)
	var mu sync.Mutex
	var costs []Cost
	c := tb.dohClient(t, ModeH2, true)
	c.Recorder = CostFunc(func(cost Cost) {
		mu.Lock()
		costs = append(costs, cost)
		mu.Unlock()
	})
	for i := 0; i < 10; i++ {
		name := dnswire.Name(fmt.Sprintf("amort%d.example.com.", i))
		if _, err := c.Exchange(context.Background(), dnswire.NewQuery(0, name, dnswire.TypeA)); err != nil {
			t.Fatal(err)
		}
	}
	if len(costs) != 10 {
		t.Fatalf("recorded %d costs", len(costs))
	}
	first := costs[0].WireCost()
	later := costs[9].WireCost()
	if !costs[0].IncludesSetup || costs[9].IncludesSetup {
		t.Error("setup attribution wrong")
	}
	if later.Bytes >= first.Bytes/2 {
		t.Errorf("steady-state cost %d not ≪ setup cost %d", later.Bytes, first.Bytes)
	}
	// Paper: persistent DoH ≈ 864 bytes / 8 packets per resolution.
	if later.Bytes < 200 || later.Bytes > 2500 {
		t.Errorf("steady-state DoH bytes = %d, want few hundred", later.Bytes)
	}
	if later.Packets < 3 || later.Packets > 16 {
		t.Errorf("steady-state DoH packets = %d, want ~8", later.Packets)
	}
}

func TestZoneHandlerThroughTransports(t *testing.T) {
	zone := dnsserver.NewZone("example.org.")
	zone.Add(dnswire.ResourceRecord{Name: "www.example.org.", Class: dnswire.ClassINET, TTL: 300, Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.80")}})
	zone.Add(dnswire.ResourceRecord{
		Name: "alias.example.org.", Class: dnswire.ClassINET, TTL: 300,
		Data: &dnswire.CNAME{Target: "www.example.org."},
	})
	tb := newTestbed(t, zone, nil)
	c := tb.dohClient(t, ModeH2, true)

	resp, err := c.Exchange(context.Background(), dnswire.NewQuery(0, "alias.example.org.", dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 2 {
		t.Fatalf("cname chase answers = %v", resp.Answers)
	}
	if _, ok := resp.Answers[0].Data.(*dnswire.CNAME); !ok {
		t.Error("first answer not the CNAME")
	}

	resp, err = c.Exchange(context.Background(), dnswire.NewQuery(0, "missing.example.org.", dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeNameError {
		t.Errorf("rcode = %v, want NXDOMAIN", resp.RCode)
	}

	resp, err = c.Exchange(context.Background(), dnswire.NewQuery(0, "outside.net.", dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeRefused {
		t.Errorf("rcode = %v, want REFUSED", resp.RCode)
	}
}

func TestDelayEveryInjectsDelay(t *testing.T) {
	h := dnsserver.DelayEvery(3, 120*time.Millisecond, staticHandler())
	tb := newTestbed(t, h, nil)
	c := tb.udpClient(t)
	c.Timeout = 2 * time.Second
	var times []time.Duration
	for i := 0; i < 6; i++ {
		start := time.Now()
		if _, err := c.Exchange(context.Background(), dnswire.NewQuery(0, dnswire.Name(fmt.Sprintf("d%d.example.com.", i)), dnswire.TypeA)); err != nil {
			t.Fatal(err)
		}
		times = append(times, time.Since(start))
	}
	// Queries 3 and 6 (1-indexed) are delayed.
	for i, d := range times {
		delayed := (i+1)%3 == 0
		if delayed && d < 100*time.Millisecond {
			t.Errorf("query %d took %v, expected injected delay", i+1, d)
		}
		if !delayed && d > 100*time.Millisecond {
			t.Errorf("query %d took %v, expected fast path", i+1, d)
		}
	}
}

func TestDoHH1GETAndJSONEncodings(t *testing.T) {
	tb := newTestbed(t, staticHandler(), nil)
	for _, enc := range []struct {
		name string
		e    DoHEncoding
	}{{"get", EncodingGET}, {"json", EncodingJSON}} {
		t.Run(enc.name, func(t *testing.T) {
			c := tb.dohClient(t, ModeH1, true)
			c.Encoding = enc.e
			resp, err := c.Exchange(context.Background(), dnswire.NewQuery(0, "h1enc.example.com.", dnswire.TypeA))
			if err != nil {
				t.Fatal(err)
			}
			checkAnswer(t, resp, "h1enc.example.com.")
		})
	}
}

func TestDoHSessionResumptionShrinksReconnect(t *testing.T) {
	tb := newTestbed(t, staticHandler(), nil)
	run := func(resume bool) (first, second int64) {
		var costs []Cost
		c := tb.dohClient(t, ModeH2, false) // non-persistent: dial per query
		c.ResumeSessions = resume
		c.Recorder = CostFunc(func(cost Cost) { costs = append(costs, cost) })
		for i := 0; i < 2; i++ {
			name := dnswire.Name(fmt.Sprintf("resume%d.example.com.", i))
			if _, err := c.Exchange(context.Background(), dnswire.NewQuery(0, name, dnswire.TypeA)); err != nil {
				t.Fatal(err)
			}
		}
		return costs[0].WireCost().Bytes, costs[1].WireCost().Bytes
	}
	_, fullSecond := run(false)
	_, resumedSecond := run(true)
	// A resumed handshake omits the ~2KB certificate flight.
	if resumedSecond >= fullSecond-1000 {
		t.Errorf("resumed reconnect = %dB, full = %dB; expected ≥1KB saving", resumedSecond, fullSecond)
	}
}

func TestDoHClosedClientRefusesExchange(t *testing.T) {
	tb := newTestbed(t, staticHandler(), nil)
	c := tb.dohClient(t, ModeH2, true)
	c.Close()
	if _, err := c.Exchange(context.Background(), dnswire.NewQuery(0, "x.example.", dnswire.TypeA)); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v, want ErrClosed", err)
	}
}

func TestStreamClosedClientRefusesExchange(t *testing.T) {
	tb := newTestbed(t, staticHandler(), nil)
	c := tb.tcpClient(t)
	c.Close()
	if _, err := c.Exchange(context.Background(), dnswire.NewQuery(0, "x.example.", dnswire.TypeA)); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v, want ErrClosed", err)
	}
}
