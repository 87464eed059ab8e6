package proxy_test

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"dohcost/internal/dnsserver"
	"dohcost/internal/dnstransport"
	"dohcost/internal/dnswire"
	"dohcost/internal/loadgen"
	"dohcost/internal/netsim"
	"dohcost/internal/proxy"
	"dohcost/internal/telemetry"
)

// TestProxyUnderLossyWifi drives 200 UDP queries from concurrent clients
// through the proxy over the lossy-wifi impairment profile and checks the
// serving path degrades the way a production resolver should: the failure
// rate stays bounded (the stub's retransmissions recover almost all
// drops), the cache keeps answering (hit counters advance), and the
// server-side verdicts stay clean — loss on the access link must not
// synthesize SERVFAILs.
func TestProxyUnderLossyWifi(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second lossy e2e under -short")
	}
	const (
		clients        = 10
		queriesPerConn = 20
		total          = clients * queriesPerConn
	)
	d := deploy(t, loadgen.Scenario{Seed: 99, Profile: "lossy-wifi", Clients: clients, UDPAttemptTimeout: 200 * time.Millisecond})
	p := d.Proxy

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		failures int
	)
	for c := 0; c < clients; c++ {
		u := resolver(t, d, "udp", c)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < queriesPerConn; i++ {
				// Few names per client: most queries must be cache hits.
				name := dnswire.Name(fmt.Sprintf("lossy-c%d-n%c.example.", c, 'a'+i%4))
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				resp, err := u.Exchange(ctx, dnswire.NewQuery(0, name, dnswire.TypeA))
				cancel()
				if err != nil || resp.RCode != dnswire.RCodeSuccess {
					mu.Lock()
					failures++
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()

	// 8% per-datagram loss, 3 attempts: P(all lost) ≈ 0.4%; a 10% bound
	// catches a broken retry path without flaking on an unlucky schedule.
	if failures > total/10 {
		t.Errorf("%d/%d queries failed on lossy-wifi, want <= %d (retransmission must bound the failure rate)",
			failures, total, total/10)
	}
	snap := settled(p, func(s *telemetry.Snapshot) bool { return s.Queries["udp"] >= uint64(total-failures) })
	if snap.CacheEvents["hit"] == 0 {
		t.Error("cache hit counter did not advance under loss")
	}
	if snap.CacheEvents["miss"] == 0 {
		t.Error("cache miss counter did not advance")
	}
	if snap.Verdicts["servfail"] != 0 {
		t.Errorf("server synthesized %d SERVFAILs — access-link loss must surface as client timeouts, not handler errors",
			snap.Verdicts["servfail"])
	}
	if got := snap.Queries["udp"]; got < uint64(total-failures) {
		t.Errorf("server saw %d udp queries, want >= %d", got, total-failures)
	}
}

// bigAnswerHandler returns enough A records to push the response past any
// small-MTU UDP cap while remaining well-formed.
func bigAnswerHandler(count int) dnsserver.Handler {
	return dnsserver.HandlerFunc(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		r := q.Reply()
		r.Authoritative = true
		qq := q.Question1()
		base := netip.MustParseAddr("192.0.2.0").As4()
		for i := 0; i < count; i++ {
			a := base
			a[3] = byte(i + 1)
			r.Answers = append(r.Answers, dnswire.ResourceRecord{
				Name: qq.Name.Canonical(), Class: dnswire.ClassINET, TTL: 300,
				Data: &dnswire.A{Addr: netip.AddrFrom4(a)},
			})
		}
		return r, nil
	})
}

// TestProxyTCFallbackSmallMTU pins the RFC 7766 §5 escape hatch on
// small-MTU paths: with the link MTU below the response size and the proxy
// clamping UDP responses to the path MTU (MaxUDPSize), the oversized
// answer comes back as an honest TC=1 instead of a blackholed datagram,
// the client's TCP fallback fires (telemetry-visible), and the full answer
// arrives over the stream. The 29-record case lands in the (cap, 512]
// window, pinning that the clamp honors values below RFC 1035's 512-byte
// default — rounding it up there would re-blackhole the response.
func TestProxyTCFallbackSmallMTU(t *testing.T) {
	for _, answers := range []int{60, 29} {
		answers := answers
		t.Run(fmt.Sprintf("%d-answers", answers), func(t *testing.T) {
			testTCFallbackSmallMTU(t, answers)
		})
	}
}

func testTCFallbackSmallMTU(t *testing.T, answers int) {
	const mtu = 512
	n := netsim.New(5)

	// Deploy's upstreams answer with one record: this one, reached over
	// TCP (no truncation), answers with as many as the caller chooses.
	serve(t, n, "up1.example", bigAnswerHandler(answers))
	p, _ := startBespoke(t, n, proxy.Config{
		Upstreams:  []dnstransport.PoolUpstream{tcpUpstream(n, "up1.example")},
		MaxUDPSize: mtu - netsim.DatagramHeaderBytes, // clamp responses to the path MTU
	})

	// Small-MTU access link: anything larger than 512 bytes on the wire is
	// blackholed, so only the clamp's TC=1 referral can get through.
	link := netsim.Link{Delay: 2 * time.Millisecond, MTU: mtu}
	n.SetLink("cli", "proxy.dns", link)

	pc, err := n.ListenPacket("cli:5353")
	if err != nil {
		t.Fatal(err)
	}
	u := dnstransport.NewUDPClient(pc, netsim.Addr("proxy.dns:53"))
	u.Timeout = 300 * time.Millisecond
	u.Fallback = dnstransport.NewTCPClient(func(ctx context.Context) (net.Conn, error) {
		return n.DialContext(ctx, "cli", "proxy.dns:53")
	})
	defer u.Close()

	// Client-side telemetry sees the fallback decision.
	m := telemetry.New()
	tx := m.Begin(telemetry.ProtoUDP)
	ctx, cancel := context.WithTimeout(telemetry.NewContext(context.Background(), tx), 5*time.Second)
	defer cancel()
	resp, err := u.Exchange(ctx, dnswire.NewQuery(0, "big.example.", dnswire.TypeA))
	tx.Finish()
	if err != nil {
		t.Fatalf("exchange over small-MTU path: %v", err)
	}
	if resp.Truncated {
		t.Fatal("final answer still truncated — TCP fallback did not complete")
	}
	if len(resp.Answers) != answers {
		t.Fatalf("got %d answers, want the full %d over TCP", len(resp.Answers), answers)
	}
	snap := m.Snapshot()
	if snap.TCFallbacks == 0 {
		t.Error("client telemetry recorded no TC->TCP fallback")
	}
	server := settled(p, func(s *telemetry.Snapshot) bool { return s.Queries["udp"] > 0 && s.Queries["tcp"] > 0 })
	if server.Queries["udp"] == 0 || server.Queries["tcp"] == 0 {
		t.Errorf("proxy should have served the query over udp then tcp, saw %v", server.Queries)
	}
}
