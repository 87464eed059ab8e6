package proxy_test

import (
	"context"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dohcost/internal/dnstransport"
	"dohcost/internal/dnswire"
	"dohcost/internal/loadgen"
	"dohcost/internal/proxy"
)

// TestProxyUDPListenBatchedRealSocket brings the proxy up with the
// real-socket batched UDP listener (Config.UDPListen) and exchanges
// through a kernel socket end to end: first query misses to the netsim
// upstream, repeats hit the cache through the batched fast path, and the
// cost report carries per-shard counters.
func TestProxyUDPListenBatchedRealSocket(t *testing.T) {
	d := deploy(t, loadgen.Scenario{Seed: 41, Proxy: proxy.Config{
		UpstreamTimeout: 2 * time.Second,
		UDPListen:       "127.0.0.1:0",
		UDPShards:       2,
		UDPBatch:        16,
	}})
	p := d.Proxy

	addr := p.UDPAddr()
	if addr == nil {
		t.Fatal("UDPAddr is nil with UDPListen configured")
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pc.Close() })
	cli := dnstransport.NewUDPClient(pc, addr)
	t.Cleanup(func() { cli.Close() })

	for i := 0; i < 10; i++ {
		resp, err := cli.Exchange(context.Background(), dnswire.NewQuery(0, "real.example.", dnswire.TypeA))
		if err != nil {
			t.Fatalf("query %d over real socket: %v", i, err)
		}
		if resp.RCode != dnswire.RCodeSuccess || len(resp.Answers) != 1 {
			t.Fatalf("query %d: resp = %v", i, resp)
		}
		if a := resp.Answers[0].Data.(*dnswire.A); a.Addr != answer {
			t.Fatalf("query %d: answer = %v", i, a.Addr)
		}
	}
	if got := d.Upstreams()[0].Queries(); got != 1 {
		t.Errorf("upstream saw %d queries, want 1 (9 repeats served from cache)", got)
	}

	report := p.CostReport()
	if len(report.UDPShards) == 0 {
		t.Fatal("CostReport has no udp_shards with the batched listener up")
	}
	var datagrams, fastHits uint64
	for _, sc := range report.UDPShards {
		datagrams += sc.Datagrams
		fastHits += sc.FastHits
	}
	if datagrams < 10 {
		t.Errorf("shards read %d datagrams, want >= 10", datagrams)
	}
	if fastHits < 9 {
		t.Errorf("shards served %d fast hits, want >= 9 (cache repeats)", fastHits)
	}

	// /metrics renders the UDP series from the shards' own counters.
	srv := httptest.NewServer(p.Observability())
	defer srv.Close()
	if metrics := httpGet(t, srv.URL+"/metrics"); !strings.Contains(metrics, "dohcost_udp_batch_reads_total") {
		t.Error("/metrics exposition missing dohcost_udp_batch_reads_total")
	}
}
