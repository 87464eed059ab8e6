package steer

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"testing"
	"time"

	"dohcost/internal/dnsserver"
	"dohcost/internal/dnstransport"
	"dohcost/internal/dnswire"
	"dohcost/internal/netsim"
	"dohcost/internal/telemetry"
)

// BenchmarkHedgedExchange measures the steering layer's hedged policy end
// to end on the simulated network: the preferred upstream sits behind a
// 20ms (one-way) link, the runner-up behind a clean one, and a 2ms hedge
// delay races them. ns/op is dominated by the winner's round trip —
// compare against the ~40ms the degraded upstream would cost — and
// hedges/op reports how much of the traffic actually hedged once the
// model learned the primary's latency.
func BenchmarkHedgedExchange(b *testing.B) {
	n := netsim.New(42)
	for _, u := range []struct {
		host  string
		delay time.Duration
	}{{"slow.upstream", 20 * time.Millisecond}, {"fast.upstream", 50 * time.Microsecond}} {
		n.SetLink("steerer", u.host, netsim.Link{Delay: u.delay})
		srv := &dnsserver.Server{Handler: dnsserver.Static(netip.MustParseAddr("192.0.2.99"), 300)}
		run, err := srv.Start(n, u.host)
		if err != nil {
			b.Fatal(err)
		}
		defer run.Close()
	}
	mkUp := func(host string) dnstransport.PoolUpstream {
		return dnstransport.PoolUpstream{Name: host, Dial: func(ctx context.Context) (dnstransport.Resolver, error) {
			return dnstransport.NewTCPClient(func(ctx context.Context) (net.Conn, error) {
				return n.DialContext(ctx, "steerer", host+":53")
			}), nil
		}}
	}
	pool, err := dnstransport.NewPool(
		[]dnstransport.PoolUpstream{mkUp("slow.upstream"), mkUp("fast.upstream")},
		dnstransport.PoolConfig{ConnsPerUpstream: 2},
	)
	if err != nil {
		b.Fatal(err)
	}
	st := New(pool, Config{Policy: PolicyHedged, HedgeDelay: 2 * time.Millisecond})
	defer st.Close()
	tel := telemetry.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := tel.Begin(telemetry.ProtoUDP)
		ctx := telemetry.NewContext(context.Background(), tx)
		q := dnswire.NewQuery(0, dnswire.Name(fmt.Sprintf("hedge%04d.bench.example.", i%4096)), dnswire.TypeA)
		if _, err := st.Exchange(ctx, q); err != nil {
			b.Fatal(err)
		}
		tx.SetVerdict(telemetry.VerdictOK)
		tx.Finish()
	}
	b.StopTimer()
	if s := tel.Snapshot(); b.N > 0 {
		b.ReportMetric(float64(s.HedgesFired)/float64(b.N), "hedges/op")
	}
}
