package proxy

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"dohcost/internal/dnsserver"
	"dohcost/internal/dnstransport"
	"dohcost/internal/dnswire"
	"dohcost/internal/guard"
	"dohcost/internal/qtrace"
	"dohcost/internal/telemetry"
)

// wireUpstream is an in-memory upstream in native wire form: it answers
// every query with one A record, encoded the way this repository's packer
// would (question echoed, the answer's name a pointer to it), appended to
// the caller's buffer, as a transport client copies a reply out of its
// read buffer.
type wireUpstream struct{ exchanges atomic.Int64 }

func (u *wireUpstream) ExchangeWire(ctx context.Context, query, dst []byte) ([]byte, error) {
	u.exchanges.Add(1)
	resp := append(dst, query...)
	reply := resp[len(dst):]
	reply[2] |= 0x80 // QR
	reply[3] |= 0x80 // RA
	binary.BigEndian.PutUint16(reply[6:], 1)
	return append(resp, 0xC0, 12, 0, 1, 0, 1, 0, 0, 1, 44, 0, 4, 192, 0, 2, 77), nil
}

func (u *wireUpstream) Exchange(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	return dnstransport.ExchangeMessage(ctx, u, q)
}

func (u *wireUpstream) Close() error { return nil }

// missProxy builds a proxy over a wireUpstream with guard and tracing
// armed, the way the benchmark arms them: every check runs, none refuses.
func missProxy(t *testing.T, cfg Config) (*Proxy, *wireUpstream) {
	t.Helper()
	up := &wireUpstream{}
	cfg.Upstreams = []dnstransport.PoolUpstream{{Name: "mem", Dial: func(context.Context) (dnstransport.Resolver, error) { return up, nil }}}
	cfg.Guard = &guard.Config{ClientQPS: 1e9, Burst: 1 << 30, MissRate: 1e9, MaxInflightMiss: 1 << 20}
	cfg.Tracing = &qtrace.Config{}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p, up
}

// missDriver sends never-repeated names through the handler's wire miss
// step the way a server's slow-step slot does: under the slot's context —
// over the client's guard key, carrying the query's transaction — into the
// buffer the server frames from.
type missDriver struct {
	t    *testing.T
	p    *Proxy
	wm   dnsserver.WireMissResponder
	qc   telemetry.QueryContext
	buf  []byte
	wire []byte
	seq  int
}

func newMissDriver(t *testing.T, p *Proxy) *missDriver {
	wire, err := dnswire.NewQuery(7, "n0000000.miss.example.", dnswire.TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	return &missDriver{t: t, p: p, wm: p.Handler().(dnsserver.WireMissResponder),
		qc: telemetry.QueryContext{Context: guard.NewContext(context.Background(), 0xfeedface)}, buf: make([]byte, 0, 512), wire: wire}
}

func (d *missDriver) miss() {
	d.seq++
	copy(d.wire[14:21], fmt.Appendf(d.wire[14:14], "%07d", d.seq)) // the digits of "n0000000"
	q, ok := dnswire.ParseQuery(d.wire)
	if !ok {
		d.t.Fatal("ParseQuery declined the driver's query")
	}
	tx := d.p.Telemetry().Begin(telemetry.ProtoUDP)
	tx.TraceQuery(&q)
	d.qc.Set(tx)
	resp, err := d.wm.ServeDNSWireMiss(&d.qc, &q, d.buf)
	d.qc.Set(nil)
	if err != nil || len(resp) != len(d.wire)+16 || binary.BigEndian.Uint16(resp) != 7 || &resp[0] != &d.buf[:1][0] {
		d.t.Fatalf("wire miss: %d bytes, err %v", len(resp), err)
	}
	tx.SetVerdict(telemetry.VerdictOK)
	tx.Finish()
}

// TestWireMissAllocs pins what a miss costs the proxy: the whole path from
// the handler's wire miss step to the in-memory upstream and back — cache
// lookup, flight, breaker, steerer, pool, strict scan, admission, arena
// insert — with guard and tracing armed. Nothing is left but the amortised
// growth of the flight map and the cache's tables. The transaction rides
// the slot's context (a context layer was one allocation); the flight —
// struct, key bytes, deadline timer, Done channel — is recycled and filed
// under the key's hash (a key string was another, its map slot a third);
// the upstream appends the reply to the server's buffer (a reply of its own
// was a fourth); nothing is derived from the context per miss; the entry is
// bytes in the cache's arena and a record in its table, not an object.
func TestWireMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool and instrumentation allocate")
	}
	p, up := missProxy(t, Config{})
	d := newMissDriver(t, p)
	d.miss() // settle pools, dial the pool slot
	const budget = 1
	if got := testing.AllocsPerRun(200, d.miss); got > budget {
		t.Errorf("a UDP-shaped wire miss allocates %.1f times, budget %d", got, budget)
	}
	if s := p.CacheStats(); s.Misses != up.exchanges.Load() || s.Hits != 0 {
		t.Errorf("driver did not miss every time: %+v, %d exchanges", s, up.exchanges.Load())
	}
}

// TestRefusedWireMissAllocs pins what saying no costs: a miss the breaker
// refuses is answered REFUSED from the query's own bytes — one slice, no
// Unpack of the query and no Pack of a Message — on top of what the cache
// spent finding out (the same call into the cache, its error returned).
func TestRefusedWireMissAllocs(t *testing.T) {
	g := guard.Config{ClientQPS: 1e9, Burst: 1 << 30, MissRate: 1e-9}
	p, err := New(Config{
		Upstreams: []dnstransport.PoolUpstream{{Name: "mem", Dial: func(context.Context) (dnstransport.Resolver, error) { return &wireUpstream{}, nil }}},
		Guard:     &g,
		Tracing:   &qtrace.Config{},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	wire, err := dnswire.NewQuery(7, "refused.miss.example.", dnswire.TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	q, ok := dnswire.ParseQuery(wire)
	if !ok {
		t.Fatal("ParseQuery declined the query")
	}
	ctx := telemetry.NewContext(guard.NewContext(context.Background(), 0xfeedface), p.Telemetry().Begin(telemetry.ProtoUDP))
	var resp []byte
	refused := testing.AllocsPerRun(200, func() { resp, err = fastHandler{p}.ServeDNSWireMiss(ctx, &q, nil) })
	if err != nil || len(resp) != len(wire) || resp[3]&0xF != byte(dnswire.RCodeRefused) {
		t.Fatalf("refused miss: %x, err %v", resp, err)
	}
	finding := testing.AllocsPerRun(200, func() { _, err = p.cache.ExchangeQuery(ctx, &q, nil) })
	if !errors.Is(err, guard.ErrMissBudget) {
		t.Fatalf("the breaker did not refuse: %v", err)
	}
	if refused-finding > 2 {
		t.Errorf("a refused miss allocates %.1f times, %.1f of them in the cache: the refusal itself has a budget of 2", refused, finding)
	}
}

// TestRejectedMissBuildsNoEntry: admission is decided before anything is
// built, and an admitted entry is a block in the arena and a record in a
// table, no object — so a miss TinyLFU refuses and one it admits allocate
// the same, but for the tables' amortised growth.
func TestRejectedMissBuildsNoEntry(t *testing.T) {
	admitting, _ := missProxy(t, Config{CacheShards: 1})
	da := newMissDriver(t, admitting)
	da.miss()
	admitted := allocsPer(200, da.miss)

	// One shard at the minimum budget, filled with names asked often enough
	// that a once-asked newcomer never out-ranks its victims, whatever the
	// process's hash seed makes collide: seventeen sightings saturate every
	// counter a hot name touches (the doorkeeper takes the first, the 4-bit
	// counters stop at fifteen), so a resident estimates at the ceiling, a
	// newcomer at the ceiling at most, and ties keep the incumbent. The
	// 1 290 lookups stay under the sketch's aging sample (2 048), so nothing
	// is halved on the way.
	full, _ := missProxy(t, Config{CacheShards: 1, CacheBudget: 4 << 10})
	h := full.Handler()
	for round := 0; round < 17; round++ {
		for i := 0; i < 64; i++ {
			q := dnswire.NewQuery(1, dnswire.Name(fmt.Sprintf("hot%02d.example.", i)), dnswire.TypeA)
			if _, err := h.ServeDNS(context.Background(), q); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := full.CacheStats()
	df := newMissDriver(t, full)
	df.miss()
	rejected := allocsPer(200, df.miss)
	after := full.CacheStats()
	if got := after.AdmissionRejects - before.AdmissionRejects; got != 202 || after.SketchResets != 0 {
		t.Fatalf("%d of 202 newcomers rejected, %d sketch resets: want every one and none", got, after.SketchResets)
	}
	// The race detector's sync.Pool adds the same noise to both sides.
	if rejected > admitted+0.5 || admitted > rejected+0.5 {
		t.Errorf("a rejected miss allocates %.2f times, an admitted one %.2f: want neither to build an entry", rejected, admitted)
	}
}

// allocsPer is testing.AllocsPerRun — one warm-up call, then runs measured
// on one P — without the rounding to a whole number, which hides a
// difference of one between two averages.
func allocsPer(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	before := m.Mallocs
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&m)
	return float64(m.Mallocs-before) / float64(runs)
}
