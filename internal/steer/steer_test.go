package steer

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dohcost/internal/dnstransport"
	"dohcost/internal/dnswire"
	"dohcost/internal/telemetry"
)

// fakeUpstream scripts one backend upstream: a fixed answer latency, an
// optional injected failure, and counters for directed exchanges and
// cancellations.
type fakeUpstream struct {
	name  string
	delay time.Duration
	// stubborn upstreams ignore cancellation: they answer after their delay
	// whatever, and then report on answered.
	stubborn  bool
	answered  chan []byte
	fail      atomic.Bool
	healthy   atomic.Bool
	exchanges atomic.Int64
	cancelled atomic.Int64
}

// fakeBackend implements Backend over scripted upstreams and reports every
// attempt to the installed observer, mirroring the pool's contract
// (including the full-attempt duration and the cancellation error).
type fakeBackend struct {
	ups      []*fakeUpstream
	observer atomic.Pointer[dnstransport.ExchangeObserver]
	native   atomic.Int64 // ExchangeWire (failover) calls
	// onExchange, when set, sees every directed exchange's context (for
	// asserting what the steerer threads through to the legs).
	onExchange func(ctx context.Context)
}

func newFakeBackend(ups ...*fakeUpstream) *fakeBackend {
	for _, u := range ups {
		u.healthy.Store(true)
	}
	return &fakeBackend{ups: ups}
}

func (b *fakeBackend) observe(name string, d time.Duration, err error) {
	if fn := b.observer.Load(); fn != nil {
		(*fn)(name, d, err)
	}
}

func (b *fakeBackend) ExchangeWire(ctx context.Context, query, dst []byte) ([]byte, error) {
	b.native.Add(1)
	return b.ExchangeUpstreamWire(ctx, 0, query, dst)
}

func (b *fakeBackend) ExchangeUpstreamWire(ctx context.Context, i int, query, dst []byte) ([]byte, error) {
	var q dnswire.Message
	if err := q.Unpack(query); err != nil {
		return nil, err
	}
	if b.onExchange != nil {
		b.onExchange(ctx)
	}
	u := b.ups[i]
	u.exchanges.Add(1)
	start := time.Now()
	if u.stubborn {
		time.Sleep(u.delay)
	} else if u.delay > 0 {
		select {
		case <-time.After(u.delay):
		case <-ctx.Done():
			u.cancelled.Add(1)
			b.observe(u.name, time.Since(start), ctx.Err())
			return nil, ctx.Err()
		}
	}
	if u.fail.Load() {
		err := fmt.Errorf("%s: injected failure", u.name)
		b.observe(u.name, time.Since(start), err)
		return nil, err
	}
	r := q.Reply()
	r.Answers = append(r.Answers, dnswire.ResourceRecord{
		Name: q.Question1().Name, Class: dnswire.ClassINET, TTL: 60,
		Data: &dnswire.TXT{Strings: []string{u.name}},
	})
	b.observe(u.name, time.Since(start), nil)
	resp, err := r.AppendPack(dst)
	if u.answered != nil {
		u.answered <- resp
	}
	return resp, err
}

func (b *fakeBackend) NumUpstreams() int         { return len(b.ups) }
func (b *fakeBackend) UpstreamName(i int) string { return b.ups[i].name }
func (b *fakeBackend) UpstreamHealthy(i int) bool {
	return b.ups[i].healthy.Load()
}
func (b *fakeBackend) SetExchangeObserver(fn dnstransport.ExchangeObserver) {
	if fn == nil {
		b.observer.Store(nil)
		return
	}
	b.observer.Store(&fn)
}
func (b *fakeBackend) Close() error { return nil }

func q(name string) *dnswire.Message {
	return dnswire.NewQuery(0, dnswire.Name(name), dnswire.TypeA)
}

func answeredBy(t *testing.T, resp *dnswire.Message) string {
	t.Helper()
	if resp == nil || len(resp.Answers) != 1 {
		t.Fatalf("resp = %v", resp)
	}
	return resp.Answers[0].Data.(*dnswire.TXT).Strings[0]
}

func TestParsePolicy(t *testing.T) {
	for _, tt := range []struct {
		in   string
		want Policy
		ok   bool
	}{
		{"", PolicyFailover, true},
		{"failover", PolicyFailover, true},
		{"fastest", PolicyFastest, true},
		{"hedged", PolicyHedged, true},
		{"bogus", PolicyFailover, false},
	} {
		got, err := ParsePolicy(tt.in)
		if (err == nil) != tt.ok || got != tt.want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v, ok=%v", tt.in, got, err, tt.want, tt.ok)
		}
	}
	for p, want := range map[Policy]string{PolicyFailover: "failover", PolicyFastest: "fastest", PolicyHedged: "hedged"} {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), want)
		}
	}
}

func TestFailoverDelegatesToBackend(t *testing.T) {
	b := newFakeBackend(&fakeUpstream{name: "a"}, &fakeUpstream{name: "b"})
	s := New(b, Config{Policy: PolicyFailover})
	defer s.Close()
	if _, err := s.Exchange(context.Background(), q("x.example.")); err != nil {
		t.Fatal(err)
	}
	if b.native.Load() != 1 {
		t.Errorf("native exchanges = %d, want 1 (failover must delegate)", b.native.Load())
	}
	// Even delegated traffic feeds the model.
	rep := s.Report()
	var samples uint64
	for _, u := range rep.Upstreams {
		samples += u.Samples
	}
	if samples == 0 {
		t.Error("failover traffic not scored")
	}
}

// seed feeds n synthetic successful samples of duration d into upstream
// name through the observer, the way live traffic would.
func seed(s *Steerer, name string, d time.Duration, n int) {
	for i := 0; i < n; i++ {
		s.observe(name, d, nil)
	}
}

func TestFastestRoutesToLowestSRTT(t *testing.T) {
	slow := &fakeUpstream{name: "slow"}
	fast := &fakeUpstream{name: "fast"}
	b := newFakeBackend(slow, fast)
	s := New(b, Config{Policy: PolicyFastest, exploreEvery: -1})
	defer s.Close()
	seed(s, "slow", 80*time.Millisecond, 8)
	seed(s, "fast", 2*time.Millisecond, 8)
	for i := 0; i < 10; i++ {
		resp, err := s.Exchange(context.Background(), q(fmt.Sprintf("r%d.example.", i)))
		if err != nil {
			t.Fatal(err)
		}
		if got := answeredBy(t, resp); got != "fast" {
			t.Fatalf("query %d answered by %s, want fast", i, got)
		}
	}
	if slow.exchanges.Load() != 0 {
		t.Errorf("slow upstream reached %d times with exploration disabled", slow.exchanges.Load())
	}
}

func TestFastestFailsOverOnError(t *testing.T) {
	bad := &fakeUpstream{name: "bad"}
	good := &fakeUpstream{name: "good"}
	bad.fail.Store(true)
	b := newFakeBackend(bad, good)
	s := New(b, Config{Policy: PolicyFastest, exploreEvery: -1})
	defer s.Close()
	// Cold start ranks by index, so "bad" is tried first and fails; the
	// exchange must still answer via "good".
	resp, err := s.Exchange(context.Background(), q("fo.example."))
	if err != nil {
		t.Fatal(err)
	}
	if got := answeredBy(t, resp); got != "good" {
		t.Errorf("answered by %s, want good", got)
	}
	// After a few rounds the failure EWMA demotes "bad" below "good".
	for i := 0; i < 8; i++ {
		s.Exchange(context.Background(), q(fmt.Sprintf("d%d.example.", i)))
	}
	before := bad.exchanges.Load()
	for i := 0; i < 5; i++ {
		if _, err := s.Exchange(context.Background(), q(fmt.Sprintf("p%d.example.", i))); err != nil {
			t.Fatal(err)
		}
	}
	if bad.exchanges.Load() != before {
		t.Errorf("demoted upstream still tried first (%d new attempts)", bad.exchanges.Load()-before)
	}
}

func TestFastestExplorationProbesRunnersUp(t *testing.T) {
	best := &fakeUpstream{name: "best"}
	other := &fakeUpstream{name: "other"}
	b := newFakeBackend(best, other)
	s := New(b, Config{Policy: PolicyFastest, exploreEvery: 4})
	defer s.Close()
	seed(s, "best", time.Millisecond, 8)
	seed(s, "other", 50*time.Millisecond, 8)
	for i := 0; i < 16; i++ {
		if _, err := s.Exchange(context.Background(), q(fmt.Sprintf("e%d.example.", i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := other.exchanges.Load(); got != 4 {
		t.Errorf("runner-up probed %d times over 16 queries at cadence 4, want 4", got)
	}
	if got := best.exchanges.Load(); got != 12 {
		t.Errorf("best served %d queries, want 12", got)
	}
}

func TestHedgedFiresAndWinnerReturns(t *testing.T) {
	slow := &fakeUpstream{name: "slow", delay: 300 * time.Millisecond}
	fast := &fakeUpstream{name: "fast", delay: time.Millisecond}
	b := newFakeBackend(slow, fast)
	s := New(b, Config{Policy: PolicyHedged, HedgeDelay: 15 * time.Millisecond})
	defer s.Close()
	m := telemetry.New()
	tx := m.Begin(telemetry.ProtoUDP)
	ctx := telemetry.NewContext(context.Background(), tx)

	start := time.Now()
	resp, err := s.Exchange(ctx, q("h.example.")) // cold rank: slow is primary
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	tx.SetVerdict(telemetry.VerdictOK)
	tx.Finish()

	if got := answeredBy(t, resp); got != "fast" {
		t.Errorf("answered by %s, want the hedge winner", got)
	}
	if elapsed >= 200*time.Millisecond {
		t.Errorf("hedged exchange took %v, should not wait out the slow primary", elapsed)
	}
	snap := m.Snapshot()
	if snap.HedgesFired != 1 || snap.HedgesWon != 1 {
		t.Errorf("hedges fired/won = %d/%d, want 1/1", snap.HedgesFired, snap.HedgesWon)
	}
	// The slow primary's in-flight exchange was cancelled. The
	// cancellation is not scored as a failure — but the lost race charges
	// it a censored latency sample (its RTT is at least the winner's
	// total), which is what demotes a perpetually-losing primary.
	deadline := time.Now().Add(time.Second)
	for slow.cancelled.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if slow.cancelled.Load() != 1 {
		t.Errorf("slow primary cancelled %d times, want 1", slow.cancelled.Load())
	}
	rep := s.Report()
	if rep.Upstreams[0].Name != "fast" {
		t.Errorf("rank after lost hedge = %+v, want fast first", rep.Upstreams)
	}
	for _, u := range rep.Upstreams {
		if u.Name == "slow" && (u.Samples != 1 || u.SuccessRate != 1) {
			t.Errorf("censored primary sample = %+v, want 1 sample with success rate 1 (no failure penalty)", u)
		}
	}
}

func TestHedgedPrimaryFailureFiresImmediately(t *testing.T) {
	bad := &fakeUpstream{name: "bad"}
	good := &fakeUpstream{name: "good", delay: time.Millisecond}
	bad.fail.Store(true)
	b := newFakeBackend(bad, good)
	// A huge fixed delay proves the hedge fired on the failure, not the
	// timer.
	s := New(b, Config{Policy: PolicyHedged, HedgeDelay: time.Hour})
	defer s.Close()
	m := telemetry.New()
	tx := m.Begin(telemetry.ProtoUDP)
	ctx := telemetry.NewContext(context.Background(), tx)
	start := time.Now()
	resp, err := s.Exchange(ctx, q("pf.example."))
	if err != nil {
		t.Fatal(err)
	}
	tx.Finish()
	if got := answeredBy(t, resp); got != "good" {
		t.Errorf("answered by %s, want good", got)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("took %v: hedge waited for the timer instead of the failure", elapsed)
	}
	if snap := m.Snapshot(); snap.HedgesFired != 1 {
		t.Errorf("hedges fired = %d, want 1", snap.HedgesFired)
	}
}

func TestHedgedBothFailFallsThroughRanking(t *testing.T) {
	a := &fakeUpstream{name: "a"}
	bb := &fakeUpstream{name: "b"}
	c := &fakeUpstream{name: "c"}
	a.fail.Store(true)
	bb.fail.Store(true)
	b := newFakeBackend(a, bb, c)
	s := New(b, Config{Policy: PolicyHedged, HedgeDelay: time.Millisecond})
	defer s.Close()
	resp, err := s.Exchange(context.Background(), q("bf.example."))
	if err != nil {
		t.Fatal(err)
	}
	if got := answeredBy(t, resp); got != "c" {
		t.Errorf("answered by %s, want the third-ranked fallback", got)
	}
	// All failed: the error out of the exchange is the first failure.
	c.fail.Store(true)
	if _, err := s.Exchange(context.Background(), q("all.example.")); err == nil {
		t.Error("all-failed hedged exchange returned no error")
	}
}

func TestHedgedSingleUpstreamNeverHedges(t *testing.T) {
	only := &fakeUpstream{name: "only", delay: 50 * time.Millisecond}
	b := newFakeBackend(only)
	s := New(b, Config{Policy: PolicyHedged, HedgeDelay: time.Millisecond})
	defer s.Close()
	m := telemetry.New()
	tx := m.Begin(telemetry.ProtoUDP)
	ctx := telemetry.NewContext(context.Background(), tx)
	if _, err := s.Exchange(ctx, q("one.example.")); err != nil {
		t.Fatal(err)
	}
	tx.Finish()
	if snap := m.Snapshot(); snap.HedgesFired != 0 {
		t.Errorf("hedge fired with a single upstream: %d", snap.HedgesFired)
	}
}

func TestRankDemotesUnhealthyUpstreams(t *testing.T) {
	down := &fakeUpstream{name: "down"}
	up := &fakeUpstream{name: "up"}
	b := newFakeBackend(down, up)
	s := New(b, Config{Policy: PolicyFastest, exploreEvery: -1})
	defer s.Close()
	seed(s, "down", time.Millisecond, 4) // best latency...
	seed(s, "up", 40*time.Millisecond, 4)
	down.healthy.Store(false) // ...but in failure backoff
	order := s.rank()
	if b.ups[order[0]].name != "up" {
		t.Errorf("rank = %v, want the healthy upstream first", order)
	}
}

func TestAdaptiveHedgeDelay(t *testing.T) {
	b := newFakeBackend(&fakeUpstream{name: "p"}, &fakeUpstream{name: "q"})
	s := New(b, Config{Policy: PolicyHedged})
	defer s.Close()
	if got := s.hedgeDelay(0); got != DefaultHedgeDelay {
		t.Errorf("unsampled hedge delay = %v, want default %v", got, DefaultHedgeDelay)
	}
	seed(s, "p", 10*time.Millisecond, 32)
	d := s.hedgeDelay(0)
	// Steady 10ms samples converge SRTT→10ms and RTTVAR→0, so the delay
	// approaches SRTT from above while staying clamped.
	if d < MinHedgeDelay || d > 60*time.Millisecond {
		t.Errorf("adaptive hedge delay = %v, want near the primary's SRTT", d)
	}
	s2 := New(newFakeBackend(&fakeUpstream{name: "x"}, &fakeUpstream{name: "y"}), Config{Policy: PolicyHedged, HedgeDelay: 7 * time.Millisecond})
	defer s2.Close()
	if got := s2.hedgeDelay(0); got != 7*time.Millisecond {
		t.Errorf("fixed hedge delay = %v, want 7ms", got)
	}
}

// TestConcurrentExchangesRace is the -race fodder: all policies hammered
// concurrently while the report is read.
func TestConcurrentExchangesRace(t *testing.T) {
	a := &fakeUpstream{name: "a", delay: time.Millisecond}
	bu := &fakeUpstream{name: "b", delay: 2 * time.Millisecond}
	for _, policy := range []Policy{PolicyFailover, PolicyFastest, PolicyHedged} {
		b := newFakeBackend(a, bu)
		s := New(b, Config{Policy: policy, HedgeDelay: time.Millisecond})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					s.Exchange(context.Background(), q(fmt.Sprintf("c%d-%d.example.", g, i)))
				}
			}(g)
		}
		for i := 0; i < 10; i++ {
			s.Report()
		}
		wg.Wait()
		s.Close()
	}
}

// TestFastestExplorationFallbackPreservesRank pins the probe rotation:
// when an exploration probe fails, the fallthrough must land on the
// actual best upstream, not on whichever runner-up a pairwise swap left
// in front. With exploreEvery=1 every query probes, alternating between
// the failing "bad" and the mid-ranked "mid"; bad-probe queries must be
// answered by "best", so all three exchange counts stay equal.
func TestFastestExplorationFallbackPreservesRank(t *testing.T) {
	best := &fakeUpstream{name: "best"}
	mid := &fakeUpstream{name: "mid"}
	bad := &fakeUpstream{name: "bad"}
	bad.fail.Store(true)
	b := newFakeBackend(best, mid, bad)
	s := New(b, Config{Policy: PolicyFastest, exploreEvery: 1})
	defer s.Close()
	seed(s, "best", time.Millisecond, 16)
	seed(s, "mid", 30*time.Millisecond, 16)
	seed(s, "bad", 100*time.Millisecond, 16)
	const rounds = 8
	for i := 0; i < rounds; i++ {
		if _, err := s.Exchange(context.Background(), q(fmt.Sprintf("x%d.example.", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Probes alternate bad, mid, bad, mid…: 4 bad probes each falling back
	// to best, 4 mid probes served by mid.
	if got := bad.exchanges.Load(); got != rounds/2 {
		t.Errorf("bad probed %d times, want %d", got, rounds/2)
	}
	if got := mid.exchanges.Load(); got != rounds/2 {
		t.Errorf("mid served %d queries, want %d (only its own probes)", got, rounds/2)
	}
	if got := best.exchanges.Load(); got != rounds/2 {
		t.Errorf("best served %d fallbacks, want %d (bad-probe queries)", got, rounds/2)
	}
}

// TestHedgedDetachesTransactionFromLegs pins the transaction-safety
// contract: the racing legs must never carry the CALLER's Transaction in
// their contexts (a straggling loser would annotate a recycled record) —
// each carries its own background record against the same sink instead,
// so the wire-level accounting survives with the pool's own measurement
// windows.
func TestHedgedDetachesTransactionFromLegs(t *testing.T) {
	var sawCallerTx, sawLegTx atomic.Bool
	slow := &fakeUpstream{name: "slow", delay: 80 * time.Millisecond}
	fast := &fakeUpstream{name: "fast", delay: time.Millisecond}
	b := newFakeBackend(slow, fast)
	m := telemetry.New()
	tx := m.Begin(telemetry.ProtoUDP)
	b.onExchange = func(ctx context.Context) {
		switch telemetry.FromContext(ctx) {
		case tx:
			sawCallerTx.Store(true)
		case nil:
		default:
			sawLegTx.Store(true)
		}
	}
	s := New(b, Config{Policy: PolicyHedged, HedgeDelay: 10 * time.Millisecond})
	defer s.Close()
	ctx := telemetry.NewContext(context.Background(), tx)
	if _, err := s.Exchange(ctx, q("detach.example.")); err != nil {
		t.Fatal(err)
	}
	tx.SetVerdict(telemetry.VerdictOK)
	tx.Finish()
	if sawCallerTx.Load() {
		t.Error("a hedge leg carried the caller's Transaction — a straggling loser could annotate a recycled record")
	}
	if !sawLegTx.Load() {
		t.Error("hedge legs carried no background Transaction — their wire accounting would be lost")
	}
}

// TestHedgedFailedPrimaryEarnsNoCensoredSample pins the scoring fix: a
// primary that FAILED (not lost the race) must keep its failure score —
// the censored success sample is only for cancelled, still-healthy
// primaries.
func TestHedgedFailedPrimaryEarnsNoCensoredSample(t *testing.T) {
	bad := &fakeUpstream{name: "bad"}
	good := &fakeUpstream{name: "good", delay: time.Millisecond}
	bad.fail.Store(true)
	b := newFakeBackend(bad, good)
	s := New(b, Config{Policy: PolicyHedged, HedgeDelay: time.Hour})
	defer s.Close()
	for i := 0; i < 4; i++ {
		if _, err := s.Exchange(context.Background(), q(fmt.Sprintf("cf%d.example.", i))); err != nil {
			t.Fatal(err)
		}
	}
	// After the first failure the model demotes "bad" (good becomes the
	// primary and answers inside the delay), so "bad" holds exactly its one
	// failure sample — with the bug it would hold two: the failure plus a
	// bogus censored success, pinning its success rate at 0.5.
	for _, u := range s.Report().Upstreams {
		if u.Name == "bad" {
			if u.SuccessRate != 0 {
				t.Errorf("failed primary success rate = %.2f, want 0 (no bogus censored successes)", u.SuccessRate)
			}
			if u.Samples != 1 {
				t.Errorf("failed primary samples = %d, want exactly its 1 failure", u.Samples)
			}
		}
	}
}

// TestHedgedLoserNeverWritesDst: the caller's buffer is the caller's the
// moment ExchangeWire returns, and a hedge loser can still be mid-exchange
// then. A primary that ignores its cancellation and answers well after the
// hedge won writes into a buffer of its own: the caller's holds the
// winner's reply and, past it, exactly what it held before.
func TestHedgedLoserNeverWritesDst(t *testing.T) {
	slow := &fakeUpstream{name: "slow", delay: 50 * time.Millisecond, stubborn: true, answered: make(chan []byte, 1)}
	fast := &fakeUpstream{name: "fast"}
	s := New(newFakeBackend(slow, fast), Config{Policy: PolicyHedged, HedgeDelay: 5 * time.Millisecond})
	query, err := q("loser.example.").Pack()
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 0, 1024)
	for i := range dst[:cap(dst)] {
		dst[:cap(dst)][i] = 0xEE
	}
	resp, err := s.ExchangeWire(context.Background(), query, dst)
	if err != nil {
		t.Fatal(err)
	}
	if &resp[0] != &dst[:1][0] {
		t.Fatal("the winner's reply is not in the caller's buffer")
	}
	var m dnswire.Message
	if err := m.Unpack(resp); err != nil || answeredBy(t, &m) != "fast" {
		t.Fatalf("reply %v (%v), want the hedge's", &m, err)
	}
	won := append([]byte(nil), resp...)
	loser := <-slow.answered // the primary answers, long after the hedge won
	if len(loser) == 0 || &loser[0] == &dst[:1][0] {
		t.Fatal("the losing leg answered into the caller's buffer")
	}
	all := dst[:cap(dst)]
	if string(all[:len(won)]) != string(won) {
		t.Error("the caller's reply changed after ExchangeWire returned")
	}
	for i, b := range all[len(won):] {
		if b != 0xEE {
			t.Fatalf("octet %d past the reply was written after ExchangeWire returned", len(won)+i)
		}
	}
}
