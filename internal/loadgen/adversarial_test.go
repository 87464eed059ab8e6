package loadgen

import (
	"testing"
	"time"

	"dohcost/internal/guard"
)

// adversarialBase is the shared shape of the abuse scenario: 9 honest
// clients on a Zipf workload over UDP — so when one flooder joins, the
// population is 90% honest / 10% adversarial. Honest clients pace
// themselves with a small think time, keeping each one far below the
// guard's per-client rate; every flooder query is a unique random
// subdomain, so everything a flooder slips past the rate limit is a
// cache miss aimed at the upstream.
func adversarialBase() Scenario {
	return Scenario{
		Transports: []string{"udp"},
		Clients:    9,
		Queries:    45 * 9,
		ZipfNames:  64,
		Seed:       1109,
		Think:      3 * time.Millisecond,
		AttackQPS:  5000,
	}
}

// adversarialGuard tunes the guard so the scenario separates cleanly:
// honest clients (≤ ~300 qps each, thanks to Think) never approach the
// 2000 qps limit, while the 4000 qps flooder drains the small burst in
// ~25ms and then lives under RRL; the flood fraction the limiter still
// admits is all misses and trips the per-client breaker within ~70
// queries.
func adversarialGuard() *guard.Config {
	return &guard.Config{
		ClientQPS:       2000,
		Burst:           50,
		SlipEvery:       2,
		MissRate:        25,
		MissHalfLife:    time.Second,
		MaxInflightMiss: 256,
		CookieSecret:    0xadbeef,
	}
}

// TestAdversarialFloodGuarded is the abuse-resilience acceptance
// scenario: 90% honest Zipf clients + 10% random-subdomain flooders
// against the guarded proxy. Honest latency must stay within 2x of the
// no-attack baseline, honest queries must not fail, and the flood must
// be disposed of by the guard — silent drops, TC=1 slips, and breaker
// REFUSED — rather than answered. The unguarded comparison lives in
// TestAdversarialFloodUnguarded.
func TestAdversarialFloodGuarded(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run adversarial scenario under -short")
	}
	base := adversarialBase()
	base.Proxy.Guard = adversarialGuard()
	baseline, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	attacked := base
	attacked.Attackers = 1
	res, err := Run(attacked)
	if err != nil {
		t.Fatal(err)
	}

	honest := res.PerTransport[0]
	if honest.Queries != uint64(base.Queries) {
		t.Fatalf("honest population completed %d queries, want %d", honest.Queries, base.Queries)
	}
	if honest.Failures != 0 {
		t.Errorf("honest clients saw %d failures under attack; the guard must not harm them", honest.Failures)
	}

	// The fairness claim: honest p99 under attack stays within 2x of the
	// no-attack baseline. The absolute floor keeps sub-millisecond
	// baselines from turning scheduler noise on a loaded runner into a
	// flaky 2x violation.
	basep99 := baseline.PerTransport[0].P99Ms
	limit := 2 * basep99
	if floor := basep99 + 10; limit < floor {
		limit = floor
	}
	if honest.P99Ms > limit {
		t.Errorf("honest p99 under attack = %.2fms, want ≤ %.2fms (2x no-attack baseline %.2fms)",
			honest.P99Ms, limit, basep99)
	}

	a := res.Attack
	if a == nil || a.Queries == 0 {
		t.Fatalf("attack harvest missing: %+v", a)
	}
	// The flood's disposition: every guard verdict must appear. Dropped
	// is the silently rate-limited majority, Truncated the TC=1 slips
	// (every SlipEvery-th limited response), Refused the breaker's
	// answer to admitted cache-busting misses.
	if a.Dropped == 0 {
		t.Errorf("flood saw no silent drops: %+v", a)
	}
	if a.Truncated == 0 {
		t.Errorf("flood saw no TC=1 slips: %+v", a)
	}
	if a.Refused == 0 {
		t.Errorf("flood saw no breaker REFUSED: %+v", a)
	}
	if a.Answered > a.Queries/5 {
		t.Errorf("flood got %d/%d answered — guard let more than 20%% through", a.Answered, a.Queries)
	}

	g := res.Cost.Guard
	if g == nil {
		t.Fatal("guarded run returned no guard report")
	}
	if g.Drops == 0 || g.Slips == 0 || g.BreakerRefusals == 0 {
		t.Errorf("guard report missing verdicts: %+v", g)
	}

	t.Logf("no-attack p99 %.2fms; under attack p99 %.2fms (limit %.2fms)", basep99, honest.P99Ms, limit)
	t.Logf("flood: %d queries → %d answered / %d refused / %d tc / %d dropped",
		a.Queries, a.Answered, a.Refused, a.Truncated, a.Dropped)
}

// TestAdversarialFloodUnguarded documents the comparison the guarded
// scenario is measured against: the same 90/10 population with no guard.
// Without RRL or a breaker nothing refuses or truncates the flood — every
// flooder query that survives the upstream path gets a real answer, and
// the upstream does the work.
func TestAdversarialFloodUnguarded(t *testing.T) {
	if testing.Short() {
		t.Skip("adversarial scenario under -short")
	}
	s := adversarialBase()
	s.Attackers = 1
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.Guard != nil {
		t.Fatalf("unguarded run produced a guard report: %+v", res.Cost.Guard)
	}
	a := res.Attack
	if a == nil || a.Queries == 0 {
		t.Fatalf("attack harvest missing: %+v", a)
	}
	if a.Refused != 0 || a.Truncated != 0 {
		t.Errorf("unguarded proxy refused/truncated the flood (%d/%d) — nothing should", a.Refused, a.Truncated)
	}
	if a.Answered == 0 {
		t.Errorf("unguarded proxy answered none of the flood: %+v", a)
	}
	if misses := uint64(res.Cost.Cache.Misses); misses < a.Answered {
		t.Errorf("cache misses %d < answered flood %d: the flood must be all misses", misses, a.Answered)
	}
	t.Logf("unguarded flood: %d queries → %d answered / %d dropped; honest p99 %.2fms; upstream exchanges %d",
		a.Queries, a.Answered, a.Dropped, res.PerTransport[0].P99Ms, res.Cost.Telemetry.PoolExchanges)
}
