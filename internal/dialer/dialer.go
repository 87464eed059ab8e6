// Package dialer is the resilient connectivity layer under the
// transports: it decides *how* a connection to an upstream is opened,
// where dnstransport decides what flows over it and steer decides which
// upstream gets the query.
//
// Two mechanisms live here:
//
//   - HappyEyeballs races staggered connection attempts across the
//     upstream's IPv4 and IPv6 addresses (RFC 8305): the first
//     established connection wins, the losers are cancelled, and the
//     winning family is remembered per upstream so later dials lead with
//     it — until the memory expires or the family accumulates
//     consecutive failures and is demoted. A broken-IPv6 access network
//     costs one stagger interval once, not a full dial timeout per
//     query.
//
//   - Prober sweeps every upstream×protocol combination with a small
//     real query at startup and on demand (network-change or
//     error-storm signals via Kick), caches the reachability verdicts,
//     and seeds the steering scoreboard so the first real queries never
//     hedge into a combination the probe already saw black-hole.
//
// The package speaks net.Conn and plain address strings, so it fronts
// netsim in the experiments and would front a real stack unchanged.
package dialer

import (
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"dohcost/internal/telemetry"
)

// Defaults for Config's zero values.
const (
	// DefaultStagger is the RFC 8305 "Connection Attempt Delay": how long
	// the race waits for an attempt before starting the next one. The
	// RFC recommends 250 ms (§5).
	DefaultStagger = 250 * time.Millisecond
	// dialTimeout bounds each individual attempt.
	dialTimeout = 5 * time.Second
	// stickyTTL bounds how long a remembered winning family keeps
	// leading the race without re-racing.
	stickyTTL = 10 * time.Minute
	// demoteAfter is how many consecutive failures of the sticky family
	// revoke its preference.
	demoteAfter = 2
)

// Config tunes a HappyEyeballs dialer. Resolve and Dial are required.
type Config struct {
	// Resolve expands an upstream host into its candidate addresses per
	// family, in preference order. Either slice may be empty (a
	// single-stack host); both empty is a resolution failure.
	Resolve func(ctx context.Context, host string) (v4, v6 []string, err error)
	// Dial opens one connection to one resolved address.
	Dial func(ctx context.Context, addr string) (net.Conn, error)
	// Stagger is the connection-attempt delay between successive dials
	// in the race. Zero means DefaultStagger.
	Stagger time.Duration
	// PreferV6 leads with IPv6 when no sticky winner applies, matching
	// RFC 8305's default preference. The zero value leads with IPv4,
	// which suits the study's v4-dominant vantage points.
	PreferV6 bool
	// Telemetry receives per-attempt dial counters and latency, plus
	// race wins, when non-nil.
	Telemetry *telemetry.Metrics
	// now is the clock, for tests.
	now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Stagger == 0 {
		c.Stagger = DefaultStagger
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// hostState is the per-upstream race memory.
type hostState struct {
	winner   telemetry.DialFamily // DialFamilyUnknown = no preference
	winnerAt time.Time
	fails    int // consecutive sticky-family failures since the last win
}

// HappyEyeballs is an RFC 8305 racing dialer with per-upstream winner
// memory. Safe for concurrent use.
type HappyEyeballs struct {
	cfg Config

	mu    sync.Mutex
	hosts map[string]*hostState
}

// New builds a dialer; it panics if Resolve or Dial is missing, which is
// programmer error.
func New(cfg Config) *HappyEyeballs {
	if cfg.Resolve == nil || cfg.Dial == nil {
		panic("dialer: Config.Resolve and Config.Dial are required")
	}
	return &HappyEyeballs{cfg: cfg.withDefaults(), hosts: make(map[string]*hostState)}
}

// attempt is one candidate in the race.
type attempt struct {
	addr string
	fam  telemetry.DialFamily
}

// result is one finished attempt.
type result struct {
	conn net.Conn
	fam  telemetry.DialFamily
	err  error
}

// preferredFamily resolves which family leads the interleave for host:
// the fresh sticky winner if there is one, else the configured default.
func (h *HappyEyeballs) preferredFamily(host string) telemetry.DialFamily {
	def := telemetry.DialFamilyV4
	if h.cfg.PreferV6 {
		def = telemetry.DialFamilyV6
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.hosts[host]
	if st == nil || st.winner == telemetry.DialFamilyUnknown {
		return def
	}
	if h.cfg.now().Sub(st.winnerAt) > stickyTTL {
		st.winner = telemetry.DialFamilyUnknown
		return def
	}
	return st.winner
}

// noteWin records fam as host's fresh winner and clears the failure
// budget.
func (h *HappyEyeballs) noteWin(host string, fam telemetry.DialFamily) {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.hosts[host]
	if st == nil {
		st = &hostState{}
		h.hosts[host] = st
	}
	st.winner, st.winnerAt, st.fails = fam, h.cfg.now(), 0
}

// noteFail charges one failed attempt of host's sticky family; after
// demoteAfter consecutive charges the preference is revoked and the next
// race starts from the configured default order.
func (h *HappyEyeballs) noteFail(host string, fam telemetry.DialFamily) {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.hosts[host]
	if st == nil || st.winner == telemetry.DialFamilyUnknown || st.winner != fam {
		return
	}
	st.fails++
	if st.fails >= demoteAfter {
		st.winner = telemetry.DialFamilyUnknown
		st.fails = 0
	}
}

// interleave builds the RFC 8305 §4 attempt order: families alternate,
// starting with pref, falling back to runs of the longer list once the
// shorter is exhausted.
func interleave(v4, v6 []string, pref telemetry.DialFamily) []attempt {
	a := make([]attempt, 0, len(v4)+len(v6))
	first, second := v4, v6
	ffam, sfam := telemetry.DialFamilyV4, telemetry.DialFamilyV6
	if pref == telemetry.DialFamilyV6 {
		first, second = v6, v4
		ffam, sfam = sfam, ffam
	}
	for i := 0; i < len(first) || i < len(second); i++ {
		if i < len(first) {
			a = append(a, attempt{first[i], ffam})
		}
		if i < len(second) {
			a = append(a, attempt{second[i], sfam})
		}
	}
	return a
}

// DialContext resolves host and races connection attempts across its
// address families per RFC 8305: the preferred family's first address
// dials immediately, each further attempt starts when the previous one
// fails or after the stagger interval, whichever is sooner, and the
// first established connection wins. Losers are cancelled and closed.
func (h *HappyEyeballs) DialContext(ctx context.Context, host string) (net.Conn, error) {
	v4, v6, err := h.cfg.Resolve(ctx, host)
	if err != nil {
		return nil, fmt.Errorf("dialer: resolving %s: %w", host, err)
	}
	attempts := interleave(v4, v6, h.preferredFamily(host))
	if len(attempts) == 0 {
		return nil, fmt.Errorf("dialer: no addresses for %s", host)
	}

	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan result, len(attempts))
	next, pending := 0, 0
	launch := func() {
		a := attempts[next]
		next++
		pending++
		go h.dialOne(rctx, a, results)
	}
	launch()
	timer := time.NewTimer(h.cfg.Stagger)
	defer timer.Stop()

	var firstErr error
	for {
		select {
		case <-timer.C:
			if next < len(attempts) {
				launch()
				timer.Reset(h.cfg.Stagger)
			}
		case r := <-results:
			pending--
			if r.err == nil {
				h.noteWin(host, r.fam)
				if m := h.cfg.Telemetry; m != nil {
					m.DialWin(r.fam)
				}
				// Reap attempts still in flight: cancel them and close
				// any connection that completes before the cancel lands.
				cancel()
				go reap(results, pending)
				return r.conn, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			h.noteFail(host, r.fam)
			if next < len(attempts) {
				// RFC 8305 §5: a failed attempt starts the next one
				// immediately rather than waiting out the stagger.
				launch()
				timer.Reset(h.cfg.Stagger)
			} else if pending == 0 {
				return nil, fmt.Errorf("dialer: all %d attempts to %s failed: %w", len(attempts), host, firstErr)
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// dialOne runs one bounded attempt and reports its outcome. Attempts
// cancelled because the race already has a winner report the
// cancellation but are not counted as dial errors in telemetry — a
// loser says nothing about the address it was aimed at.
func (h *HappyEyeballs) dialOne(ctx context.Context, a attempt, out chan<- result) {
	actx, acancel := context.WithTimeout(ctx, dialTimeout)
	defer acancel()
	t0 := time.Now()
	c, err := h.cfg.Dial(actx, a.addr)
	d := time.Since(t0)
	if err == nil && ctx.Err() != nil {
		c.Close()
		c, err = nil, ctx.Err()
	}
	if m := h.cfg.Telemetry; m != nil {
		switch {
		case err == nil:
			m.ObserveDial(a.fam, telemetry.DialOK, d)
		case ctx.Err() == nil:
			m.ObserveDial(a.fam, telemetry.DialError, d)
		}
	}
	out <- result{c, a.fam, err}
}

// reap drains n late results, closing any connection a cancelled loser
// still managed to establish.
func reap(results <-chan result, n int) {
	for i := 0; i < n; i++ {
		if r := <-results; r.conn != nil {
			r.conn.Close()
		}
	}
}

// HostReport is one upstream's race memory in the cost report.
type HostReport struct {
	// Host is the upstream host name.
	Host string `json:"host"`
	// Winner is the remembered winning family ("v4", "v6"), or empty
	// when no preference is held.
	Winner string `json:"winner,omitempty"`
	// WinnerAgeMs is how long ago the winner was recorded.
	WinnerAgeMs float64 `json:"winner_age_ms,omitempty"`
	// Fails counts consecutive sticky-family failures since the last
	// win.
	Fails int `json:"fails,omitempty"`
}

// Report is the dialer section of /debug/cost.
type Report struct {
	// StaggerMs is the configured connection-attempt delay.
	StaggerMs float64 `json:"stagger_ms"`
	// StickyTTLMs is the winner-memory bound.
	StickyTTLMs float64 `json:"sticky_ttl_ms"`
	// Hosts lists per-upstream race memory, sorted by host.
	Hosts []HostReport `json:"hosts,omitempty"`
}

// Report snapshots the dialer's per-upstream memory.
func (h *HappyEyeballs) Report() Report {
	r := Report{
		StaggerMs:   float64(h.cfg.Stagger) / float64(time.Millisecond),
		StickyTTLMs: float64(stickyTTL) / float64(time.Millisecond),
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	now := h.cfg.now()
	for host, st := range h.hosts {
		hr := HostReport{Host: host, Fails: st.fails}
		if st.winner != telemetry.DialFamilyUnknown {
			hr.Winner = st.winner.String()
			hr.WinnerAgeMs = float64(now.Sub(st.winnerAt)) / float64(time.Millisecond)
		}
		r.Hosts = append(r.Hosts, hr)
	}
	sort.Slice(r.Hosts, func(i, j int) bool { return r.Hosts[i].Host < r.Hosts[j].Host })
	return r
}
