// Package guard is the abuse-resilience layer consulted by the serve path
// before any cache or upstream work. A proxy fronting millions of users
// meets hostile traffic along three axes, and the guard answers each:
//
//   - Spoofed-source floods that turn the server into a UDP amplifier.
//     Per-client token buckets bound the response rate any one source can
//     extract, and over-limit responses degrade RRL-style: most are
//     dropped, but every SlipEvery-th "slips" out as a minimal TC=1
//     truncation, so a real client whose address is being spoofed still
//     learns to retry over TCP (where the source address is proven) while
//     the amplification factor for the attacker collapses below 1.
//   - Real clients unfairly sharing limits with spoofers. DNS cookies
//     (RFC 7873) let a client prove it owns its source address; queries
//     carrying a server cookie we issued bypass the UDP rate limits
//     entirely, so fairness degrades only for sources that never complete
//     the (free) cookie handshake.
//   - Random-subdomain ("water torture") floods that bypass the cache and
//     exhaust the upstream pool. A cache-miss circuit breaker charges
//     every miss to its client's exponentially-decayed miss-rate score and
//     refuses the flood's misses (REFUSED, cheap) once the score crosses
//     the threshold, while a global in-flight-miss ceiling bounds total
//     concurrent upstream work no matter how the attack is distributed.
//
// The allow path — the path every honest query takes — allocates nothing
// and costs a hash, a striped mutex and a few arithmetic operations, so
// the wire fast path's zero-allocation cache hit survives guarding. All
// methods are safe for concurrent use, and a nil *Guard allows everything,
// so servers never branch on "is the guard on".
package guard

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"net"
	"sync/atomic"
	"time"

	"dohcost/internal/dnswire"
	"dohcost/internal/telemetry"
)

// Action is the guard's verdict on one incoming query.
type Action uint8

// Actions, in escalation order.
const (
	// ActionAllow admits the query to the serve path.
	ActionAllow Action = iota
	// ActionDrop discards the datagram silently (UDP rate limiting; no
	// bytes leave, so a spoofed source yields zero amplification).
	ActionDrop
	// ActionSlip answers with a minimal TC=1 truncation instead of
	// dropping — the RRL escape hatch that sends real clients to TCP.
	ActionSlip
	// ActionRefuse answers with RCode REFUSED (stream rate limiting and
	// the miss breaker; on connection-oriented transports the source is
	// proven, so an honest refusal beats a silent drop).
	ActionRefuse
)

// String returns the metrics label for the action.
func (a Action) String() string {
	switch a {
	case ActionDrop:
		return "drop"
	case ActionSlip:
		return "slip"
	case ActionRefuse:
		return "refuse"
	}
	return "allow"
}

// ErrMissBudget is returned by AdmitMiss when the miss breaker refuses a
// cache miss — per-client miss-rate threshold crossed or the global
// in-flight-miss ceiling reached. Handlers translate it into a REFUSED
// response rather than SERVFAIL: the server is healthy and declining work,
// not failing at it.
var ErrMissBudget = errors.New("guard: cache-miss budget exhausted")

// Config tunes a Guard. The zero value of every field selects a
// production-shaped default; a Guard is "off" by being nil, not by config.
type Config struct {
	// ClientQPS is each client's sustained query rate before UDP rate
	// limiting begins (default 50). Clients are identified by source
	// address (port excluded) hashed into a fixed slot table; see bucket.go
	// for the collision semantics.
	ClientQPS float64
	// Burst is the bucket depth — how many queries a client may send
	// back-to-back before the sustained rate applies (default 2×ClientQPS,
	// minimum 8).
	Burst int
	// SlipEvery makes every Nth rate-limited UDP response a minimal TC=1
	// truncation instead of a silent drop (default 2; negative disables
	// slipping entirely).
	SlipEvery int
	// Slots is the total client-slot count (default 4096, rounded up to a
	// power of two) and Shards the lock stripes over them (default 16).
	Slots, Shards int
	// DisableCookies turns off DNS cookie validation and issuance.
	DisableCookies bool
	// CookieSecret seeds the server-cookie PRF; zero draws a random secret
	// at construction (cookies then do not survive process restarts, which
	// RFC 7873 permits — clients just re-handshake).
	CookieSecret uint64
	// MissRate is the per-client sustained cache-miss rate (misses/second)
	// above which the breaker refuses that client's misses (default 20).
	MissRate float64
	// MissHalfLife is the decay half-life of the per-client miss score
	// (default 10s): shorter forgives bursts faster, longer holds the
	// breaker open against intermittent floods.
	MissHalfLife time.Duration
	// MaxInflightMiss is the global ceiling on concurrent upstream-bound
	// misses (default 1024); at the ceiling every new miss is refused
	// until one completes, bounding upstream pool pressure no matter how
	// an attack is distributed across sources.
	MaxInflightMiss int
	// Now overrides the clock (tests and deterministic fuzzing).
	Now func() time.Time `json:"-"`
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.ClientQPS <= 0 {
		c.ClientQPS = 50
	}
	if c.Burst <= 0 {
		c.Burst = int(2 * c.ClientQPS)
		if c.Burst < 8 {
			c.Burst = 8
		}
	}
	switch {
	case c.SlipEvery == 0:
		c.SlipEvery = 2
	case c.SlipEvery < 0:
		c.SlipEvery = 0 // never slip
	}
	if c.Slots <= 0 {
		c.Slots = 4096
	}
	if c.Shards <= 0 {
		c.Shards = 16
	}
	if c.MissRate <= 0 {
		c.MissRate = 20
	}
	if c.MissHalfLife <= 0 {
		c.MissHalfLife = 10 * time.Second
	}
	if c.MaxInflightMiss <= 0 {
		c.MaxInflightMiss = 1024
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Guard is one deployment's abuse-resilience state. Create it with New and
// share it across every listener of the deployment: the per-client state
// is keyed by source address, so a client's budget spans transports.
type Guard struct {
	cfg    Config
	shards []bucketShard

	// Derived hot-path constants.
	ratePerNs      float64 // tokens per nanosecond
	burst          float64
	missHalfLifeNs int64
	missThreshold  float64 // decayed-score equivalent of MissRate sustained

	// Cookie base secret.
	k0, k1 uint64

	// Breaker global state.
	inflight atomic.Int64

	// Decision counters: the only ledger of the guard's decisions. Report
	// reads them, and the proxy's /metrics renders them from Report.
	allowed          atomic.Uint64
	drops            atomic.Uint64
	slips            atomic.Uint64
	refusals         atomic.Uint64
	breakerRefusals  atomic.Uint64
	cookiesValidated atomic.Uint64
	cookiesIssued    atomic.Uint64
}

// New builds a Guard.
func New(cfg Config) *Guard {
	cfg = cfg.withDefaults()
	nshards := nextPow2(cfg.Shards)
	slotsPerShard := nextPow2((cfg.Slots + nshards - 1) / nshards)
	g := &Guard{
		cfg:            cfg,
		shards:         newShards(nshards, slotsPerShard),
		ratePerNs:      cfg.ClientQPS / float64(time.Second),
		burst:          float64(cfg.Burst),
		missHalfLifeNs: int64(cfg.MissHalfLife),
		missThreshold:  cfg.MissRate * cfg.MissHalfLife.Seconds() / math.Ln2,
		k0:             cfg.CookieSecret,
	}
	if g.k0 == 0 {
		g.k0, g.k1 = rand.Uint64(), rand.Uint64()
	} else {
		// A fixed secret still gets two independent key words.
		g.k1 = siphash24(g.k0, g.k0, 0x646e73636f6f6b69)
	}
	return g
}

// nextPow2 rounds n up to a power of two, minimum 1.
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// ClientKey reduces a source address to the guard's client identity: the
// address with the port stripped, hashed. Queries from one host over any
// port or transport share one budget — the per-client fairness unit — and
// the key feeds the cookie PRF, binding issued cookies to the address they
// were served to. Allocation-free for the address types the serve paths
// produce (*net.UDPAddr, *net.TCPAddr, and netsim's string addresses).
func ClientKey(addr net.Addr) uint64 {
	switch a := addr.(type) {
	case *net.UDPAddr:
		return keyBytes(a.IP)
	case *net.TCPAddr:
		return keyBytes(a.IP)
	}
	if addr == nil {
		return 0
	}
	s := addr.String()
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == ':' {
			s = s[:i]
			break
		}
	}
	return keyString(s)
}

// keyBytes hashes an address's bytes (FNV-1a: the key spreads slots and
// labels cookies; it carries no secret).
func keyBytes(p []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range p {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h
}

// keyString is keyBytes over a string, avoiding the []byte conversion.
func keyString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// CheckUDP admits, drops, slips or (never, on UDP) refuses one datagram
// from the client identified by key. wire is the raw packet: a valid
// server cookie inside bypasses the rate limit entirely. cookieOwed reports
// an admitted datagram whose client cookie arrived without one — the reply
// owes it a server cookie (ServerCookie), which the UDP server's fit
// attaches wherever the reply is made. The allow path allocates nothing.
func (g *Guard) CheckUDP(key uint64, wire []byte) (a Action, cookieOwed bool) {
	if g == nil {
		return ActionAllow, false
	}
	now := g.cfg.Now()
	if !g.cfg.DisableCookies {
		if cc, sc, ok := cookieOption(wire); ok {
			if g.validCookie(cc, sc, key, now) {
				g.cookiesValidated.Add(1)
				g.allowed.Add(1)
				return ActionAllow, false
			}
			cookieOwed = true
		}
	}
	allowed, slip := g.allowQuery(key, now.UnixNano())
	switch {
	case allowed:
		g.allowed.Add(1)
		return ActionAllow, cookieOwed
	case slip:
		g.slips.Add(1)
		return ActionSlip, false
	default:
		g.drops.Add(1)
		return ActionDrop, false
	}
}

// CheckStream admits or refuses one query arriving over a stream transport
// (TCP, DoT, DoH). The source address of a stream is proven by the
// handshake, so there is no amplification to prevent: over-limit queries
// get an honest REFUSED instead of drops or slips, and cookies are
// irrelevant.
func (g *Guard) CheckStream(key uint64) Action {
	if g == nil {
		return ActionAllow
	}
	allowed, _ := g.allowQuery(key, g.cfg.Now().UnixNano())
	if allowed {
		g.allowed.Add(1)
		return ActionAllow
	}
	g.refusals.Add(1)
	return ActionRefuse
}

// AdmitMiss charges one upstream-bound cache miss to the client carried in
// ctx (via NewContext) and decides whether it may proceed. On success the
// miss occupies one global in-flight slot until MissDone. Misses with no
// client in ctx — internal background refreshes — skip the per-client
// score but still respect the global ceiling.
func (g *Guard) AdmitMiss(ctx context.Context) error {
	if g == nil {
		return nil
	}
	if key, ok := KeyFromContext(ctx); ok {
		if !g.chargeMiss(key, g.cfg.Now().UnixNano()) {
			g.breakerRefusals.Add(1)
			g.refusals.Add(1)
			return ErrMissBudget
		}
	}
	if g.inflight.Add(1) > int64(g.cfg.MaxInflightMiss) {
		g.inflight.Add(-1)
		g.breakerRefusals.Add(1)
		g.refusals.Add(1)
		return ErrMissBudget
	}
	return nil
}

// MissDone releases the in-flight slot an admitted miss held. Call exactly
// once per successful AdmitMiss.
func (g *Guard) MissDone() {
	if g != nil {
		g.inflight.Add(-1)
	}
}

// AppendLimited synthesizes the minimal response a Slip or Refuse decision
// sends — the query's header and question echoed back (dnswire.AppendEcho)
// with either TC=1 (slip) or RCode REFUSED — appended to dst. When the
// query carried a client cookie (and cookies are enabled), an OPT record
// with a fresh server cookie rides along, so even a rate-limited client can
// graduate to the cookie bypass on its next try.
// ok=false means the query was too malformed to echo; drop instead.
func (g *Guard) AppendLimited(dst, query []byte, key uint64, a Action) ([]byte, bool) {
	qend, ok := dnswire.QuestionEnd(query)
	if !ok || g == nil {
		return dst, false
	}
	base := len(dst)
	rcode := dnswire.RCodeSuccess
	if a == ActionRefuse {
		rcode = dnswire.RCodeRefused
	}
	dst = dnswire.AppendEcho(dst, query, qend, rcode, a == ActionSlip)
	if g.cfg.DisableCookies {
		return dst, true
	}
	cc, _, hasCookie := cookieOption(query)
	if !hasCookie {
		return dst, true
	}
	// Attach OPT: root name, TYPE=41, CLASS(udpsize)=1232, TTL=0,
	// RDLEN=4+24, COOKIE option.
	dst = append(dst, 0, 0, 41, 0x04, 0xD0, 0, 0, 0, 0, 0, 4+fullCookieLen,
		0, EDNS0CookieCode, 0, fullCookieLen)
	dst = g.appendServerCookie(dst, cc, key, g.cfg.Now())
	g.cookiesIssued.Add(1)
	binary.BigEndian.PutUint16(dst[base+10:], 1) // ARCOUNT=1
	return dst, true
}

// ServerCookie computes the full 24-byte COOKIE option payload (client
// cookie echoed + fresh server cookie) for a query whose raw bytes carried
// a client cookie; ok=false when the query has no well-formed cookie
// option or cookies are disabled. The UDP server's fit uses it to attach
// cookies to ordinary responses.
func (g *Guard) ServerCookie(dst []byte, queryWire []byte, key uint64) ([]byte, bool) {
	if g == nil || g.cfg.DisableCookies {
		return dst, false
	}
	cc, _, ok := cookieOption(queryWire)
	if !ok {
		return dst, false
	}
	g.cookiesIssued.Add(1)
	return g.appendServerCookie(dst, cc, key, g.cfg.Now()), true
}

// ctxKey carries the client key through the serving path to the miss
// breaker.
type ctxKey struct{}

// NewContext returns ctx carrying the client key for AdmitMiss. A server
// whose query has a telemetry Transaction records the key on that instead
// (Transaction.SetClient) and spares the query a context layer; this is for
// callers with no transaction — a connection's context, a test.
func NewContext(ctx context.Context, key uint64) context.Context {
	return context.WithValue(ctx, ctxKey{}, key)
}

// KeyFromContext returns the client key the serving layer attached to the
// query: installed by NewContext, or on its transaction.
func KeyFromContext(ctx context.Context) (uint64, bool) {
	if k, ok := ctx.Value(ctxKey{}).(uint64); ok {
		return k, true
	}
	return telemetry.FromContext(ctx).Client()
}

// Report is the guard section of /debug/cost: configuration echo plus live
// decision counters and breaker state.
type Report struct {
	// ClientQPS/Burst/SlipEvery echo the resolved rate-limit config.
	ClientQPS float64 `json:"client_qps"`
	Burst     int     `json:"burst"`
	SlipEvery int     `json:"slip_every"`
	// Allowed through Refusals count decisions; BreakerRefusals is the
	// subset of Refusals issued by the miss breaker.
	Allowed         uint64 `json:"allowed_total"`
	Drops           uint64 `json:"drops_total"`
	Slips           uint64 `json:"slips_total"`
	Refusals        uint64 `json:"refusals_total"`
	BreakerRefusals uint64 `json:"breaker_refusals_total"`
	// CookiesValidated counts rate-limit bypasses earned by valid server
	// cookies; CookiesIssued counts server cookies attached to responses.
	CookiesValidated uint64 `json:"cookies_validated_total"`
	CookiesIssued    uint64 `json:"cookies_issued_total"`
	// InflightMisses and MaxInflightMiss are the breaker's live occupancy
	// and ceiling; MissRate the per-client threshold.
	InflightMisses  int64   `json:"inflight_misses"`
	MaxInflightMiss int     `json:"max_inflight_miss"`
	MissRate        float64 `json:"miss_rate"`
	// CookieEpoch is the current server-cookie rotation epoch (0 with
	// cookies disabled).
	CookieEpoch uint64 `json:"cookie_epoch,omitempty"`
}

// Report snapshots the guard. Nil-safe: a nil Guard reports the zero value.
func (g *Guard) Report() Report {
	if g == nil {
		return Report{}
	}
	r := Report{
		ClientQPS:        g.cfg.ClientQPS,
		Burst:            g.cfg.Burst,
		SlipEvery:        g.cfg.SlipEvery,
		Allowed:          g.allowed.Load(),
		Drops:            g.drops.Load(),
		Slips:            g.slips.Load(),
		Refusals:         g.refusals.Load(),
		BreakerRefusals:  g.breakerRefusals.Load(),
		CookiesValidated: g.cookiesValidated.Load(),
		CookiesIssued:    g.cookiesIssued.Load(),
		InflightMisses:   g.inflight.Load(),
		MaxInflightMiss:  g.cfg.MaxInflightMiss,
		MissRate:         g.cfg.MissRate,
	}
	if !g.cfg.DisableCookies {
		r.CookieEpoch = g.epochOf(g.cfg.Now().Unix())
	}
	return r
}
