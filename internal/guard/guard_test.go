package guard

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"dohcost/internal/dnswire"
)

// fakeClock is a hand-advanced clock for deterministic guard tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1700000000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// packQuery builds a minimal packed DNS query for name; cookieData, when
// non-nil, rides in an EDNS COOKIE option.
func packQuery(t testing.TB, name string, cookieData []byte) []byte {
	t.Helper()
	w := make([]byte, 0, 128)
	w = binary.BigEndian.AppendUint16(w, 0x1234) // ID
	w = binary.BigEndian.AppendUint16(w, 0x0100) // RD
	w = binary.BigEndian.AppendUint16(w, 1)      // QDCOUNT
	w = binary.BigEndian.AppendUint16(w, 0)
	w = binary.BigEndian.AppendUint16(w, 0)
	ar := uint16(0)
	if cookieData != nil {
		ar = 1
	}
	w = binary.BigEndian.AppendUint16(w, ar)
	start := 0
	for i := 0; i <= len(name); i++ {
		if i == len(name) || name[i] == '.' {
			if i == start {
				t.Fatalf("empty label in %q", name)
			}
			w = append(w, byte(i-start))
			w = append(w, name[start:i]...)
			start = i + 1
		}
	}
	w = append(w, 0)                        // root
	w = binary.BigEndian.AppendUint16(w, 1) // TYPE A
	w = binary.BigEndian.AppendUint16(w, 1) // CLASS IN
	if cookieData != nil {
		w = append(w, 0)                         // OPT root name
		w = binary.BigEndian.AppendUint16(w, 41) // TYPE OPT
		w = binary.BigEndian.AppendUint16(w, 1232)
		w = append(w, 0, 0, 0, 0) // TTL
		w = binary.BigEndian.AppendUint16(w, uint16(4+len(cookieData)))
		w = binary.BigEndian.AppendUint16(w, EDNS0CookieCode)
		w = binary.BigEndian.AppendUint16(w, uint16(len(cookieData)))
		w = append(w, cookieData...)
	}
	return w
}

func TestBucketAllowsBurstThenSlips(t *testing.T) {
	clk := newFakeClock()
	g := New(Config{ClientQPS: 10, Burst: 5, SlipEvery: 2, Now: clk.Now})
	q := packQuery(t, "example.com", nil)
	key := uint64(42)
	for i := 0; i < 5; i++ {
		if a, _ := g.CheckUDP(key, q); a != ActionAllow {
			t.Fatalf("query %d: got %v, want allow", i, a)
		}
	}
	// Limited responses alternate drop, slip, drop, slip (SlipEvery=2).
	want := []Action{ActionDrop, ActionSlip, ActionDrop, ActionSlip}
	for i, w := range want {
		if a, _ := g.CheckUDP(key, q); a != w {
			t.Fatalf("limited query %d: got %v, want %v", i, a, w)
		}
	}
	r := g.Report()
	if r.Allowed != 5 || r.Drops != 2 || r.Slips != 2 {
		t.Fatalf("report = %+v, want 5 allowed / 2 drops / 2 slips", r)
	}
}

func TestBucketRefills(t *testing.T) {
	clk := newFakeClock()
	g := New(Config{ClientQPS: 10, Burst: 5, Now: clk.Now})
	q := packQuery(t, "example.com", nil)
	key := uint64(7)
	for i := 0; i < 5; i++ {
		g.CheckUDP(key, q)
	}
	if a, _ := g.CheckUDP(key, q); a == ActionAllow {
		t.Fatal("bucket should be empty")
	}
	clk.Advance(500 * time.Millisecond) // 10 QPS × 0.5 s = 5 tokens
	allowed := 0
	for i := 0; i < 10; i++ {
		if a, _ := g.CheckUDP(key, q); a == ActionAllow {
			allowed++
		}
	}
	if allowed != 5 {
		t.Fatalf("after 500ms refill got %d allowed, want 5", allowed)
	}
}

func TestStreamRefusesInsteadOfDropping(t *testing.T) {
	clk := newFakeClock()
	g := New(Config{ClientQPS: 10, Burst: 2, Now: clk.Now})
	key := uint64(9)
	if a := g.CheckStream(key); a != ActionAllow {
		t.Fatalf("first stream query: %v", a)
	}
	g.CheckStream(key)
	if a := g.CheckStream(key); a != ActionRefuse {
		t.Fatalf("over-limit stream query: got %v, want refuse", a)
	}
}

func TestCookieHandshakeBypassesRateLimit(t *testing.T) {
	clk := newFakeClock()
	g := New(Config{ClientQPS: 1, Burst: 1, SlipEvery: 1, CookieSecret: 0xfeed, Now: clk.Now})
	key := ClientKey(&net.UDPAddr{IP: net.IPv4(192, 0, 2, 1), Port: 5353})

	cc := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	q := packQuery(t, "example.com", cc) // client cookie only
	if a, owed := g.CheckUDP(key, q); a != ActionAllow || !owed {
		t.Fatalf("first query: %v, cookie owed %v: want allow with a server cookie owed", a, owed)
	}
	// Bucket now empty; the slip response teaches the client its cookie.
	if a, _ := g.CheckUDP(key, q); a != ActionSlip {
		t.Fatal("expected slip")
	}
	resp, ok := g.AppendLimited(nil, q, key, ActionSlip)
	if !ok {
		t.Fatal("AppendLimited failed")
	}
	rcc, rsc, ok := cookieOption(resp)
	if !ok || len(rsc) != serverCookieLen || string(rcc) != string(cc) {
		t.Fatalf("slip response cookie: ok=%v cc=%x sc=%x", ok, rcc, rsc)
	}
	// Replaying with the issued server cookie bypasses the empty bucket.
	full := append(append([]byte{}, cc...), rsc...)
	q2 := packQuery(t, "example.com", full)
	for i := 0; i < 10; i++ {
		if a, owed := g.CheckUDP(key, q2); a != ActionAllow || owed {
			t.Fatalf("cookie-validated query %d: got %v, cookie owed %v", i, a, owed)
		}
	}
	if r := g.Report(); r.CookiesValidated != 10 || r.CookiesIssued != 1 || r.Slips != 1 {
		t.Fatalf("report = %+v", r)
	}
}

func TestCookieRejections(t *testing.T) {
	clk := newFakeClock()
	g := New(Config{CookieSecret: 0xfeed, Now: clk.Now})
	key := uint64(1111)
	cc := []byte{9, 9, 9, 9, 9, 9, 9, 9}
	sc := g.appendServerCookie(nil, cc, key, clk.Now())[clientCookieLen:]

	if !g.validCookie(cc, sc, key, clk.Now()) {
		t.Fatal("fresh cookie should validate")
	}
	if g.validCookie(cc, sc, key+1, clk.Now()) {
		t.Fatal("cookie bound to another client key validated")
	}
	tampered := append([]byte{}, sc...)
	tampered[serverCookieLen-1] ^= 1
	if g.validCookie(cc, tampered, key, clk.Now()) {
		t.Fatal("tampered hash validated")
	}
	cc2 := []byte{8, 8, 8, 8, 8, 8, 8, 8}
	if g.validCookie(cc2, sc, key, clk.Now()) {
		t.Fatal("cookie for a different client cookie validated")
	}
	// Valid across one rotation (the epoch the timestamp names), dead
	// after two.
	clk.Advance(90 * time.Minute)
	if !g.validCookie(cc, sc, key, clk.Now()) {
		t.Fatal("cookie should survive one rotation")
	}
	clk.Advance(90 * time.Minute)
	if g.validCookie(cc, sc, key, clk.Now()) {
		t.Fatal("cookie older than two rotations validated")
	}
	// Future-dated beyond clock skew.
	future := g.appendServerCookie(nil, cc, key, clk.Now().Add(10*time.Minute))[clientCookieLen:]
	if g.validCookie(cc, future, key, clk.Now()) {
		t.Fatal("future-dated cookie validated")
	}
}

func TestBreakerPerClientAndCeiling(t *testing.T) {
	clk := newFakeClock()
	g := New(Config{MissRate: 5, MissHalfLife: time.Second, MaxInflightMiss: 3, Now: clk.Now})
	ctx := NewContext(context.Background(), 77)

	// Per-client: threshold = 5 × 1 / ln2 ≈ 7.2, so the 8th rapid miss
	// trips; each admitted miss is released immediately here.
	trippedAt := 0
	for i := 1; i <= 20; i++ {
		err := g.AdmitMiss(ctx)
		if err == nil {
			g.MissDone()
			continue
		}
		if !errors.Is(err, ErrMissBudget) {
			t.Fatalf("unexpected error %v", err)
		}
		trippedAt = i
		break
	}
	if trippedAt != 8 {
		t.Fatalf("breaker tripped at miss %d, want 8", trippedAt)
	}
	// Decay forgives: after a quiet spell the client is admitted again.
	clk.Advance(10 * time.Second)
	if err := g.AdmitMiss(ctx); err != nil {
		t.Fatalf("after decay: %v", err)
	}
	g.MissDone()

	// Global ceiling applies even without a client key (background work).
	bg := context.Background()
	for i := 0; i < 3; i++ {
		if err := g.AdmitMiss(bg); err != nil {
			t.Fatalf("inflight %d: %v", i, err)
		}
	}
	if err := g.AdmitMiss(bg); !errors.Is(err, ErrMissBudget) {
		t.Fatalf("over-ceiling admit: %v", err)
	}
	g.MissDone()
	if err := g.AdmitMiss(bg); err != nil {
		t.Fatalf("after release: %v", err)
	}
	if r := g.Report(); r.InflightMisses != 3 || r.BreakerRefusals != 2 {
		t.Fatalf("report = %+v", r)
	}
}

func TestAppendLimitedShapes(t *testing.T) {
	clk := newFakeClock()
	g := New(Config{Now: clk.Now})
	q := packQuery(t, "www.example.com", nil)

	slip, ok := g.AppendLimited(nil, q, 5, ActionSlip)
	if !ok {
		t.Fatal("slip synthesis failed")
	}
	if got, want := binary.BigEndian.Uint16(slip), uint16(0x1234); got != want {
		t.Fatalf("ID %#x, want %#x", got, want)
	}
	flags := binary.BigEndian.Uint16(slip[2:])
	if flags&(1<<15) == 0 || flags&(1<<9) == 0 || flags&0xF != 0 {
		t.Fatalf("slip flags %#x: want QR, TC, NOERROR", flags)
	}
	if flags&(1<<8) == 0 {
		t.Fatalf("slip flags %#x: RD not preserved", flags)
	}
	if qd, an, ns, ar := binary.BigEndian.Uint16(slip[4:]), binary.BigEndian.Uint16(slip[6:]),
		binary.BigEndian.Uint16(slip[8:]), binary.BigEndian.Uint16(slip[10:]); qd != 1 || an != 0 || ns != 0 || ar != 0 {
		t.Fatalf("slip counts %d/%d/%d/%d", qd, an, ns, ar)
	}
	qend, _ := dnswire.QuestionEnd(q)
	if len(slip) != qend {
		t.Fatalf("slip length %d, want question echo %d", len(slip), qend)
	}

	refuse, ok := g.AppendLimited(nil, q, 5, ActionRefuse)
	if !ok {
		t.Fatal("refuse synthesis failed")
	}
	if flags := binary.BigEndian.Uint16(refuse[2:]); flags&0xF != 5 || flags&(1<<9) != 0 {
		t.Fatalf("refuse flags %#x: want REFUSED, no TC", flags)
	}

	// Malformed queries are un-echoable: drop instead.
	for _, bad := range [][]byte{nil, {1, 2, 3}, q[:11], q[:14]} {
		if _, ok := g.AppendLimited(nil, bad, 5, ActionSlip); ok {
			t.Fatalf("AppendLimited accepted malformed query %x", bad)
		}
	}
}

func TestClientKeyIdentity(t *testing.T) {
	u1 := ClientKey(&net.UDPAddr{IP: net.IPv4(203, 0, 113, 9), Port: 1111})
	u2 := ClientKey(&net.UDPAddr{IP: net.IPv4(203, 0, 113, 9), Port: 2222})
	tc := ClientKey(&net.TCPAddr{IP: net.IPv4(203, 0, 113, 9), Port: 3333})
	if u1 != u2 || u1 != tc {
		t.Fatal("same host should share one key across ports and transports")
	}
	other := ClientKey(&net.UDPAddr{IP: net.IPv4(203, 0, 113, 10), Port: 1111})
	if other == u1 {
		t.Fatal("distinct hosts collided")
	}
	s1 := ClientKey(strAddr("c3:5353"))
	s2 := ClientKey(strAddr("c3:9999"))
	s3 := ClientKey(strAddr("c4:5353"))
	if s1 != s2 || s1 == s3 {
		t.Fatalf("string addr keys: %x %x %x", s1, s2, s3)
	}
}

// strAddr mimics netsim's string-backed net.Addr.
type strAddr string

func (a strAddr) Network() string { return "sim" }
func (a strAddr) String() string  { return string(a) }

// TestTokensConservation is the bucket-invariant property test: however
// many goroutines hammer however many clients, with refills racing checks,
// no slot ever exceeds its burst, so the table-wide token sum stays within
// touched-slots × burst. Run with -race for the aliasing coverage.
func TestTokensConservation(t *testing.T) {
	clk := newFakeClock()
	const burst = 10
	g := New(Config{ClientQPS: 1000, Burst: burst, Shards: 4, Slots: 64, Now: clk.Now})
	q := packQuery(t, "example.com", nil)

	const goroutines = 8
	const keysPerG = 16
	stop := make(chan struct{})
	var clockWG sync.WaitGroup
	clockWG.Add(1)
	go func() { // refills race the checks
		defer clockWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				clk.Advance(time.Millisecond)
			}
		}
	}()
	touched := make(map[[2]int]bool)
	var touchedMu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			for iter := 0; iter < 500; iter++ {
				key := base*keysPerG + uint64(iter%keysPerG)
				g.CheckUDP(key, q)
				g.chargeMiss(key, clk.Now().UnixNano())
				shardIdx := int(key & uint64(len(g.shards)-1))
				slotIdx := int((key >> 20) & uint64(len(g.shards[0].slots)-1))
				touchedMu.Lock()
				touched[[2]int{shardIdx, slotIdx}] = true
				touchedMu.Unlock()
			}
		}(uint64(i))
	}
	wg.Wait()
	close(stop)
	clockWG.Wait()

	sums := g.tokensSnapshot()
	total := 0.0
	for _, s := range sums {
		total += s
	}
	if limit := float64(len(touched)) * burst; total > limit+1e-6 {
		t.Fatalf("token sum %.2f exceeds touched-slots×burst %.2f", total, limit)
	}
	perShardSlots := len(g.shards[0].slots)
	for i, s := range sums {
		if lim := float64(perShardSlots) * burst; s > lim+1e-6 {
			t.Fatalf("shard %d sum %.2f exceeds slots×burst %.2f", i, s, lim)
		}
	}
}

func TestNilGuardAllowsEverything(t *testing.T) {
	var g *Guard
	q := packQuery(t, "example.com", nil)
	if a, _ := g.CheckUDP(1, q); a != ActionAllow {
		t.Fatal("nil guard dropped")
	}
	if a := g.CheckStream(1); a != ActionAllow {
		t.Fatal("nil guard refused")
	}
	if err := g.AdmitMiss(context.Background()); err != nil {
		t.Fatal(err)
	}
	g.MissDone()
	if _, ok := g.AppendLimited(nil, q, 1, ActionSlip); ok {
		t.Fatal("nil guard synthesized a response")
	}
	if _, ok := g.ServerCookie(nil, q, 1); ok {
		t.Fatal("nil guard issued a cookie")
	}
	if r := g.Report(); r != (Report{}) {
		t.Fatalf("nil guard report %+v", r)
	}
}

// TestAllowPathZeroAlloc pins the tentpole's hot-path contract: admitting a
// query — with or without a cookie to validate — allocates nothing, so the
// guard does not cost the wire fast path its 0-alloc cache hit.
func TestAllowPathZeroAlloc(t *testing.T) {
	g := New(Config{ClientQPS: 1e9, Burst: 1 << 20, CookieSecret: 0xfeed})
	plain := packQuery(t, "example.com", nil)
	key := uint64(1234)
	cc := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	full := g.appendServerCookie(append([]byte{}, cc...), cc, key, time.Now())
	cookied := packQuery(t, "example.com", full)

	if n := testing.AllocsPerRun(200, func() { g.CheckUDP(key, plain) }); n != 0 {
		t.Fatalf("plain allow path allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(200, func() { g.CheckUDP(key, cookied) }); n != 0 {
		t.Fatalf("cookie-validated allow path allocates %.1f/op", n)
	}
}
