package guard

import (
	"testing"

	"dohcost/internal/dnswire"
)

// dnsHeaderLen is the fixed DNS message header size.
const dnsHeaderLen = 12

// fuzzSeeds are the corpus anchors: well-formed queries with and without
// cookies, plus the malformed shapes the scanner must survive — truncated
// headers, lying counts, compression pointers, and options whose lengths
// overrun their OPT record.
func fuzzSeeds(f *testing.F) {
	f.Helper()
	f.Add([]byte{})
	f.Add([]byte{0x12, 0x34, 0x01, 0x00, 0x00, 0x01})    // truncated header
	f.Add(packQuery(f, "example.com", nil))              // plain query
	f.Add(packQuery(f, "example.com", make([]byte, 8)))  // client cookie
	f.Add(packQuery(f, "example.com", make([]byte, 24))) // full cookie, zero hash
	f.Add(packQuery(f, "example.com", make([]byte, 3)))  // undersized option
	f.Add(packQuery(f, "example.com", make([]byte, 41))) // oversized option
	q := packQuery(f, "example.com", make([]byte, 24))
	f.Add(q[:len(q)-5]) // option data truncated mid-cookie
	lie := append([]byte{}, packQuery(f, "a.b", nil)...)
	lie[11] = 7 // ARCOUNT=7 with no records
	f.Add(lie)
	ptr := []byte{0, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 1,
		0xC0, 0x0C, 0, 1, 0, 1, // compressed question name
		0, 0, 41, 0, 0, 0, 0, 0, 0, 0, 4, 0, 10, 0, 0} // OPT, empty cookie
	f.Add(ptr)
}

// FuzzCookieParse pins that the zero-alloc cookie/question scanners and
// the response synthesizer survive arbitrary bytes: no panics, no slice
// overruns, and whatever parses stays inside the input's bounds.
func FuzzCookieParse(f *testing.F) {
	fuzzSeeds(f)
	clk := newFakeClock()
	g := New(Config{CookieSecret: 0xfeed, Now: clk.Now})
	f.Fuzz(func(t *testing.T, wire []byte) {
		cc, sc, ok := cookieOption(wire)
		if ok {
			if len(cc) != clientCookieLen || len(sc) > 32 {
				t.Fatalf("cookie bounds: cc=%d sc=%d", len(cc), len(sc))
			}
			g.validCookie(cc, sc, 1, clk.Now())
		}
		if end, ok := dnswire.QuestionEnd(wire); ok && (end < dnsHeaderLen || end > len(wire)) {
			t.Fatalf("QuestionEnd %d outside [%d,%d]", end, dnsHeaderLen, len(wire))
		}
		if resp, ok := g.AppendLimited(nil, wire, 1, ActionSlip); ok {
			if len(resp) < dnsHeaderLen {
				t.Fatalf("synthesized %d-byte response", len(resp))
			}
			if resp[2]&0x80 == 0 {
				t.Fatal("synthesized response without QR")
			}
		}
		g.AppendLimited(nil, wire, 1, ActionRefuse)
		g.ServerCookie(nil, wire, 1)
	})
}

// FuzzGuardDecision pins determinism: two guards with identical config and
// clock make identical decisions for any (client, wire) input — the
// property the adversarial scenario test's reproducibility rests on.
func FuzzGuardDecision(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, wire []byte) {
		mk := func() *Guard {
			clk := newFakeClock()
			return New(Config{ClientQPS: 3, Burst: 3, SlipEvery: 2,
				CookieSecret: 0xfeed, Now: clk.Now})
		}
		g1, g2 := mk(), mk()
		for i := 0; i < 8; i++ {
			key := uint64(i % 3)
			a1, owed1 := g1.CheckUDP(key, wire)
			a2, owed2 := g2.CheckUDP(key, wire)
			if a1 != a2 || owed1 != owed2 {
				t.Fatalf("step %d: %v/%v vs %v/%v for identical inputs", i, a1, owed1, a2, owed2)
			}
			if s1, s2 := g1.CheckStream(key), g2.CheckStream(key); s1 != s2 {
				t.Fatalf("step %d stream: %v vs %v", i, s1, s2)
			}
		}
		r1, r2 := g1.Report(), g2.Report()
		r1.CookieEpoch, r2.CookieEpoch = 0, 0
		if r1 != r2 {
			t.Fatalf("diverging reports:\n%+v\n%+v", r1, r2)
		}
	})
}
