package dnswire

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"testing"
)

func mustPack(t *testing.T, m *Message) []byte {
	t.Helper()
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

func TestParseQueryMatchesUnpack(t *testing.T) {
	for _, tt := range []struct {
		name string
		msg  *Message
	}{
		{"plain", &Message{ID: 7, RecursionDesired: true,
			Questions: []Question{{Name: "www.example.com.", Type: TypeA, Class: ClassINET}}}},
		{"edns", NewQuery(0x1234, "cache.test.example.", TypeAAAA)},
		{"uppercase", NewQuery(9, "WWW.Example.COM.", TypeA)},
		{"root", NewQuery(1, ".", TypeNS)},
		{"no-rd", &Message{ID: 3,
			Questions: []Question{{Name: "x.org.", Type: TypeTXT, Class: ClassCHAOS}}}},
		{"edns-do", &Message{ID: 5,
			Questions: []Question{{Name: "sig.example.", Type: TypeDS, Class: ClassINET}},
			EDNS:      &EDNS{UDPSize: 1232, DO: true}}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			wire := mustPack(t, tt.msg)
			q, ok := ParseQuery(wire)
			if !ok {
				t.Fatal("fast parse rejected a plain query")
			}
			var m Message
			if err := m.Unpack(wire); err != nil {
				t.Fatal(err)
			}
			qq := m.Question1()
			if q.ID != m.ID || q.Type != qq.Type || q.Class != qq.Class ||
				q.RecursionDesired != m.RecursionDesired {
				t.Errorf("view %+v disagrees with Unpack %+v", q, m)
			}
			if got, want := Name(q.AppendCanonicalName(nil)), qq.Name.Canonical(); got != want {
				t.Errorf("AppendCanonicalName = %q, want %q", got, want)
			}
			if got, want := q.AppendCanonicalQuestion(nil), mustPack(t, &Message{Questions: []Question{qq}})[headerLen:]; !bytes.Equal(got, want) {
				t.Errorf("AppendCanonicalQuestion = %x, want the packed question %x", got, want)
			}
			if (q.HasEDNS != (m.EDNS != nil)) ||
				(m.EDNS != nil && q.UDPSize != m.EDNS.UDPSize) {
				t.Errorf("EDNS view (%v, %d) disagrees with %+v", q.HasEDNS, q.UDPSize, m.EDNS)
			}
		})
	}
}

// TestCanonicalQuestionKeepsLabels: the canonical question lower-cases
// ASCII letters and nothing else, and keeps label boundaries the
// presentation form loses — one label "a.b" and two labels a, b render
// alike as names but not as questions.
func TestCanonicalQuestionKeepsLabels(t *testing.T) {
	raw := func(labels ...string) []byte {
		q := []byte{0, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0}
		for _, l := range labels {
			q = append(append(q, byte(len(l))), l...)
		}
		return append(q, 0, 0, byte(TypeA), 0, byte(ClassINET))
	}
	key := func(query []byte) []byte {
		q, ok := ParseQuery(query)
		if !ok {
			t.Fatalf("query %x not fast-parseable", query)
		}
		return q.AppendCanonicalQuestion(nil)
	}
	one, two := raw("a.b"), raw("a", "b")
	q1, _ := ParseQuery(one)
	q2, _ := ParseQuery(two)
	if string(q1.AppendCanonicalName(nil)) != string(q2.AppendCanonicalName(nil)) || bytes.Equal(key(one), key(two)) {
		t.Errorf("one label %q and two %q: questions %x and %x", q1.AppendCanonicalName(nil), q2.AppendCanonicalName(nil), key(one), key(two))
	}
	if got, want := key(raw("WiRe", "Ex@mP[e")), raw("wire", "ex@mp[e")[headerLen:]; !bytes.Equal(got, want) {
		t.Errorf("canonical question %x, want %x", got, want)
	}
}

func TestParseQueryRejectsUnusualShapes(t *testing.T) {
	resp := NewQuery(1, "a.example.", TypeA)
	resp.Response = true
	multi := NewQuery(1, "a.example.", TypeA)
	multi.Questions = append(multi.Questions, Question{Name: "b.example.", Type: TypeA, Class: ClassINET})
	truncated := NewQuery(1, "a.example.", TypeA)
	truncated.Truncated = true
	withAnswer := NewQuery(1, "a.example.", TypeA)
	withAnswer.Answers = []ResourceRecord{{Name: "a.example.", Class: ClassINET, TTL: 1,
		Data: &A{Addr: netip.MustParseAddr("192.0.2.1")}}}
	nonOPT := NewQuery(1, "a.example.", TypeA)
	nonOPT.EDNS = nil
	nonOPT.Additionals = []ResourceRecord{{Name: "key.", Class: ClassINET, TTL: 0,
		Data: &TXT{Strings: []string{"not-an-opt"}}}}

	for _, tt := range []struct {
		name string
		msg  *Message
	}{
		{"response", resp},
		{"multi-question", multi},
		{"truncated", truncated},
		{"with-answer", withAnswer},
		{"non-opt-additional", nonOPT},
	} {
		t.Run(tt.name, func(t *testing.T) {
			wire := mustPack(t, tt.msg)
			if _, ok := ParseQuery(wire); ok {
				t.Error("fast parse accepted an unusual shape")
			}
			// Every one of these must still take the Message path.
			var m Message
			if err := m.Unpack(wire); err != nil {
				t.Errorf("Message path cannot absorb the fallback: %v", err)
			}
		})
	}

	t.Run("malformed-opt-options", func(t *testing.T) {
		// A well-formed OPT header whose option TLVs overrun RDLEN: the
		// full codec rejects it, so the fast parse must too — otherwise
		// the query's fate would depend on cache contents.
		wire := mustPack(t, NewQuery(1, "a.example.", TypeA))
		// Our packed query ends with the OPT record: ...RDLEN(=0). Claim
		// two octets of options but provide a truncated TLV.
		wire[len(wire)-1] = 2
		wire = append(wire, 0x00, 0x0C)
		if _, ok := ParseQuery(wire); ok {
			t.Error("truncated option TLV accepted")
		}
		var m Message
		if err := m.Unpack(wire); err == nil {
			t.Error("full codec accepted the malformed OPT (test premise broken)")
		}
	})
	t.Run("trailing-garbage", func(t *testing.T) {
		wire := append(mustPack(t, NewQuery(1, "a.example.", TypeA)), 0xFF)
		if _, ok := ParseQuery(wire); ok {
			t.Error("trailing bytes accepted")
		}
	})
	t.Run("short", func(t *testing.T) {
		if _, ok := ParseQuery([]byte{0, 1, 0, 0}); ok {
			t.Error("short packet accepted")
		}
	})
}

// respFixture builds a response exercising everything the rewrite helpers
// must cope with: multiple answer records sharing compressed names, an
// authority SOA, and an EDNS OPT whose TTL field must never be decayed.
func respFixture() *Message {
	return &Message{
		ID:                 0xBEEF,
		Response:           true,
		RecursionAvailable: true,
		Questions:          []Question{{Name: "www.example.com.", Type: TypeA, Class: ClassINET}},
		Answers: []ResourceRecord{
			{Name: "www.example.com.", Class: ClassINET, TTL: 300,
				Data: &CNAME{Target: "cdn.example.com."}},
			{Name: "cdn.example.com.", Class: ClassINET, TTL: 60,
				Data: &A{Addr: netip.MustParseAddr("192.0.2.53")}},
			{Name: "cdn.example.com.", Class: ClassINET, TTL: 60,
				Data: &A{Addr: netip.MustParseAddr("192.0.2.54")}},
		},
		Authorities: []ResourceRecord{
			{Name: "example.com.", Class: ClassINET, TTL: 3600,
				Data: &SOA{MName: "ns1.example.com.", RName: "hostmaster.example.com.",
					Serial: 1, Refresh: 7200, Retry: 600, Expire: 86400, Minimum: 120}},
		},
		EDNS: &EDNS{UDPSize: 4096, DO: true},
	}
}

func TestPatchIDAndDecayEquivalence(t *testing.T) {
	orig := respFixture()
	wire := mustPack(t, orig)

	offsets, err := TTLOffsets(wire)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(orig.Answers) + len(orig.Authorities); len(offsets) != want {
		t.Fatalf("TTLOffsets found %d records, want %d (OPT must be skipped)", len(offsets), want)
	}

	const newID, rem = 0x0102, 45
	fast := append([]byte(nil), wire...)
	PatchID(fast, newID)
	DecayTTLs(fast, offsets, rem)

	// The slow path: unpack, mutate, repack.
	var m Message
	if err := m.Unpack(wire); err != nil {
		t.Fatal(err)
	}
	m.ID = newID
	for _, rrs := range [][]ResourceRecord{m.Answers, m.Authorities, m.Additionals} {
		for i := range rrs {
			if rrs[i].TTL > rem {
				rrs[i].TTL = rem
			}
		}
	}
	slow := mustPack(t, &m)
	if !bytes.Equal(fast, slow) {
		t.Errorf("wire rewrite diverges from unpack→mutate→pack:\n fast %x\n slow %x", fast, slow)
	}

	// And the rewritten bytes decode to the decayed values, OPT untouched.
	var got Message
	if err := got.Unpack(fast); err != nil {
		t.Fatal(err)
	}
	if got.ID != newID {
		t.Errorf("ID = %#x, want %#x", got.ID, newID)
	}
	for _, rr := range got.Answers {
		if rr.TTL > rem {
			t.Errorf("answer TTL %d not decayed to %d", rr.TTL, rem)
		}
	}
	if got.EDNS == nil || !got.EDNS.DO || got.EDNS.UDPSize != 4096 {
		t.Errorf("EDNS disturbed by decay: %+v", got.EDNS)
	}
}

func TestDecayTTLsKeepsSmallerTTLs(t *testing.T) {
	wire := mustPack(t, respFixture())
	offsets, err := TTLOffsets(wire)
	if err != nil {
		t.Fatal(err)
	}
	DecayTTLs(wire, offsets, 200) // above the 60s A records, below CNAME/SOA
	var m Message
	if err := m.Unpack(wire); err != nil {
		t.Fatal(err)
	}
	if m.Answers[0].TTL != 200 || m.Answers[1].TTL != 60 {
		t.Errorf("TTLs = %d,%d, want 200,60 (cap, not overwrite)", m.Answers[0].TTL, m.Answers[1].TTL)
	}
}

func TestTTLOffsetsRejectsTruncatedMessage(t *testing.T) {
	wire := mustPack(t, respFixture())
	for _, cut := range []int{len(wire) - 1, len(wire) / 2, headerLen + 3} {
		if _, err := TTLOffsets(wire[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	if _, err := TTLOffsets(append(wire, 0)); err == nil {
		t.Error("trailing byte accepted")
	}
}

func TestParseQueryAllocFree(t *testing.T) {
	wire := mustPack(t, NewQuery(2, "hot.example.com.", TypeA))
	dst := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(100, func() {
		q, ok := ParseQuery(wire)
		if !ok {
			t.Fatal("parse failed")
		}
		dst = q.AppendCanonicalName(dst[:0])
		PatchID(wire, 2)
	})
	if allocs != 0 {
		t.Errorf("fast parse allocates %.1f times per query, want 0", allocs)
	}
}

func TestPatchIDShortSlice(t *testing.T) {
	PatchID(nil, 1) // must not panic
	PatchID([]byte{9}, 1)
	b := []byte{0, 0}
	PatchID(b, 0x0304)
	if binary.BigEndian.Uint16(b) != 0x0304 {
		t.Error("two-byte patch failed")
	}
}

// TTLOffsets reports the byte offset of every resource record's TTL field
// in a packed message, skipping OPT pseudo-records (their TTL field encodes
// EDNS flags, not a lifetime — exactly the records the Message codec
// diverts into Message.EDNS). It is ScanResponse's structural pass without
// the question check, the reference the fast-path tests and fuzz targets
// hold ScanResponse's packed offsets to.
func TTLOffsets(wire []byte) ([]int, error) {
	_, packed, err := scanResponse(wire, nil, nil)
	if err != nil {
		return nil, err
	}
	offsets := make([]int, len(packed)/2)
	for i := range offsets {
		offsets[i] = int(binary.BigEndian.Uint16(packed[2*i:]))
	}
	return offsets, nil
}

// DecayTTLs caps every recorded TTL at remaining seconds, rewriting the
// packed message in place: DecayTTLsPacked over TTLOffsets' unpacked
// offsets, which the tests compare it with. Out-of-range offsets are
// ignored rather than panicking.
func DecayTTLs(wire []byte, offsets []int, remaining uint32) {
	for _, off := range offsets {
		if off < 0 || off+4 > len(wire) {
			continue
		}
		if binary.BigEndian.Uint32(wire[off:]) > remaining {
			binary.BigEndian.PutUint32(wire[off:], remaining)
		}
	}
}
