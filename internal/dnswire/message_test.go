package dnswire

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
)

func TestPackQueryGolden(t *testing.T) {
	m := &Message{
		ID:               0x1234,
		RecursionDesired: true,
		Questions:        []Question{{Name: "example.com.", Type: TypeA, Class: ClassINET}},
	}
	got, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{
		0x12, 0x34, // ID
		0x01, 0x00, // flags: RD
		0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // counts
		7, 'e', 'x', 'a', 'm', 'p', 'l', 'e', 3, 'c', 'o', 'm', 0,
		0x00, 0x01, // QTYPE A
		0x00, 0x01, // QCLASS IN
	}
	if !bytes.Equal(got, want) {
		t.Errorf("wire:\n got %x\nwant %x", got, want)
	}
}

func TestUnpackQueryGolden(t *testing.T) {
	wire := []byte{
		0x12, 0x34, 0x01, 0x00,
		0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
		7, 'e', 'x', 'a', 'm', 'p', 'l', 'e', 3, 'c', 'o', 'm', 0,
		0x00, 0x01, 0x00, 0x01,
	}
	var m Message
	if err := m.Unpack(wire); err != nil {
		t.Fatal(err)
	}
	if m.ID != 0x1234 || !m.RecursionDesired || m.Response {
		t.Errorf("header mismatch: %+v", m)
	}
	q := m.Question1()
	if q.Name != "example.com." || q.Type != TypeA || q.Class != ClassINET {
		t.Errorf("question = %v", q)
	}
}

func mustAddr(s string) netip.Addr { return netip.MustParseAddr(s) }

func sampleResponse() *Message {
	return &Message{
		ID:                 0xBEEF,
		Response:           true,
		Authoritative:      true,
		RecursionDesired:   true,
		RecursionAvailable: true,
		Questions:          []Question{{Name: "www.example.com.", Type: TypeA, Class: ClassINET}},
		Answers: []ResourceRecord{
			{Name: "www.example.com.", Class: ClassINET, TTL: 300,
				Data: &CNAME{Target: "cdn.example.net."}},
			{Name: "cdn.example.net.", Class: ClassINET, TTL: 60,
				Data: &A{Addr: mustAddr("192.0.2.53")}},
			{Name: "cdn.example.net.", Class: ClassINET, TTL: 60,
				Data: &AAAA{Addr: mustAddr("2001:db8::53")}},
		},
		Authorities: []ResourceRecord{
			{Name: "example.net.", Class: ClassINET, TTL: 3600,
				Data: &NS{Host: "ns1.example.net."}},
			{Name: "example.net.", Class: ClassINET, TTL: 3600, Data: &SOA{
				MName: "ns1.example.net.", RName: "hostmaster.example.net.",
				Serial: 2019091301, Refresh: 7200, Retry: 900, Expire: 1209600, Minimum: 300}},
		},
		Additionals: []ResourceRecord{
			{Name: "example.net.", Class: ClassINET, TTL: 120,
				Data: &MX{Preference: 10, Host: "mx.example.net."}},
			{Name: "example.net.", Class: ClassINET, TTL: 120,
				Data: &TXT{Strings: []string{"v=spf1 -all", "second"}}},
			{Name: "_dns.example.net.", Class: ClassINET, TTL: 120,
				Data: &SRV{Priority: 1, Weight: 5, Port: 853, Target: "dot.example.net."}},
			{Name: "example.net.", Class: ClassINET, TTL: 120,
				Data: &CAA{Flags: 0, Tag: "issue", Value: "pki.goog"}},
			{Name: "53.2.0.192.in-addr.arpa.", Class: ClassINET, TTL: 120,
				Data: &PTR{Target: "cdn.example.net."}},
		},
		EDNS: &EDNS{UDPSize: 4096, DO: true,
			Options: []EDNS0Option{{Code: 10, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}}}},
	}
}

func TestMessageRoundTripAllTypes(t *testing.T) {
	m := sampleResponse()
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	var got Message
	if err := got.Unpack(wire); err != nil {
		t.Fatalf("unpack: %v\nwire: %x", err, wire)
	}
	// Normalize empty slices for comparison.
	if len(got.Questions) == 0 {
		got.Questions = nil
	}
	if !reflect.DeepEqual(m.Questions, got.Questions) {
		t.Errorf("questions:\n got %v\nwant %v", got.Questions, m.Questions)
	}
	if !reflect.DeepEqual(m.Answers, got.Answers) {
		t.Errorf("answers:\n got %v\nwant %v", got.Answers, m.Answers)
	}
	if !reflect.DeepEqual(m.Authorities, got.Authorities) {
		t.Errorf("authorities:\n got %v\nwant %v", got.Authorities, m.Authorities)
	}
	if !reflect.DeepEqual(m.Additionals, got.Additionals) {
		t.Errorf("additionals:\n got %v\nwant %v", got.Additionals, m.Additionals)
	}
	if !reflect.DeepEqual(m.EDNS, got.EDNS) {
		t.Errorf("edns:\n got %+v\nwant %+v", got.EDNS, m.EDNS)
	}
}

func TestCompressionShrinksRepeatedNames(t *testing.T) {
	m := &Message{
		ID:        1,
		Questions: []Question{{Name: "host.example.org.", Type: TypeA, Class: ClassINET}},
	}
	for i := 0; i < 10; i++ {
		m.Answers = append(m.Answers, ResourceRecord{
			Name: "host.example.org.", Class: ClassINET, TTL: 60,
			Data: &A{Addr: mustAddr(fmt.Sprintf("192.0.2.%d", i+1))},
		})
	}
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	// Each answer should cost 2 (pointer) + 10 (fixed) + 4 (A) = 16 octets.
	wantLen := headerLen + (18 + 4) + 10*16
	if len(wire) != wantLen {
		t.Errorf("compressed message = %d octets, want %d", len(wire), wantLen)
	}
	var got Message
	if err := got.Unpack(wire); err != nil {
		t.Fatal(err)
	}
	if len(got.Answers) != 10 || got.Answers[9].Name != "host.example.org." {
		t.Errorf("unpack after compression: %v", got.Answers)
	}
}

func TestUnpackRejectsTrailingGarbage(t *testing.T) {
	m := NewQuery(7, "example.com.", TypeA)
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	wire = append(wire, 0xFF)
	var got Message
	if err := got.Unpack(wire); !errors.Is(err, ErrTrailingGarbage) {
		t.Errorf("err = %v, want ErrTrailingGarbage", err)
	}
}

func TestUnpackRejectsAbsurdCounts(t *testing.T) {
	wire := make([]byte, headerLen)
	wire[4], wire[5] = 0xFF, 0xFF // QDCOUNT=65535 in a 12-byte message
	var m Message
	if err := m.Unpack(wire); !errors.Is(err, ErrTooManyRecords) {
		t.Errorf("err = %v, want ErrTooManyRecords", err)
	}
}

func TestUnpackShortHeader(t *testing.T) {
	var m Message
	if err := m.Unpack([]byte{1, 2, 3}); !errors.Is(err, ErrShortMessage) {
		t.Errorf("err = %v, want ErrShortMessage", err)
	}
}

func TestEDNSRoundTrip(t *testing.T) {
	m := NewQuery(9, "example.com.", TypeAAAA)
	m.EDNS.DO = true
	m.EDNS.UDPSize = 1232
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	var got Message
	if err := got.Unpack(wire); err != nil {
		t.Fatal(err)
	}
	if got.EDNS == nil || got.EDNS.UDPSize != 1232 || !got.EDNS.DO {
		t.Errorf("EDNS = %+v", got.EDNS)
	}
	if len(got.Additionals) != 0 {
		t.Errorf("OPT leaked into additionals: %v", got.Additionals)
	}
}

// TestExtendedRCode: an RCODE above 15 packs its upper 8 bits into the OPT
// record's TTL and its lower 4 into the header, and Unpack folds them back:
// a BADVERS reply with a fresh OPT round-trips as BADVERS. One that has no
// OPT record to carry those bits, or needs more than 12 of them, does not
// pack.
func TestExtendedRCode(t *testing.T) {
	m := &Message{ID: 1, Response: true, RCode: RCodeBadVersion, EDNS: &EDNS{UDPSize: 512}}
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if low, high := wire[3]&0xF, wire[len(wire)-6]; low != 0 || high != 1 {
		t.Errorf("BADVERS packed as header RCODE %d, OPT extended RCODE %d; want 0 and 1", low, high)
	}
	var got Message
	if err := got.Unpack(wire); err != nil {
		t.Fatal(err)
	}
	if got.RCode != RCodeBadVersion {
		t.Errorf("extended rcode = %s, want BADVERS", got.RCode)
	}
	for _, bad := range []*Message{
		{Response: true, RCode: RCodeBadVersion},
		{Response: true, RCode: 0x1000, EDNS: &EDNS{UDPSize: 512}},
	} {
		if _, err := bad.Pack(); !errors.Is(err, ErrRCodeRange) {
			t.Errorf("RCODE %d with EDNS %v packed with error %v, want ErrRCodeRange", bad.RCode, bad.EDNS != nil, err)
		}
	}
}

func TestReplySkeleton(t *testing.T) {
	q := NewQuery(42, "Example.COM", TypeA)
	r := q.Reply()
	if !r.Response || r.ID != 42 || !r.RecursionAvailable {
		t.Errorf("reply header: %+v", r)
	}
	if r.Question1().Name != "example.com." {
		t.Errorf("reply question = %v", r.Question1())
	}
	if r.EDNS == nil {
		t.Error("reply dropped EDNS")
	}
}

func TestValidateResponse(t *testing.T) {
	q := NewQuery(42, "example.com.", TypeA)
	r := q.Reply()
	if err := ValidateResponse(q, r); err != nil {
		t.Errorf("valid response rejected: %v", err)
	}
	bad := q.Reply()
	bad.ID = 43
	if err := ValidateResponse(q, bad); !errors.Is(err, ErrIDMismatch) {
		t.Errorf("id mismatch: err = %v", err)
	}
	notResp := NewQuery(42, "example.com.", TypeA)
	if err := ValidateResponse(q, notResp); !errors.Is(err, ErrNotAResponse) {
		t.Errorf("non-response: err = %v", err)
	}
	wrongQ := q.Reply()
	wrongQ.Questions[0].Name = "other.com."
	if err := ValidateResponse(q, wrongQ); err == nil {
		t.Error("mismatched question accepted")
	}
}

func TestPackRejectsNilRData(t *testing.T) {
	m := &Message{Answers: []ResourceRecord{{Name: "x.com.", Class: ClassINET}}}
	if _, err := m.Pack(); err == nil {
		t.Error("nil rdata accepted")
	}
}

func TestAppendPackAfterPrefix(t *testing.T) {
	// Packing behind existing bytes (a stream server's two-octet length
	// prefix) must produce the same message octets as a fresh pack:
	// compression pointers are message-relative, not buffer-relative.
	m := &Message{
		ID:       7,
		Response: true,
		Questions: []Question{
			{Name: "www.example.com.", Type: TypeA, Class: ClassINET},
		},
		Answers: []ResourceRecord{
			{Name: "www.example.com.", Class: ClassINET, TTL: 60,
				Data: &CNAME{Target: "cdn.example.com."}},
			{Name: "cdn.example.com.", Class: ClassINET, TTL: 60,
				Data: &A{Addr: netip.MustParseAddr("192.0.2.1")}},
		},
	}
	fresh, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	prefixed, err := m.AppendPack(make([]byte, 2, 64))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(prefixed[2:], fresh) {
		t.Errorf("prefixed pack differs from fresh pack:\n  %x\n  %x", prefixed[2:], fresh)
	}
	var rt Message
	if err := rt.Unpack(prefixed[2:]); err != nil {
		t.Fatalf("unpacking prefixed pack: %v", err)
	}
}

func TestUnknownTypeRoundTrip(t *testing.T) {
	m := &Message{
		ID: 3,
		Answers: []ResourceRecord{{
			Name: "example.com.", Class: ClassINET, TTL: 30,
			Data: &Unknown{RRType: Type(999), Raw: []byte{0xDE, 0xAD, 0xBE, 0xEF}},
		}},
	}
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	var got Message
	if err := got.Unpack(wire); err != nil {
		t.Fatal(err)
	}
	u, ok := got.Answers[0].Data.(*Unknown)
	if !ok || u.RRType != Type(999) || !bytes.Equal(u.Raw, []byte{0xDE, 0xAD, 0xBE, 0xEF}) {
		t.Errorf("unknown rr = %+v", got.Answers[0])
	}
}

// randomMessage builds a random-but-valid message for property testing.
func randomMessage(rng *rand.Rand) *Message {
	m := &Message{
		ID:               uint16(rng.Uint32()),
		Response:         rng.Intn(2) == 0,
		RecursionDesired: rng.Intn(2) == 0,
		RCode:            RCode(rng.Intn(6)),
	}
	name := genName(rng.Int63())
	m.Questions = []Question{{Name: name, Type: TypeA, Class: ClassINET}}
	n := rng.Intn(6)
	for i := 0; i < n; i++ {
		rr := ResourceRecord{Name: genName(rng.Int63()), Class: ClassINET, TTL: rng.Uint32() % 86400}
		switch rng.Intn(5) {
		case 0:
			rr.Data = &A{Addr: netip.AddrFrom4([4]byte{byte(rng.Intn(256)), 0, 2, byte(rng.Intn(256))})}
		case 1:
			var a16 [16]byte
			rng.Read(a16[:])
			a16[0] = 0x20 // keep it a real v6, not 4-in-6
			rr.Data = &AAAA{Addr: netip.AddrFrom16(a16)}
		case 2:
			rr.Data = &CNAME{Target: genName(rng.Int63())}
		case 3:
			rr.Data = &MX{Preference: uint16(rng.Uint32()), Host: genName(rng.Int63())}
		case 4:
			rr.Data = &TXT{Strings: []string{"abc", "with spaces"}}
		}
		m.Answers = append(m.Answers, rr)
	}
	if rng.Intn(2) == 0 {
		m.EDNS = &EDNS{UDPSize: 512 + uint16(rng.Intn(4096)), DO: rng.Intn(2) == 0}
	}
	return m
}

func TestMessageRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomMessage(rng)
		wire, err := m.Pack()
		if err != nil {
			t.Logf("pack(%+v): %v", m, err)
			return false
		}
		var got Message
		if err := got.Unpack(wire); err != nil {
			t.Logf("unpack: %v", err)
			return false
		}
		wire2, err := got.Pack()
		if err != nil {
			return false
		}
		// Pack→Unpack→Pack must be a fixed point (wire-level idempotence).
		return bytes.Equal(wire, wire2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestUnpackNeverPanicsProperty(t *testing.T) {
	f := func(data []byte) bool {
		var m Message
		_ = m.Unpack(data) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestTypeStrings(t *testing.T) {
	if TypeA.String() != "A" || TypeCAA.String() != "CAA" {
		t.Error("type mnemonics wrong")
	}
	if Type(4242).String() != "TYPE4242" {
		t.Errorf("unknown type = %s", Type(4242))
	}
	if got, ok := ParseType("AAAA"); !ok || got != TypeAAAA {
		t.Errorf("ParseType(AAAA) = %v %v", got, ok)
	}
	if _, ok := ParseType("NOPE"); ok {
		t.Error("ParseType accepted junk")
	}
	if RCodeNameError.String() != "NXDOMAIN" || RCode(77).String() != "RCODE77" {
		t.Error("rcode strings wrong")
	}
	if ClassINET.String() != "IN" || Class(999).String() != "CLASS999" {
		t.Error("class strings wrong")
	}
	if OpCodeQuery.String() != "QUERY" || OpCode(7).String() != "OPCODE7" {
		t.Error("opcode strings wrong")
	}
}

func TestMessageString(t *testing.T) {
	s := sampleResponse().String()
	for _, want := range []string{"response", "ANSWER", "AUTHORITY", "ADDITIONAL", "www.example.com."} {
		if !bytes.Contains([]byte(s), []byte(want)) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}
