package dnswire

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"testing"
)

// fuzzSeeds packs a corpus of messages covering the shapes the wire
// rewrite helpers must stay equivalent on: compressed names shared across
// sections, EDNS OPT records (whose TTL field is flags, not a lifetime),
// negative answers with SOA authorities, and plain queries.
func fuzzSeeds(f *testing.F) {
	seeds := []*Message{
		NewQuery(1, "www.example.com.", TypeA),
		respFixtureFuzz(),
		{ // NXDOMAIN with SOA authority (negative-cache shape).
			ID: 9, Response: true, RCode: RCodeNameError,
			Questions: []Question{{Name: "nx.example.org.", Type: TypeAAAA, Class: ClassINET}},
			Authorities: []ResourceRecord{
				{Name: "example.org.", Class: ClassINET, TTL: 900,
					Data: &SOA{MName: "ns.example.org.", RName: "root.example.org.",
						Serial: 2, Refresh: 1, Retry: 2, Expire: 3, Minimum: 60}},
			},
		},
		{ // EDNS with options and extended flags.
			ID: 11, Response: true,
			Questions: []Question{{Name: "opt.example.", Type: TypeTXT, Class: ClassINET}},
			Answers: []ResourceRecord{{Name: "opt.example.", Class: ClassINET, TTL: 1,
				Data: &TXT{Strings: []string{"hello"}}}},
			EDNS: &EDNS{UDPSize: 1232, DO: true,
				Options: []EDNS0Option{{Code: 12, Data: make([]byte, 16)}}},
		},
	}
	for _, m := range seeds {
		wire, err := m.Pack()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire, uint16(0xABCD), uint32(30))
	}
}

func respFixtureFuzz() *Message {
	return &Message{
		ID: 0xBEEF, Response: true, RecursionAvailable: true,
		Questions: []Question{{Name: "www.example.com.", Type: TypeA, Class: ClassINET}},
		Answers: []ResourceRecord{
			{Name: "www.example.com.", Class: ClassINET, TTL: 300,
				Data: &CNAME{Target: "cdn.example.com."}},
			{Name: "cdn.example.com.", Class: ClassINET, TTL: 60,
				Data: &A{Addr: netip.MustParseAddr("192.0.2.53")}},
		},
		EDNS: &EDNS{UDPSize: 4096},
	}
}

// FuzzWireRewriteEquivalence proves the in-place rewrite helpers are
// byte-equivalent to the Message path: for any unpackable input, patching
// the ID and decaying the TTLs of the canonically re-packed wire must
// produce exactly the bytes of unpack → mutate → pack. This is the
// property the packed-response cache rests on — a hit's patched bytes are
// indistinguishable from a full serialization round trip.
func FuzzWireRewriteEquivalence(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte, id uint16, rem uint32) {
		var m Message
		if err := m.Unpack(data); err != nil {
			t.Skip()
		}
		wire, err := m.Pack()
		if err != nil {
			t.Skip() // unpackable but not re-packable (e.g. >64KiB growth)
		}
		offsets, err := TTLOffsets(wire)
		if err != nil {
			t.Fatalf("TTLOffsets rejects our own packer's output: %v", err)
		}

		fast := append([]byte(nil), wire...)
		PatchID(fast, id)
		DecayTTLs(fast, offsets, rem)

		var m2 Message
		if err := m2.Unpack(wire); err != nil {
			t.Fatalf("unpacking our own packer's output: %v", err)
		}
		m2.ID = id
		for _, rrs := range [][]ResourceRecord{m2.Answers, m2.Authorities, m2.Additionals} {
			for i := range rrs {
				if rrs[i].TTL > rem {
					rrs[i].TTL = rem
				}
			}
		}
		slow, err := m2.Pack()
		if err != nil {
			t.Fatalf("repacking mutated message: %v", err)
		}
		if !bytes.Equal(fast, slow) {
			t.Errorf("rewrite diverges from unpack→mutate→pack for id=%#x rem=%d:\n fast %x\n slow %x",
				id, rem, fast, slow)
		}
	})
}

// FuzzParseQueryConsistency checks the fast view against the full codec:
// whenever ParseQuery accepts bytes, Message.Unpack must agree on every
// field the view exposes, and the canonical name must match.
func FuzzParseQueryConsistency(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte, _ uint16, _ uint32) {
		q, ok := ParseQuery(data)
		if !ok {
			t.Skip()
		}
		var m Message
		if err := m.Unpack(data); err != nil {
			// ParseQuery validates everything the full codec does on the
			// shapes it accepts (including OPT option TLVs), so a query's
			// fate can never depend on which path examined it — a hit
			// answered by the fast path is a query the Message path would
			// also have accepted.
			t.Fatalf("ParseQuery accepted what Unpack rejects: %v", err)
		}
		qq := m.Question1()
		if q.ID != m.ID || q.Type != qq.Type || q.Class != qq.Class ||
			q.RecursionDesired != m.RecursionDesired {
			t.Errorf("view %+v disagrees with Unpack", q)
		}
		if got, want := Name(q.AppendCanonicalName(nil)), qq.Name.Canonical(); got != want {
			t.Errorf("canonical name %q != %q", got, want)
		}
		// The echo lower-cases the question's name by its own label walk.
		if got, want := q.AppendCanonicalQuestion(nil), AppendEcho(nil, data, q.nameEnd+5, RCodeSuccess, false)[headerLen:]; !bytes.Equal(got, want) {
			t.Errorf("canonical question %x, echoed %x", got, want)
		}
		if q.HasEDNS != (m.EDNS != nil) || (m.EDNS != nil && q.UDPSize != m.EDNS.UDPSize) {
			t.Errorf("EDNS view (%v, %d) disagrees with %+v", q.HasEDNS, q.UDPSize, m.EDNS)
		}
	})
}

// FuzzEchoEquivalence holds the wire-built echo replies to the Message path,
// which stays here as the oracle: for every input ParseQuery accepts,
// Query.AppendReply's SERVFAIL and REFUSED are the bytes of Unpack → Reply → set
// RCode → Pack, and AppendEcho's TC=1 slip is the same reply truncated and
// stripped of its OPT (the guard attaches its own). Neither panics on the
// rest.
func FuzzEchoEquivalence(f *testing.F) {
	fuzzSeeds(f)
	for _, m := range []*Message{
		NewQuery(2, "MiXeD.Case.Example.", TypeAAAA),
		{ID: 3, RecursionDesired: true, AuthenticData: true, CheckingDisabled: true,
			Questions: []Question{{Name: "do.example.", Type: TypeA, Class: ClassINET}},
			EDNS: &EDNS{UDPSize: 1232, DO: true,
				Options: []EDNS0Option{{Code: 10, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}}}}},
		{ID: 4, Questions: []Question{{Name: ".", Type: TypeNS, Class: ClassINET}}, EDNS: &EDNS{UDPSize: 512}},
	} {
		wire, err := m.Pack()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire, uint16(0), uint32(0))
	}
	f.Fuzz(func(t *testing.T, data []byte, _ uint16, _ uint32) {
		q, ok := ParseQuery(data)
		if !ok {
			t.Skip()
		}
		var m Message
		if err := m.Unpack(data); err != nil {
			t.Fatalf("ParseQuery accepted what Unpack rejects: %v", err)
		}
		qend := q.nameEnd + 1 + 4
		oracle := func(edit func(r *Message)) []byte {
			r := m.Reply()
			edit(r)
			want, err := r.Pack()
			if err != nil || !bytes.EqualFold(want[headerLen:qend], data[headerLen:qend]) {
				// A name the Message form cannot carry (a label holding a
				// dot): it cannot say what the echo should be.
				t.Skip()
			}
			return want
		}
		prefix := []byte{0xAA, 0xBB} // a stream's length prefix must survive
		for _, rcode := range []RCode{RCodeServerFailure, RCodeRefused} {
			want := oracle(func(r *Message) { r.RCode = rcode })
			if got := q.AppendReply(prefix[:2:2], rcode); !bytes.Equal(got[:2], prefix) || !bytes.Equal(got[2:], want) {
				t.Errorf("Query.AppendReply(%v) diverges from Unpack→Reply→Pack:\n got  %x\n want %x", rcode, got[2:], want)
			}
		}
		want := oracle(func(r *Message) { r.Truncated, r.EDNS = true, nil })
		if got := AppendEcho(prefix[:2:2], data, qend, RCodeSuccess, true); !bytes.Equal(got[:2], prefix) || !bytes.Equal(got[2:], want) {
			t.Errorf("AppendEcho(TC=1) diverges from the truncated Reply:\n got  %x\n want %x", got[2:], want)
		}
	})
}

// questionQuery builds the query a message claims to answer: a fresh header
// over its own first question, uncompressed. ok=false when the message
// carries nothing ParseQuery would accept as a question.
func questionQuery(wire []byte) (Query, bool) {
	if len(wire) < headerLen || binary.BigEndian.Uint16(wire[4:]) == 0 {
		return Query{}, false
	}
	end := headerLen
	for end < len(wire) && wire[end] != 0 && wire[end]&0xC0 == 0 {
		end += 1 + int(wire[end])
	}
	if end+5 > len(wire) {
		return Query{}, false
	}
	query := append([]byte{0xAB, 0xCD, 0x01, 0x00, 0, 1, 0, 0, 0, 0, 0, 0}, wire[headerLen:end+5]...)
	return ParseQuery(query)
}

// FuzzUnpackAgainstReaders holds the two wire readers to the codec they
// stand in for. Whatever ParseQuery accepts, Unpack accepts, and reads the
// same ID, question, EDNS presence and UDP size. Whatever ScanResponse
// accepts as a response to the question it carries, Unpack accepts, and
// reads the same RCODE, TC bit and sections: as many answers, and as many
// records in all as the scan reported TTL offsets. The scan is the gate for
// every upstream reply a cache forwards or stores verbatim, so a reply it
// passes can always take the Message path later. None of the three panics.
func FuzzUnpackAgainstReaders(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte, _ uint16, _ uint32) {
		var m Message
		unpackErr := m.Unpack(data)
		if q, ok := ParseQuery(data); ok {
			if unpackErr != nil {
				t.Fatalf("ParseQuery accepted what Unpack rejects: %v", unpackErr)
			}
			qq := m.Question1()
			if q.ID != m.ID || q.Type != qq.Type || q.Class != qq.Class || len(m.Questions) != 1 {
				t.Errorf("query view %+v disagrees with Unpack's %v", q, qq)
			}
			if got, want := Name(q.AppendCanonicalName(nil)), qq.Name.Canonical(); got != want {
				t.Errorf("query view name %q, Unpack's %q", got, want)
			}
			if q.HasEDNS != (m.EDNS != nil) || (m.EDNS != nil && q.UDPSize != m.EDNS.UDPSize) {
				t.Errorf("query view EDNS (%v, %d) disagrees with %+v", q.HasEDNS, q.UDPSize, m.EDNS)
			}
		}
		q, ok := questionQuery(data)
		if !ok {
			return
		}
		scan, toffs, err := ScanResponse(data, &q, nil)
		if err != nil {
			return
		}
		if unpackErr != nil {
			t.Fatalf("ScanResponse accepted what Unpack rejects: %v", unpackErr)
		}
		records := len(m.Answers) + len(m.Authorities) + len(m.Additionals)
		if scan.RCode != m.RCode || scan.Truncated != m.Truncated || scan.Answers != len(m.Answers) || len(toffs) != 2*records {
			t.Errorf("scan: rcode %v tc %v, %d answers, %d records; Unpack: rcode %v tc %v, %d answers, %d records",
				scan.RCode, scan.Truncated, scan.Answers, len(toffs)/2, m.RCode, m.Truncated, len(m.Answers), records)
		}
	})
}
