package dnsserver

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"dohcost/internal/dnswire"
	"dohcost/internal/guard"
)

// fitMessage is fit as Unpack, an edit and Pack: the reference fit's wire
// surgery is held to. A client cookie in the query is owed a server cookie,
// appended to the reply's EDNS options (an OPT of its own when it has
// none); a reply over limit is truncated to TC=1 with no records, and loses
// its OPT too when even that is over limit.
func fitMessage(s *UDPServer, reply, query []byte, limit int, gkey uint64) ([]byte, error) {
	cookie, echo := s.Guard.ServerCookie(nil, query, gkey)
	if !echo && len(reply) <= limit {
		return reply, nil
	}
	var resp dnswire.Message
	if err := resp.Unpack(reply); err != nil {
		return nil, err
	}
	if echo {
		if resp.EDNS == nil {
			resp.EDNS = &dnswire.EDNS{UDPSize: 1232}
		}
		resp.EDNS.Options = append(resp.EDNS.Options, dnswire.EDNS0Option{Code: guard.EDNS0CookieCode, Data: cookie})
	}
	reply, err := resp.Pack()
	if err == nil && len(reply) > limit {
		resp.Truncated = true
		resp.Answers, resp.Authorities, resp.Additionals = nil, nil, nil
		reply, err = resp.Pack()
		if err == nil && len(reply) > limit && resp.EDNS != nil {
			resp.EDNS = nil
			reply, err = resp.Pack()
		}
	}
	return reply, err
}

// fitSeedReply packs a reply to name carrying n A records and additional
// glue, with an OPT record of the given options when edns is set.
func fitSeedReply(f *testing.F, name dnswire.Name, n int, edns bool, opts ...dnswire.EDNS0Option) []byte {
	f.Helper()
	m := refAnswer(dnswire.NewQuery(0x5151, name, dnswire.TypeA))
	m.Answers = m.Answers[:0]
	for i := 0; i < n; i++ {
		m.Answers = append(m.Answers, dnswire.ResourceRecord{Name: name, Class: dnswire.ClassINET, TTL: 60,
			Data: &dnswire.A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(i)})}})
	}
	m.Additionals = []dnswire.ResourceRecord{{Name: "ns." + name, Class: dnswire.ClassINET, TTL: 60,
		Data: &dnswire.AAAA{Addr: netip.MustParseAddr("2001:db8::53")}}}
	m.EDNS = nil
	if edns {
		m.EDNS = &dnswire.EDNS{UDPSize: 4096, DO: true, Options: opts}
	}
	wire, err := m.Pack()
	if err != nil {
		f.Fatal(err)
	}
	return wire
}

// FuzzFitEquivalence holds UDP's wire fit to fitMessage on every reply the
// oracle handles — a reply as Pack writes it, with and without an OPT
// record, under every limit, for a query with and without a client cookie:
// the fitted bytes unpack to the oracle's message (names compared without
// case, as Pack lower-cases them) and are never longer. Fitted in place, in
// a buffer of their own, or from bytes no encoder would write, replies
// never panic the surgery.
func FuzzFitEquivalence(f *testing.F) {
	long := dnswire.Name(bytes.Repeat([]byte("a"), 60)) + "." + dnswire.Name(bytes.Repeat([]byte("b"), 60)) + ".example."
	for _, seed := range []struct {
		reply  []byte
		limit  uint16
		cookie bool
	}{
		{fitSeedReply(f, "fit.example.", 1, false), 512, true},   // a cookie in an OPT of its own
		{fitSeedReply(f, "fit.example.", 1, true), 512, true},    // grown into the reply's OPT
		{fitSeedReply(f, "fit.example.", 40, false), 512, false}, // TC=1
		{fitSeedReply(f, "fit.example.", 40, true), 512, true},   // TC=1 keeping the cookie OPT
		{fitSeedReply(f, long, 3, true), 150, true},              // the OPT goes too
		{fitSeedReply(f, long, 3, false), 40, false},             // under any header and question
		{fitSeedReply(f, "fit.example.", 2, true, dnswire.EDNS0Option{Code: 12, Data: make([]byte, 30)}), 100, true},
		{fitSeedReply(f, "fit.example.", 0, true), 0, true},
		{[]byte{0, 1, 0x81, 0x80, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 1}, 12, true}, // OPT walk past the end
	} {
		f.Add(seed.reply, seed.limit, seed.cookie, false)
		f.Add(seed.reply, seed.limit, seed.cookie, true)
	}
	clock := time.Unix(1700000000, 0)
	s := &UDPServer{Guard: guard.New(guard.Config{CookieSecret: 0xf17, Now: func() time.Time { return clock }})}
	query := func(opts ...dnswire.EDNS0Option) []byte {
		q := dnswire.NewQuery(0x5151, "fit.example.", dnswire.TypeA)
		q.EDNS.Options = opts
		wire, err := q.Pack()
		if err != nil {
			f.Fatal(err)
		}
		return wire
	}
	plain, withCookie := query(), query(dnswire.EDNS0Option{Code: guard.EDNS0CookieCode, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}})
	f.Fuzz(func(t *testing.T, raw []byte, limit uint16, cookie, dropOPT bool) {
		query := plain
		if cookie {
			query = withCookie
		}
		// Bytes no encoder would write: no panic, in place or not.
		s.fit(nil, append([]byte(nil), raw...), query, int(limit), 7)
		if r := append([]byte(nil), raw...); len(r) > 0 {
			s.fit(r[:0], r, query, int(limit), 7)
		}

		var m dnswire.Message
		if m.Unpack(raw) != nil {
			return
		}
		if dropOPT {
			m.EDNS = nil
		}
		reply, err := m.Pack()
		if err != nil {
			return
		}
		want, err := fitMessage(s, reply, query, int(limit), 7)
		if err != nil {
			return // not a reply the oracle handles
		}
		inPlace := make([]byte, len(reply), len(reply)+64)
		copy(inPlace, reply)
		for name, got := range map[string]func() ([]byte, error){
			"own buffer": func() ([]byte, error) { return s.fit(make([]byte, 0, 512), reply, query, int(limit), 7) },
			"in place":   func() ([]byte, error) { return s.fit(inPlace[:0], inPlace, query, int(limit), 7) },
		} {
			out, err := got()
			if err != nil {
				t.Fatalf("%s: fit failed where the oracle did not: %v", name, err)
			}
			if len(out) > len(want) {
				t.Fatalf("%s: fitted %d bytes, the oracle %d:\n got  %x\n want %x", name, len(out), len(want), out, want)
			}
			var gm, wm dnswire.Message
			if err := gm.Unpack(out); err != nil {
				t.Fatalf("%s: fitted reply does not unpack: %v\n%x", name, err, out)
			}
			if err := wm.Unpack(want); err != nil {
				t.Fatal(err)
			}
			// Pack writes every name lower-cased: equal packs are equal
			// messages up to the case of their names.
			gp, gerr := gm.Pack()
			wp, werr := wm.Pack()
			if gerr != nil || werr != nil || !bytes.Equal(gp, wp) {
				t.Fatalf("%s: limit %d cookie %v: fitted reply differs from the oracle's:\n got  %v\n want %v", name, limit, cookie, &gm, &wm)
			}
		}
	})
}
