package dnscache

// The wire-native miss: what an upstream's bytes may and may not do to the
// cache, how one flight bounds everyone waiting on it, and the differential
// proof that bytes carried end to end answer like Messages did.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dohcost/internal/dnsserver"
	"dohcost/internal/dnstransport"
	"dohcost/internal/dnswire"
)

// wireUpstream is a wire-native upstream scripted by a function of the
// query. Like a transport client it appends the reply to the caller's
// buffer under the query's ID, and refuses what
// dnswire.ValidateResponseWire refuses.
type wireUpstream struct {
	calls atomic.Int64
	reply func(ctx context.Context, query []byte) ([]byte, error)
}

func (u *wireUpstream) ExchangeWire(ctx context.Context, query, dst []byte) ([]byte, error) {
	u.calls.Add(1)
	reply, err := u.reply(ctx, query)
	if err != nil {
		return nil, err
	}
	resp := append(dst, reply...)
	id := binary.BigEndian.Uint16(query)
	dnswire.PatchID(resp[len(dst):], id)
	if err := dnswire.ValidateResponseWire(query, id, resp[len(dst):]); err != nil {
		return nil, err
	}
	return resp, nil
}

func (u *wireUpstream) Exchange(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	return dnstransport.ExchangeMessage(ctx, u, q)
}

func (u *wireUpstream) Close() error { return nil }

// answerTo packs the canonical one-record answer to a packed query.
func answerTo(t testing.TB, query []byte, mutate func(*dnswire.Message)) []byte {
	t.Helper()
	var q dnswire.Message
	if err := q.Unpack(query); err != nil {
		t.Fatal(err)
	}
	r := q.Reply()
	r.Answers = []dnswire.ResourceRecord{{Name: q.Question1().Name, Class: dnswire.ClassINET, TTL: 300,
		Data: &dnswire.CNAME{Target: "target." + q.Question1().Name}}}
	if mutate != nil {
		mutate(r)
	}
	wire, err := r.Pack()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// TestFlightBoundedByExchangeTimeout: the flight carries the one deadline
// of a miss. Against an upstream that never answers, the leader and a
// follower — neither with a deadline of its own — both return when the
// exchange timeout ends the flight, after one upstream exchange.
func TestFlightBoundedByExchangeTimeout(t *testing.T) {
	entered := make(chan struct{}, 1)
	up := &wireUpstream{reply: func(ctx context.Context, _ []byte) ([]byte, error) {
		entered <- struct{}{}
		<-ctx.Done() // black hole: only the flight's deadline gets out
		return nil, ctx.Err()
	}}
	c := New(up, WithExchangeTimeout(60*time.Millisecond))
	defer c.Close()

	errs := make(chan error, 2)
	ask := func(id uint16) {
		_, err := c.Exchange(context.Background(), dnswire.NewQuery(id, "hole.example.", dnswire.TypeA))
		errs <- err
	}
	go ask(1)
	<-entered
	go ask(2)
	waitUntil(t, "the follower to coalesce", func() bool { return c.Stats().Coalesced == 1 })
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("caller %d: err = %v, want the flight's deadline", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a caller outlived the exchange timeout")
		}
	}
	if got := up.calls.Load(); got != 1 {
		t.Errorf("upstream exchanges = %d, want 1", got)
	}
}

// TestTimedOutFlightIsNotRecycled: a flight whose deadline passed has a
// closed Done channel, and whoever it woke may still hold it: it is dropped,
// not put back on the free list — the shard's next miss must not start life
// expired — while one that landed in time is recycled.
func TestTimedOutFlightIsNotRecycled(t *testing.T) {
	up := &wireUpstream{reply: func(ctx context.Context, query []byte) ([]byte, error) {
		if q, _ := dnswire.ParseQuery(query); bytes.HasPrefix(q.AppendCanonicalName(nil), []byte("hole")) {
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return answerTo(t, query, nil), nil
	}}
	c := New(up, WithShards(1), WithExchangeTimeout(30*time.Millisecond))
	defer c.Close()
	sh := c.shards[0]
	free := func() int { sh.mu.Lock(); defer sh.mu.Unlock(); return len(sh.free) }

	if _, err := c.Exchange(context.Background(), dnswire.NewQuery(1, "hole.example.", dnswire.TypeA)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("black-holed miss: err = %v, want the flight's deadline", err)
	}
	if n := free(); n != 0 {
		t.Fatalf("%d flights on the free list after one timed out, want none", n)
	}
	for i, name := range []dnswire.Name{"first.example.", "second.example."} {
		if _, err := c.Exchange(context.Background(), dnswire.NewQuery(2, name, dnswire.TypeA)); err != nil {
			t.Fatalf("miss %d after a timed-out flight: %v", i, err)
		}
		if n := free(); n != 1 {
			t.Fatalf("%d flights on the free list after %d landed in time one after the other, want the one, recycled", n, i+1)
		}
	}
}

// TestRecycledFlightsKeepToTheirKeys: flights are recycled the moment they
// land, on one shard here so every miss takes a used one, and a recycled
// flight must carry nothing over — no bytes, no error, no follower channel,
// no waiter count. Rounds of 64 keys at once, half asked once (their
// flights are recycled) and half by a leader and two followers under IDs of
// their own (theirs are not), half of each failing upstream: every caller
// gets the reply to its own question under its own ID, or its own key's
// error.
func TestRecycledFlightsKeepToTheirKeys(t *testing.T) {
	errBad := errors.New("upstream refuses this name")
	up := &wireUpstream{reply: func(_ context.Context, query []byte) ([]byte, error) {
		time.Sleep(time.Duration(query[1]%4) * time.Millisecond) // followers get their chance to join
		if q, _ := dnswire.ParseQuery(query); bytes.HasPrefix(q.AppendCanonicalName(nil), []byte("bad")) {
			return nil, errBad
		}
		return answerTo(t, query, nil), nil
	}}
	now := time.Now()
	c := New(up, WithShards(1), withClock(func() time.Time { return now })) // a straggler's hit decays nothing
	defer c.Close()

	const rounds, keys = 6, 64
	lookups := 0
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for k := 0; k < keys; k++ {
			label, callers := "good", 1+2*(k%2)
			if k%4 < 2 {
				label = "bad"
			}
			lookups += callers
			name := dnswire.Name(fmt.Sprintf("%s-k%d-r%d.example.", label, k, r))
			for i := 0; i < callers; i++ {
				wg.Add(1)
				go func(id uint16) {
					defer wg.Done()
					fq, wire := fastParse(t, dnswire.NewQuery(id, name, dnswire.TypeA))
					resp, err := c.ExchangeQuery(context.Background(), &fq, nil)
					if label == "bad" {
						if !errors.Is(err, errBad) {
							t.Errorf("%s: err = %v (%d reply bytes), want its own key's failure", name, err, len(resp))
						}
					} else if want := answerTo(t, wire, nil); err != nil || !bytes.Equal(resp, want) {
						t.Errorf("%s id %#x: err %v, reply\n %x\nwant\n %x", name, id, err, resp, want)
					}
				}(uint16(r<<12 | k<<2 | i))
			}
		}
		wg.Wait()
	}
	s := c.Stats()
	if int(s.Hits+s.Misses+s.Coalesced) != lookups || s.Misses < rounds*keys || s.Coalesced == 0 {
		t.Errorf("stats %+v: want %d lookups, a miss per key at least, some coalesced", s, lookups)
	}
	// One more miss alone: whatever the rounds left on the free list, its
	// flight is there now.
	fq, _ := fastParse(t, dnswire.NewQuery(1, "good-last.example.", dnswire.TypeA))
	if _, err := c.ExchangeQuery(context.Background(), &fq, nil); err != nil {
		t.Fatal(err)
	}
	sh := c.shards[0]
	if len(sh.free) == 0 || len(sh.flights) != 0 {
		t.Errorf("%d flights free, %d still registered: want some recycled, none left", len(sh.free), len(sh.flights))
	}
	for _, f := range sh.free {
		if f.waiters != 0 || f.done != nil || f.resp != nil || f.err != nil || f.leader != nil || f.Err() != nil {
			t.Errorf("a flight on the free list still carries its last miss: %+v", f)
		}
	}
}

// TestFollowersGetTheirOwnBytes: every caller of one flight — the leader
// included — gets a buffer nobody else holds, stamped with its own ID.
// Each scribbles over its reply; under -race a shared buffer is a report,
// and without it a corrupted neighbour fails the comparison.
func TestFollowersGetTheirOwnBytes(t *testing.T) {
	release := make(chan struct{})
	up := &wireUpstream{}
	up.reply = func(_ context.Context, query []byte) ([]byte, error) {
		<-release
		return answerTo(t, query, nil), nil
	}
	now := time.Now()
	c := New(up, withClock(func() time.Time { return now })) // a hit decays nothing
	defer c.Close()

	const callers = 8
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(id uint16) {
			defer wg.Done()
			fq, wire := fastParse(t, dnswire.NewQuery(id, "shared.example.", dnswire.TypeA))
			resp, err := c.ExchangeQuery(context.Background(), &fq, nil)
			if err != nil {
				t.Error(err)
				return
			}
			want := answerTo(t, wire, nil)
			if !bytes.Equal(resp, want) {
				t.Errorf("caller %d: reply\n %x\nwant\n %x", id, resp, want)
			}
			for j := range resp {
				resp[j] = byte(id)
			}
		}(uint16(0x100 + i))
	}
	waitUntil(t, "every follower to coalesce", func() bool { return c.Stats().Coalesced == callers-1 })
	close(release)
	wg.Wait()

	// The arena copy is nobody's buffer either.
	fq, wire := fastParse(t, dnswire.NewQuery(9, "shared.example.", dnswire.TypeA))
	hit, _, ok := c.ServeWire(nil, &fq, nil, 0)
	if !ok || !bytes.Equal(hit, answerTo(t, wire, nil)) {
		t.Errorf("stored entry corrupted by its callers' writes: ok=%v %x", ok, hit)
	}
}

// missResult is one concurrent caller's outcome.
type missResult struct {
	id   uint16
	resp []byte
	err  error
}

// askAsync runs ExchangeQuery for q on a goroutine of its own, into a
// buffer of its own, and reports on results.
func askAsync(c *Cache, q dnswire.Query, results chan<- missResult) {
	go func() {
		resp, err := c.ExchangeQuery(context.Background(), &q, make([]byte, 0, 512))
		results <- missResult{q.ID, resp, err}
	}()
}

// TestCollidingKeysFlyApart: the flight table is keyed by hash, so two keys
// can meet in it. Forced onto one 64-bit hash, both go upstream and each
// caller gets its own key's reply; the second miss's flight is not filed,
// so its landing leaves the first's entry in place — a later caller with
// the first key still coalesces — and once both have landed the table is
// empty and both answers are stored.
func TestCollidingKeysFlyApart(t *testing.T) {
	names := []dnswire.Name{"a.example.", "b.example."}
	release := map[string]chan struct{}{string(names[0]): make(chan struct{}), string(names[1]): make(chan struct{})}
	entered := make(chan string, 4)
	up := &wireUpstream{}
	up.reply = func(_ context.Context, query []byte) ([]byte, error) {
		q, _ := dnswire.ParseQuery(query)
		name := string(q.AppendCanonicalName(nil))
		entered <- name
		<-release[name]
		return answerTo(t, query, nil), nil
	}
	now := time.Now()
	c := New(up, WithShards(1), withRehash(func(uint64) uint64 { return 42 }), withClock(func() time.Time { return now })) // a hit decays nothing
	defer c.Close()
	queries := make(map[uint16][]byte)
	query := func(id uint16, name dnswire.Name) dnswire.Query {
		fq, wire := fastParse(t, dnswire.NewQuery(id, name, dnswire.TypeA))
		queries[id] = wire
		return fq
	}
	a1, b2, a3, a4 := query(1, names[0]), query(2, names[1]), query(3, names[0]), query(4, names[0])
	results := make(chan missResult, 4)
	check := func(r missResult) {
		t.Helper()
		if want := answerTo(t, queries[r.id], nil); r.err != nil || !bytes.Equal(r.resp, want) {
			t.Errorf("caller %d: err %v, reply\n %x\nwant\n %x", r.id, r.err, r.resp, want)
		}
	}

	askAsync(c, a1, results)
	if got := <-entered; got != string(names[0]) {
		t.Fatalf("upstream asked for %s first, want %s", got, names[0])
	}
	askAsync(c, b2, results) // same hash, another key: upstream, not coalesced
	if got := <-entered; got != string(names[1]) {
		t.Fatalf("upstream asked for %s second, want %s", got, names[1])
	}
	askAsync(c, a3, results)
	waitUntil(t, "the first key's second caller to coalesce", func() bool { return c.Stats().Coalesced == 1 })

	close(release[string(names[1])])
	r := <-results
	if r.id != 2 {
		t.Fatalf("caller %d returned before the colliding key's flight landed", r.id)
	}
	check(r)
	askAsync(c, a4, results) // the first key's flight is still filed
	waitUntil(t, "a later caller of the first key to coalesce", func() bool { return c.Stats().Coalesced == 2 })

	close(release[string(names[0])])
	for i := 0; i < 3; i++ {
		check(<-results)
	}
	if s := c.Stats(); up.calls.Load() != 2 || s.Misses != 2 || s.Coalesced != 2 {
		t.Errorf("%d upstream exchanges, stats %+v: want 2 misses and 2 coalesced", up.calls.Load(), s)
	}
	sh := c.shards[0]
	sh.mu.Lock()
	left := len(sh.flights)
	sh.mu.Unlock()
	if left != 0 {
		t.Errorf("%d flights left filed once both landed", left)
	}
	for _, name := range names {
		fq, wire := fastParse(t, dnswire.NewQuery(9, name, dnswire.TypeA))
		if hit, _, ok := c.ServeWire(nil, &fq, nil, 0); !ok || !bytes.Equal(hit, answerTo(t, wire, nil)) {
			t.Errorf("%s: stored entry %x (ok=%v), want its own answer", name, hit, ok)
		}
	}
}

// TestLeaderBufferIsTheLeaders: the leader's reply is written into its
// caller's buffer, which is the caller's again the moment ExchangeQuery
// returns. A leader that scribbles over all of it at once must not reach
// the followers still copying the flight's reply: each gets the upstream's
// bytes under its own ID. Under -race, followers reading the leader's
// buffer are a report.
func TestLeaderBufferIsTheLeaders(t *testing.T) {
	release := make(chan struct{})
	up := &wireUpstream{}
	up.reply = func(_ context.Context, query []byte) ([]byte, error) {
		<-release
		return answerTo(t, query, nil), nil
	}
	c := New(up)
	defer c.Close()
	const followers = 8
	lead, leadWire := fastParse(t, dnswire.NewQuery(0x100, "shared.example.", dnswire.TypeA))
	led := make(chan missResult, 1)
	go func() {
		dst := make([]byte, 0, 512)
		resp, err := c.ExchangeQuery(context.Background(), &lead, dst)
		got := append([]byte(nil), resp...)
		for i := range dst[:cap(dst)] {
			dst[:cap(dst)][i] = 0xFF
		}
		led <- missResult{lead.ID, got, err}
	}()
	waitUntil(t, "the leader's exchange", func() bool { return up.calls.Load() == 1 })
	queries := map[uint16][]byte{lead.ID: leadWire}
	results := make(chan missResult, followers)
	for i := 0; i < followers; i++ {
		fq, wire := fastParse(t, dnswire.NewQuery(uint16(0x200+i), "shared.example.", dnswire.TypeA))
		queries[fq.ID] = wire
		askAsync(c, fq, results)
	}
	waitUntil(t, "every follower to coalesce", func() bool { return c.Stats().Coalesced == followers })
	close(release)
	for i := 0; i <= followers; i++ {
		var r missResult
		if i == 0 {
			r = <-led
		} else {
			r = <-results
		}
		if want := answerTo(t, queries[r.id], nil); r.err != nil || !bytes.Equal(r.resp, want) {
			t.Errorf("caller %#x: err %v, reply\n %x\nwant\n %x", r.id, r.err, r.resp, want)
		}
	}
}

// TestHostileUpstream feeds the cache, through a real stream client, the
// replies an upstream must not be able to plant: none is cached, none that
// is malformed is served, none panics. Replies that are merely
// uncacheable — TC=1, SERVFAIL — are forwarded and not stored.
func TestHostileUpstream(t *testing.T) {
	name := dnswire.Name("victim.example.")
	for _, tc := range []struct {
		name    string
		forge   func(query, good []byte) []byte
		forward bool // the client gets a reply (else an error, SERVFAIL at a server)
	}{
		{"wrong-id", func(_, good []byte) []byte { good[1] ^= 0xFF; return good }, false},
		{"wrong-question", func(_, good []byte) []byte { good[13] ^= 0x01; return good }, false},
		{"no-question", func(query, _ []byte) []byte {
			// A well-formed message that echoes no question: forwarded as
			// the codec re-packs it, never stored under a name it does not
			// carry.
			return answerTo(t, query, func(r *dnswire.Message) { r.Questions = nil })
		}, true},
		{"forward-pointer", func(_, good []byte) []byte {
			good[len(good)-2-len("target")-1-12] = 0xC0 // the answer's owner name…
			good[len(good)-2-len("target")-1-11] = 0xFF // …points past itself
			return good
		}, false},
		{"pointer-loop", func(_, good []byte) []byte {
			// The CNAME target's closing pointer aimed at its own label.
			off := len(good) - 2
			binary.BigEndian.PutUint16(good[off:], 0xC000|uint16(off-1-len("target")))
			return good
		}, false},
		{"truncated-rdata", func(_, good []byte) []byte { return good[:len(good)-3] }, false},
		{"trailing-garbage", func(_, good []byte) []byte { return append(good, 0xDE, 0xAD) }, false},
		{"tc", func(_, good []byte) []byte { good[2] |= 0x02; return good }, true},
		{"servfail", func(query, _ []byte) []byte {
			return answerTo(t, query, func(r *dnswire.Message) { r.Answers, r.RCode = nil, dnswire.RCodeServerFailure })
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			client, server := net.Pipe()
			defer client.Close()
			var served atomic.Int64
			var sent atomic.Pointer[[]byte]
			go func() {
				defer server.Close()
				for {
					query, err := dnsserver.ReadStreamMessageInto(server, make([]byte, 2))
					if err != nil {
						return
					}
					served.Add(1)
					forged := tc.forge(query, answerTo(t, query, nil))
					sent.Store(&forged)
					if dnsserver.WriteStreamMessage(server, forged) != nil {
						return
					}
				}
			}()
			up := dnstransport.NewTCPClient(func(context.Context) (net.Conn, error) { return client, nil })
			c := New(up, WithExchangeTimeout(100*time.Millisecond))
			defer c.Close()

			for i := uint16(1); i <= 2; i++ {
				fq, _ := fastParse(t, dnswire.NewQuery(i, name, dnswire.TypeA))
				resp, err := c.ExchangeQuery(context.Background(), &fq, nil)
				if !tc.forward {
					if err == nil {
						t.Fatalf("query %d: a forged reply was served: %x", i, resp)
					}
					continue
				}
				if err != nil {
					t.Fatalf("query %d: %v", i, err)
				}
				var got, want dnswire.Message
				if err := got.Unpack(resp); err != nil {
					t.Fatalf("query %d: the forwarded reply does not unpack: %v", i, err)
				}
				if err := want.Unpack(*sent.Load()); err != nil {
					t.Fatal(err)
				}
				if got.ID != i || got.RCode != want.RCode || got.Truncated != want.Truncated || len(got.Answers) != len(want.Answers) {
					t.Errorf("query %d: forwarded %s, upstream sent %s", i, &got, &want)
				}
			}
			if c.Len() != 0 {
				t.Errorf("%d entries cached from a hostile upstream", c.Len())
			}
			if got := served.Load(); got != 2 {
				t.Errorf("upstream served %d of 2 queries: the second was answered from somewhere else", got)
			}
		})
	}
}

// Reference implementations: the Message-level rules the cache applied
// before it read packed bytes, kept as the oracle the strict scan is
// fuzzed against.

func oracleCacheable(resp *dnswire.Message) bool {
	return !resp.Truncated && (resp.RCode == dnswire.RCodeSuccess || resp.RCode == dnswire.RCodeNameError)
}

func oracleNegative(resp *dnswire.Message) bool {
	return resp.RCode == dnswire.RCodeNameError ||
		(resp.RCode == dnswire.RCodeSuccess && len(resp.Answers) == 0)
}

func (c *Cache) oracleTTL(resp *dnswire.Message) time.Duration {
	if oracleNegative(resp) {
		for _, rr := range resp.Authorities {
			soa, ok := rr.Data.(*dnswire.SOA)
			if !ok {
				continue
			}
			ttl := time.Duration(min(rr.TTL, soa.Minimum)) * time.Second
			if c.negTTL > 0 && ttl > c.negTTL {
				ttl = c.negTTL
			}
			return ttl
		}
		return c.negTTL
	}
	least := time.Duration(-1)
	for _, section := range [][]dnswire.ResourceRecord{resp.Answers, resp.Authorities} {
		for _, rr := range section {
			if ttl := time.Duration(rr.TTL) * time.Second; least < 0 || ttl < least {
				least = ttl
			}
		}
	}
	if least < 0 {
		return c.negTTL
	}
	return least
}

// fuzzReplies seeds the reply fuzzers with the shapes a cache files
// differently: a compressed positive answer with EDNS, NXDOMAIN and NODATA
// with an SOA, a TC=1 referral, a SERVFAIL, a plain query.
func fuzzReplies(f *testing.F) {
	soa := dnswire.ResourceRecord{Name: "example.org.", Class: dnswire.ClassINET, TTL: 900,
		Data: &dnswire.SOA{MName: "ns.example.org.", RName: "root.example.org.", Serial: 2, Refresh: 1, Retry: 2, Expire: 3, Minimum: 60}}
	question := func(name dnswire.Name, t dnswire.Type) []dnswire.Question {
		return []dnswire.Question{{Name: name, Type: t, Class: dnswire.ClassINET}}
	}
	for _, m := range []*dnswire.Message{
		{ID: 1, Response: true, RecursionAvailable: true, Questions: question("www.example.com.", dnswire.TypeA),
			Answers: []dnswire.ResourceRecord{
				{Name: "www.example.com.", Class: dnswire.ClassINET, TTL: 300, Data: &dnswire.CNAME{Target: "cdn.example.com."}},
				{Name: "cdn.example.com.", Class: dnswire.ClassINET, TTL: 60, Data: &dnswire.A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, 53})}},
			},
			EDNS: &dnswire.EDNS{UDPSize: 1232, DO: true, Options: []dnswire.EDNS0Option{{Code: 12, Data: make([]byte, 7)}}}},
		{ID: 2, Response: true, RCode: dnswire.RCodeNameError, Questions: question("nx.example.org.", dnswire.TypeAAAA),
			Authorities: []dnswire.ResourceRecord{soa}},
		{ID: 3, Response: true, Questions: question("nodata.example.org.", dnswire.TypeTXT),
			Authorities: []dnswire.ResourceRecord{soa}},
		{ID: 4, Response: true, Truncated: true, Questions: question("big.example.", dnswire.TypeA)},
		{ID: 5, Response: true, RCode: dnswire.RCodeServerFailure, Questions: question("fail.example.", dnswire.TypeA)},
		{ID: 6, Response: true, Questions: question("mx.example.", dnswire.TypeMX),
			Answers: []dnswire.ResourceRecord{{Name: "mx.example.", Class: dnswire.ClassINET, TTL: 5,
				Data: &dnswire.MX{Preference: 10, Host: "mail.mx.example."}}},
			Additionals: []dnswire.ResourceRecord{{Name: "mail.mx.example.", Class: dnswire.ClassINET, TTL: 7,
				Data: &dnswire.AAAA{Addr: netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 15: 1})}}}},
		dnswire.NewQuery(7, "query.example.", dnswire.TypeA),
	} {
		wire, err := m.Pack()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
	}
}

// queryFor builds the query a reply claims to answer: a fresh header over
// the reply's own first question. ok=false when the reply carries nothing
// ParseQuery would accept as a question.
func queryFor(reply []byte) (dnswire.Query, bool) {
	if len(reply) < 12 || binary.BigEndian.Uint16(reply[4:]) == 0 {
		return dnswire.Query{}, false
	}
	end := 12
	for end < len(reply) && reply[end] != 0 && reply[end]&0xC0 == 0 {
		end += 1 + int(reply[end])
	}
	if end+5 > len(reply) {
		return dnswire.Query{}, false
	}
	query := append([]byte{0xAB, 0xCD, 0x01, 0x00, 0, 1, 0, 0, 0, 0, 0, 0}, reply[12:end+5]...)
	return dnswire.ParseQuery(query)
}

// FuzzScanResponse proves the strict scan is no more lenient than the
// codec and reads a reply exactly as the cache used to read a Message:
// whatever it accepts, Unpack accepts; the offsets it reports are the TTL
// fields of every record Unpack returns and nothing else; and lifetime,
// negative classification and cacheability agree with the Message-level
// oracle.
func FuzzScanResponse(f *testing.F) {
	fuzzReplies(f)
	c := New(&wireUpstream{}, withNegativeTTL(40*time.Second))
	f.Fuzz(func(t *testing.T, wire []byte) {
		q, ok := queryFor(wire)
		if !ok {
			t.Skip()
		}
		scan, toffs, err := dnswire.ScanResponse(wire, &q, nil)
		if err != nil {
			t.Skip()
		}
		var m dnswire.Message
		if err := m.Unpack(wire); err != nil {
			t.Fatalf("the scan accepted what Unpack rejects: %v", err)
		}
		if err := dnswire.ValidateResponse(&dnswire.Message{ID: m.ID, Questions: []dnswire.Question{
			{Name: dnswire.Name(q.AppendCanonicalName(nil)), Type: q.Type, Class: q.Class}}}, &m); err != nil {
			t.Fatalf("the scan accepted what ValidateResponse rejects: %v", err)
		}
		if got, want := scan.Negative(), oracleNegative(&m); got != want {
			t.Errorf("negative = %v, the Message says %v", got, want)
		}
		if got, want := cacheable(&scan), oracleCacheable(&m); got != want {
			t.Errorf("cacheable = %v, the Message says %v", got, want)
		}
		if got, want := c.ttlOf(&scan), c.oracleTTL(&m); oracleCacheable(&m) && got != want {
			t.Errorf("lifetime = %v, the Message says %v", got, want)
		}
		// Zeroing every reported offset must zero every record's TTL and
		// leave the rest of the message — EDNS flags included — alone.
		zeroed := append([]byte(nil), wire...)
		dnswire.DecayTTLsPacked(zeroed, toffs, 0)
		var z dnswire.Message
		if err := z.Unpack(zeroed); err != nil {
			t.Fatalf("decay through the reported offsets broke the message: %v", err)
		}
		records := 0
		for _, section := range [][]dnswire.ResourceRecord{m.Answers, m.Authorities, m.Additionals} {
			for i := range section {
				section[i].TTL = 0
				records++
			}
		}
		if len(toffs) != 2*records {
			t.Errorf("%d offsets for %d records", len(toffs)/2, records)
		}
		want, err1 := m.Pack()
		got, err2 := z.Pack()
		if err1 != nil || err2 != nil {
			t.Skip() // unpackable but not re-packable (growth past 64 KiB)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("decay through the reported offsets:\n got  %x\n want %x", got, want)
		}
	})
}

// messageUpstream is the pre-wire shape of an upstream: it hands the cache
// a *dnswire.Message — the unpacked reply — and nothing else.
type messageUpstream struct{ reply []byte }

func (u messageUpstream) Exchange(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	m := new(dnswire.Message)
	if err := m.Unpack(u.reply); err != nil {
		return nil, err
	}
	m.ID = q.ID
	return m, nil
}

func (messageUpstream) Close() error { return nil }

// FuzzMissEquivalence is the differential proof behind carrying bytes end
// to end: the same query and the same upstream reply, once through the wire
// miss over a wire upstream and once through the Message adapter over an
// upstream that only speaks Messages — the path every miss used to take —
// give the client byte-identical replies whenever the upstream's encoding
// is the packer's canonical form and Unpack-equal replies otherwise, fail
// together, and leave the two caches in the same state.
func FuzzMissEquivalence(f *testing.F) {
	fuzzReplies(f)
	f.Fuzz(func(t *testing.T, reply []byte) {
		q, ok := queryFor(reply)
		if !ok {
			t.Skip()
		}
		var qm dnswire.Message
		if err := qm.Unpack(q.Raw); err != nil {
			t.Fatalf("ParseQuery accepted what Unpack rejects: %v", err)
		}
		if repacked, err := qm.Pack(); err != nil || !bytes.EqualFold(repacked, q.Raw) {
			t.Skip() // a name the Message form cannot carry (a label holding a dot)
		}
		// Both upstreams answer under the query's ID, as a client delivers
		// a reply (bytes a pointer borrows from the header change with it).
		reply = withID(reply, q.ID)
		if dnswire.ValidateResponseWire(q.Raw, q.ID, reply) != nil {
			t.Skip() // no transport client would deliver it
		}
		var rm dnswire.Message
		if rm.Unpack(reply) == nil {
			if _, err := rm.Pack(); err != nil {
				// Readable but not re-packable (a label holding a dot, growth
				// past 64 KiB): the Message path cannot carry it at all, the
				// wire path may.
				t.Skip()
			}
		}
		now := time.Unix(5000, 0)
		clock := withClock(func() time.Time { return now })
		wireCache := New(&wireUpstream{reply: func(context.Context, []byte) ([]byte, error) { return reply, nil }}, clock)
		msgCache := New(messageUpstream{reply}, clock)

		fast, errW := wireCache.ExchangeQuery(context.Background(), &q, nil)
		msg, errM := msgCache.Exchange(context.Background(), &qm)
		if (errW != nil) != (errM != nil) {
			t.Fatalf("the paths disagree on failure: wire %v, message %v", errW, errM)
		}
		if errW != nil {
			return
		}
		slow, err := msg.Pack()
		if err != nil {
			t.Fatalf("the Message path's reply does not pack: %v", err)
		}
		var unpacked dnswire.Message
		if err := unpacked.Unpack(fast); err != nil {
			t.Fatalf("the wire path served bytes Unpack rejects: %v", err)
		}
		if binary.BigEndian.Uint16(fast) != q.ID {
			t.Errorf("wire reply ID %#x, want the query's %#x", binary.BigEndian.Uint16(fast), q.ID)
		}
		canonical, err := unpacked.Pack()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canonical, slow) {
			t.Errorf("replies are not Unpack-equal:\n wire    %x\n message %x", canonical, slow)
		}
		isCanonical := bytes.Equal(reply, slow)
		if isCanonical && !bytes.Equal(fast, slow) {
			t.Errorf("canonical upstream bytes were not served verbatim:\n wire    %x\n message %x", fast, slow)
		}
		ws, ms := wireCache.Stats(), msgCache.Stats()
		if !isCanonical {
			// Verbatim storage holds the upstream's encoding, which may
			// compress less than the packer's.
			ws.BytesLive, ms.BytesLive = 0, 0
		}
		if ws != ms || wireCache.Len() != msgCache.Len() {
			t.Errorf("cache state diverged: wire %+v (%d entries), message %+v (%d entries)", ws, wireCache.Len(), ms, msgCache.Len())
		}
		// The entries, where stored, live equally long and classify alike.
		now = now.Add(time.Second)
		hitW, outW, okW := wireCache.ServeWire(nil, &q, nil, 0)
		hitM, outM, okM := msgCache.ServeWire(nil, &q, nil, 0)
		if okW != okM || outW != outM {
			t.Fatalf("stored entries differ: wire hit=%v %v, message hit=%v %v", okW, outW, okM, outM)
		}
		if okW {
			var a, b dnswire.Message
			if a.Unpack(hitW) != nil || b.Unpack(hitM) != nil {
				t.Fatal("a stored entry does not unpack")
			}
			pa, _ := a.Pack()
			pb, _ := b.Pack()
			if !bytes.Equal(pa, pb) {
				t.Errorf("hits are not Unpack-equal:\n wire    %x\n message %x", pa, pb)
			}
		}
	})
}

func withID(wire []byte, id uint16) []byte {
	out := append([]byte(nil), wire...)
	dnswire.PatchID(out, id)
	return out
}
