package main

import (
	"encoding/binary"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"dohcost/internal/dnswire"
)

// epoch anchors the monotonic clock every lane timestamps with.
var epoch = time.Now()

func nanotime() int64 { return int64(time.Since(epoch)) }

// link is the thin transport under a lane. send transmits the query held
// in a slot; each reply comes back through lane.onReply (UDP and streams)
// or lane.complete (DoH, which also reports transport failures).
type link interface {
	send(q []byte) error
	// bytes is what the client socket has written plus read so far.
	bytes() uint64
	close()
}

// slot is one in-flight query. Its index is the low octet of the DNS ID
// and gen the high octet, so a reply names its slot and a reply that
// outlived its query names a generation that is gone.
type slot struct {
	// state is gen<<1 | inflight. Whoever clears the inflight bit with a
	// compare-and-swap — the reader on a reply, the sender on expiry —
	// owns the slot's completion.
	state atomic.Uint32
	due   int64 // intended send time, nanotime
	idx   int32 // open-phase arrival index, or -1
	n     int
	buf   [slotBufLen]byte
}

// slotBufLen holds the longest generated query.
const slotBufLen = 96

const failedLatency = ^uint32(0)

// phase is what a lane does between two barriers.
type phase struct {
	open     []arrival // nil for a closed-loop phase
	picks    []pick    // closed-loop name cycle
	window   int
	duration time.Duration
	record   bool // false for the discarded warm-up
	start    int64
	// Open phase, per arrival: latency in ns charged from the intended
	// send time (failedLatency for a failure), and how late the generator
	// actually sent it.
	lat, late  []uint32
	backlogMax int
	// Closed phase: verified replies per second of the phase.
	perSecond []atomic.Uint32
}

// lane is one client connection with its pipelining window.
type lane struct {
	in      *inputs
	link    link
	timeout time.Duration
	slots   [openWindow]slot
	tokens  chan uint8 // free slot indexes
	pace    *pacer
	expiry  *time.Ticker  // paces the timeout scan while acquire waits
	seq     uint64        // never-repeated name counter
	checked atomic.Uint32 // replies verified, to pick the fully unpacked ones
	ph      *phase

	attempted, failed atomic.Uint64
}

func newLane(index int, in *inputs, timeout time.Duration) (*lane, error) {
	pace, err := newPacer()
	if err != nil {
		return nil, err
	}
	return &lane{in: in, timeout: timeout, seq: uint64(index), pace: pace,
		expiry: time.NewTicker(timeout/8 + time.Millisecond),
		tokens: make(chan uint8, openWindow)}, nil
}

func (l *lane) close() {
	if l.link != nil {
		l.link.close()
	}
	l.expiry.Stop()
	l.pace.close()
}

// run executes one phase on the caller's goroutine and returns once every
// query it sent has completed or expired.
func (l *lane) run(ph *phase) {
	l.ph = ph
	for i := 0; i < ph.window; i++ {
		l.tokens <- uint8(i)
	}
	ph.start = nanotime()
	if ph.open != nil {
		l.runOpen(ph)
	} else {
		l.runClosed(ph)
	}
	// Drain: collect every token back, expiring what never answers.
	for got := 0; got < ph.window; got++ {
		l.acquire()
	}
}

func (l *lane) runOpen(ph *phase) {
	dueIdx := 0
	for i, a := range ph.open {
		due := ph.start + a.at
		if d := due - nanotime(); d > 0 {
			l.pace.sleep(time.Duration(d))
		}
		tok := l.acquire()
		now := nanotime()
		ph.late[i] = clampNS(now - due)
		for dueIdx < len(ph.open) && ph.start+ph.open[dueIdx].at <= now {
			dueIdx++
		}
		if b := dueIdx - i - 1; b > ph.backlogMax {
			ph.backlogMax = b
		}
		l.issue(tok, a.p, due, int32(i))
	}
}

func (l *lane) runClosed(ph *phase) {
	end := ph.start + int64(ph.duration)
	for i := 0; ; i++ {
		tok := l.acquire()
		now := nanotime()
		if now >= end {
			l.tokens <- tok
			return
		}
		l.issue(tok, ph.picks[i%len(ph.picks)], now, -1)
	}
}

// acquire takes a free slot, expiring timed-out queries while it waits.
func (l *lane) acquire() uint8 {
	select {
	case t := <-l.tokens:
		return t
	default:
	}
	for {
		select {
		case t := <-l.tokens:
			return t
		case <-l.expiry.C:
			now := nanotime()
			for i := 0; i < l.ph.window; i++ {
				s := &l.slots[i]
				st := s.state.Load()
				if st&1 == 1 && now-s.due > int64(l.timeout) && s.state.CompareAndSwap(st, st&^1) {
					l.finish(s, false, now)
					l.tokens <- uint8(i)
				}
			}
		}
	}
}

func (l *lane) issue(tok uint8, p pick, due int64, idx int32) {
	s := &l.slots[tok]
	s.n = l.in.fill(s.buf[:], p, &l.seq)
	gen := (s.state.Load()>>1 + 1) & 0xFF
	binary.BigEndian.PutUint16(s.buf[:], uint16(gen<<8)|uint16(tok))
	s.due, s.idx = due, idx
	s.state.Store(gen<<1 | 1)
	if l.ph.record {
		l.attempted.Add(1)
	}
	if err := l.link.send(s.buf[:s.n]); err != nil {
		if s.state.CompareAndSwap(gen<<1|1, gen<<1) {
			l.finish(s, false, nanotime())
			l.tokens <- tok
		}
	}
}

// onReply routes a reply to its slot by DNS ID. A reply whose slot has
// moved on (it expired, or was answered twice) is dropped: its query was
// already counted.
func (l *lane) onReply(r []byte) {
	if len(r) < 12 {
		return
	}
	l.complete(binary.BigEndian.Uint16(r), r)
}

// complete finishes the query sent with DNS ID id, with reply r (nil: the
// transport failed it). Called from the link's reader goroutines.
func (l *lane) complete(id uint16, r []byte) {
	tok := uint8(id)
	s := &l.slots[tok]
	st := s.state.Load()
	if st != uint32(id>>8)<<1|1 {
		return
	}
	if !s.state.CompareAndSwap(st, st&^1) {
		return
	}
	ok := r != nil && l.verify(s.buf[:s.n], r)
	l.finish(s, ok, nanotime())
	l.tokens <- tok
}

// finish records one completed query. The caller owns the slot.
func (l *lane) finish(s *slot, ok bool, now int64) {
	ph := l.ph
	if !ph.record {
		return
	}
	lat := now - s.due
	if lat > int64(l.timeout) {
		ok = false
	}
	if !ok {
		l.failed.Add(1)
	}
	switch {
	case s.idx >= 0:
		if ok {
			ph.lat[s.idx] = clampNS(lat)
		} else {
			ph.lat[s.idx] = failedLatency
		}
	case ok:
		if sec := int((now - ph.start) / int64(time.Second)); sec < len(ph.perSecond) {
			ph.perSecond[sec].Add(1)
		}
	}
}

func clampNS(d int64) uint32 {
	if d < 0 {
		return 0
	}
	if d >= int64(failedLatency) {
		return failedLatency - 1
	}
	return uint32(d)
}

// verify checks reply r against query q: ID, QR, RCODE, the answer count
// and first address the name derives — cheaply on the wire for every
// reply, and by a full Unpack for one in verifyEvery.
func (l *lane) verify(q, r []byte) bool {
	if r[0] != q[0] || r[1] != q[1] || r[2]&0x80 == 0 || r[3]&0x0F != 0 {
		return false
	}
	var nb [80]byte
	name := nb[:0]
	off := 12
	for off < len(q) && q[off] != 0 {
		n := int(q[off])
		name = append(append(name, q[off+1:off+1+n]...), '.')
		off += 1 + n
	}
	first, count := answersFor(name)
	if int(binary.BigEndian.Uint16(r[6:])) != count {
		return false
	}
	// The reply echoes the question verbatim, so the answer section starts
	// where the query's question ends.
	off += 1 + 4
	if off >= len(r) {
		return false
	}
	if r[off]&0xC0 == 0xC0 {
		off += 2
	} else {
		for off < len(r) && r[off] != 0 {
			off += 1 + int(r[off])
		}
		off++
	}
	if off+14 > len(r) || binary.BigEndian.Uint16(r[off:]) != uint16(dnswire.TypeA) ||
		binary.BigEndian.Uint16(r[off+8:]) != 4 || [4]byte(r[off+10:off+14]) != first {
		return false
	}
	if l.checked.Add(1)%verifyEvery != 0 {
		return true
	}
	var m dnswire.Message
	if m.Unpack(r) != nil || !m.Response || m.RCode != dnswire.RCodeSuccess ||
		len(m.Answers) != count || string(m.Question1().Name) != string(name) {
		return false
	}
	for i, rr := range m.Answers {
		want := first
		want[3] += byte(i)
		if a, ok := rr.Data.(*dnswire.A); !ok || a.Addr != netip.AddrFrom4(want) {
			return false
		}
	}
	return true
}

// runPhase runs ph on every lane at once and waits for all of them.
func runPhase(ls []*lane, phs []*phase) {
	var wg sync.WaitGroup
	for i, l := range ls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.run(phs[i])
		}()
	}
	wg.Wait()
}
