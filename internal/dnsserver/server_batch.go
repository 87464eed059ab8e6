package dnsserver

// The UDP serve loop, the batch adapter over the serving core. One
// goroutine per shard socket pulls up to a batch of datagrams in a single
// read (recvmmsg on a kernel-batched conn, one datagram on the portable
// fallback), answers every cache hit into a per-shard flush buffer, and
// flushes the replies in a single write — so under load the syscall cost of
// the fast path is amortized over tens of datagrams. Misses and
// unparseable packets peel off to the server's bounded slow steps.

import (
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dohcost/internal/dnswire"
	"dohcost/internal/guard"
	"dohcost/internal/qtrace"
	"dohcost/internal/telemetry"
	"dohcost/internal/udpio"
)

// DefaultBatch is the read/write vector size ServeBatch uses when the
// caller passes batch<=0 — large enough to amortize syscalls under load,
// small enough that a batch of full read windows stays cache-warm.
const DefaultBatch = 32

// BatchSizeBuckets labels the datagrams-per-read histogram's buckets,
// index-aligned with UDPShardStats.BatchSizes: powers of two from 1 to the
// 64 of udpio.MaxBatch.
var BatchSizeBuckets = [...]string{"1", "2-3", "4-7", "8-15", "16-31", "32-63", "64+"}

// batchBucket maps a read's datagram count to its BatchSizeBuckets index.
func batchBucket(n int) int {
	b := 0
	for n > 1 && b < len(BatchSizeBuckets)-1 {
		n >>= 1
		b++
	}
	return b
}

// shardCounters is one shard socket's serving counters, written by its
// serve goroutine and read concurrently by ShardStats.
type shardCounters struct {
	reads        atomic.Uint64
	datagrams    atomic.Uint64
	batchSizes   [len(BatchSizeBuckets)]atomic.Uint64
	fastHits     atomic.Uint64
	slowPath     atomic.Uint64
	guardDropped atomic.Uint64
	oversize     atomic.Uint64
	spills       atomic.Uint64
	flushes      atomic.Uint64
	flushed      atomic.Uint64
}

// UDPShardStats is a point-in-time snapshot of one shard socket's
// counters, exported in /debug/cost.
type UDPShardStats struct {
	// Shard is the socket's index in the listen vector.
	Shard int `json:"shard"`
	// Reads counts batched read syscalls; Datagrams the datagrams they
	// returned — their ratio is this shard's datagrams per syscall.
	Reads     uint64 `json:"reads"`
	Datagrams uint64 `json:"datagrams"`
	// BatchSizes is the datagrams-per-read histogram: reads that returned
	// a count in each BatchSizeBuckets bucket.
	BatchSizes [len(BatchSizeBuckets)]uint64 `json:"batch_size_reads"`
	// FastHits were answered inline from the batch loop; SlowPath were
	// handed to a slow step (cache miss, unparseable, or a shape the wire
	// path declines);
	// GuardDropped were consumed by the abuse guard before reaching either
	// (silently dropped or answered with a minimal TC=1 slip); Oversize
	// were longer than the read window (maxUDPQuery octets) and answered
	// with a TC=1 echo of their header and question, sending the client to
	// TCP. Every read datagram lands in exactly one of the four, so
	// Datagrams == FastHits + SlowPath + GuardDropped + Oversize — guard-
	// limited datagrams still count in BatchSizes, which samples at read
	// time.
	FastHits     uint64 `json:"fast_hits"`
	SlowPath     uint64 `json:"slow_path"`
	GuardDropped uint64 `json:"guard_dropped"`
	Oversize     uint64 `json:"oversize"`
	// Spills counts slow-path hand-offs that had to start a goroutine: each
	// a new high-water mark of slow steps in flight, at most their bound.
	Spills uint64 `json:"spills"`
	// Flushes counts batched write syscalls; FlushedDatagrams the
	// responses they carried.
	Flushes          uint64 `json:"flushes"`
	FlushedDatagrams uint64 `json:"flushed_datagrams"`
}

// ShardStats snapshots the per-shard counters of a running (or finished)
// ServeBatch; nil before ServeBatch installs them.
func (s *UDPServer) ShardStats() []UDPShardStats {
	scs := s.shardStats.Load()
	if scs == nil {
		return nil
	}
	out := make([]UDPShardStats, len(*scs))
	for i := range *scs {
		sc := &(*scs)[i]
		out[i] = UDPShardStats{
			Shard:            i,
			Reads:            sc.reads.Load(),
			Datagrams:        sc.datagrams.Load(),
			FastHits:         sc.fastHits.Load(),
			SlowPath:         sc.slowPath.Load(),
			GuardDropped:     sc.guardDropped.Load(),
			Oversize:         sc.oversize.Load(),
			Spills:           sc.spills.Load(),
			Flushes:          sc.flushes.Load(),
			FlushedDatagrams: sc.flushed.Load(),
		}
		for b := range sc.batchSizes {
			out[i].BatchSizes[b] = sc.batchSizes[b].Load()
		}
	}
	return out
}

// ServeBatch serves conns until they close, one batch loop per shard
// socket, sharing one bounded set of slow steps. batch<=0 means
// DefaultBatch; values above udpio.MaxBatch are clamped. Every in-flight
// handler's context is cancelled when the loop exits. The first persistent
// socket error shuts every shard down and is returned.
func (s *UDPServer) ServeBatch(conns []udpio.BatchConn, batch int) error {
	if len(conns) == 0 {
		return errors.New("dnsserver: ServeBatch needs at least one conn")
	}
	if batch <= 0 {
		batch = DefaultBatch
	}
	if batch > udpio.MaxBatch {
		batch = udpio.MaxBatch
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	c := newCore(s.Handler, s.Telemetry, telemetry.ProtoUDP)
	limit := s.maxSlowSteps
	if limit <= 0 {
		limit = 36 * runtime.GOMAXPROCS(0)
	}
	steps := newSlowSteps(limit, ctx, func(st *slowStep) { s.serveSlow(&c, st) })

	scs := make([]shardCounters, len(conns))
	s.shardStats.Store(&scs)

	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for i, conn := range conns {
		wg.Add(1)
		go func(conn udpio.BatchConn, sc *shardCounters) {
			defer wg.Done()
			if err := s.serveShard(conn, batch, &c, steps, sc); err != nil {
				// The socket is persistently broken: closing every shard
				// unblocks its peers, so the loop fails fast with the first
				// error instead of limping at reduced capacity.
				errOnce.Do(func() {
					firstErr = err
					for _, cc := range conns {
						cc.Close()
					}
				})
			}
		}(conn, &scs[i])
	}
	wg.Wait()
	// Shards are done: cancel in-flight handler contexts before waiting for
	// the slow steps so shutdown is never held hostage by a slow upstream.
	cancel()
	steps.stop()
	return firstErr
}

// maxUDPQuery is the longest datagram the batch loop reads whole. DNS
// queries are a few hundred octets; a longer datagram is answered with a
// TC=1 echo, which sends its client to TCP, where any size is served.
const maxUDPQuery = 4096

// flushBufLen is the write side's flush buffer: a 65 535-octet EDNS reply
// still fits in it alone, and ordinary replies pack hundreds to a flush.
const flushBufLen = 64 << 10

// minReplyRoom is the least free tail a hit is packed into: the classic
// 512-octet UDP message. With less left, the replies queued so far are
// flushed first; a hit longer than the tail it was given is flushed at once.
const minReplyRoom = 512

// echoRoom bounds a header-and-question echo of query — a guard slip, an
// oversize datagram's TC=1: the echo never outgrows the query but by the
// guard's cookie OPT (root name, type, class, TTL, RDLEN: 11 octets; option
// header: 4; client and server cookie: 24).
func echoRoom(query []byte) int { return len(query) + 11 + 4 + 24 }

// batchVec is one shard's reusable read and write state. The read vector's
// slots are windows of one allocation, maxUDPQuery+1 octets each: a
// datagram that fills its window is longer than maxUDPQuery, whether the
// kernel (recvmmsg) or the per-packet fallback cut it. Replies are appended
// one after another into one flush buffer, every slot of the write vector
// a subslice of it, and flushed early when the buffer runs short.
type batchVec struct {
	conn    udpio.BatchConn
	sc      *shardCounters
	tracing bool // this batch's: spans for the flush

	ms    []udpio.Message
	out   []udpio.Message
	flush []byte // the flush buffer; flush[:used] holds the queued replies
	used  int
	txs   []*telemetry.Transaction
}

func newBatchVec(conn udpio.BatchConn, sc *shardCounters, batch int) *batchVec {
	v := &batchVec{
		conn:  conn,
		sc:    sc,
		ms:    make([]udpio.Message, batch),
		out:   make([]udpio.Message, batch),
		flush: make([]byte, flushBufLen),
		txs:   make([]*telemetry.Transaction, 0, batch),
	}
	rbuf := make([]byte, batch*(maxUDPQuery+1))
	for i := range v.ms {
		v.ms[i].Buf = rbuf[i*(maxUDPQuery+1) : (i+1)*(maxUDPQuery+1) : (i+1)*(maxUDPQuery+1)]
	}
	return v
}

// serveShard runs one socket's read→answer→flush loop until the conn
// closes or persistently errors.
func (s *UDPServer) serveShard(conn udpio.BatchConn, batch int, c *core, steps *slowSteps, sc *shardCounters) error {
	if !conn.Batched() {
		// The portable fallback returns one datagram per read; a longer
		// vector would only pin read windows it can never fill.
		batch = 1
	}
	v := newBatchVec(conn, sc, batch)
	var q dnswire.Query // per shard: &q escapes into the WireResponder call
	consecutive := 0
	for {
		n, err := conn.ReadBatch(v.ms)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			// Transient read errors (ICMP-induced, momentary resource
			// pressure) must not kill a reader: retry with a small pause,
			// give up only when the socket looks persistently broken.
			consecutive++
			if consecutive >= maxReadRetries {
				return err
			}
			time.Sleep(readRetryPause)
			continue
		}
		consecutive = 0
		sc.reads.Add(1)
		sc.datagrams.Add(uint64(n))
		sc.batchSizes[batchBucket(n)].Add(1)
		tracing := s.Telemetry.Tracing()
		v.tracing = tracing

		// Answer the batch: fast-path hits pack into the flush buffer,
		// everything else peels off to a slow step.
		for i := 0; i < n; i++ {
			pkt := v.ms[i].Buf[:v.ms[i].N]
			var tGuard time.Time
			var cookieOwed bool
			var gkey uint64
			if s.Guard != nil {
				if tracing {
					tGuard = time.Now()
				}
				gkey = guard.ClientKey(v.ms[i].Addr)
				var a guard.Action
				a, cookieOwed = s.Guard.CheckUDP(gkey, pkt)
				switch a {
				case guard.ActionDrop:
					sc.guardDropped.Add(1)
					continue
				case guard.ActionSlip:
					// The slip rides the flush buffer like a fast hit, with a
					// nil transaction slot (guard decisions are counted in
					// guard metrics, not as served queries).
					if resp, ok := s.Guard.AppendLimited(v.room(echoRoom(pkt)), pkt, gkey, guard.ActionSlip); ok {
						v.queue(resp, v.ms[i].Addr, nil)
					}
					sc.guardDropped.Add(1)
					continue
				}
			}
			if len(pkt) > maxUDPQuery {
				// Cut off: what is left is the header and, in any real query,
				// the question. Echo them with TC=1 and no OPT — the
				// additional section is gone — so the client asks over TCP.
				sc.oversize.Add(1)
				if qend, ok := dnswire.QuestionEnd(pkt); ok {
					v.queue(dnswire.AppendEcho(v.room(echoRoom(pkt)), pkt, qend, dnswire.RCodeSuccess, true), v.ms[i].Addr, nil)
				}
				continue
			}
			tx, ok := c.parse(&q, pkt, tGuard)
			if ok {
				limit := s.udpLimit(q.HasEDNS, q.UDPSize)
				if resp, handled := c.serveWire(tx, &q, v.room(minReplyRoom), limit); handled {
					sc.fastHits.Add(1)
					if cookieOwed {
						// The server cookie grows the reply where it lies.
						var err error
						if resp, err = s.fit(resp[:0], resp, pkt, limit, gkey); err != nil {
							tx.SetVerdict(telemetry.VerdictServFail)
							tx.Finish()
							continue
						}
					}
					v.queue(resp, v.ms[i].Addr, tx)
					continue
				}
			}
			s.batchHandoff(conn, &v.ms[i], tx, &q, gkey, steps, sc)
		}
		v.flushOut()
	}
}

// room returns the flush buffer's whole free tail, empty with at least need
// octets of capacity: when less is left, the replies queued so far are
// flushed first.
func (v *batchVec) room(need int) []byte {
	if len(v.flush)-v.used < need {
		v.flushOut()
	}
	return v.flush[v.used:v.used]
}

// queue claims the write vector's next slot for resp, packed at the flush
// buffer's free tail — or, when it was longer than the tail it was given, in
// storage of its own, which the slot then points at instead. That storage
// is only good until the next query is answered, and a tail too short for
// this reply is likely short for the next, so the batch so far is flushed
// at once. Replies
// flush before the next ReadBatch, so sharing the read vector's addr is
// safe.
func (v *batchVec) queue(resp []byte, addr net.Addr, tx *telemetry.Transaction) {
	inBuf := len(resp) > 0 && v.used < len(v.flush) && &resp[0] == &v.flush[v.used]
	if inBuf {
		v.used += len(resp)
	}
	v.out[len(v.txs)] = udpio.Message{Buf: resp, N: len(resp), Addr: addr}
	v.txs = append(v.txs, tx)
	if !inBuf {
		v.flushOut()
	}
}

// flushOut sends the queued replies in one sendmmsg and empties the flush
// buffer. A write error is not fatal to the shard (the kernel can refuse
// one destination); the affected clients retry, like any dropped datagram.
func (v *batchVec) flushOut() {
	nw := len(v.txs)
	if nw == 0 {
		return
	}
	// Traced hits share the flush interval: every reply in the vector left
	// in the same sendmmsg, so each transaction's write span is the batched
	// syscall itself.
	var tFlush time.Time
	if v.tracing {
		tFlush = time.Now()
	}
	v.conn.WriteBatch(v.out[:nw])
	v.sc.flushes.Add(1)
	v.sc.flushed.Add(uint64(nw))
	var flushEnd time.Time
	if v.tracing {
		flushEnd = time.Now()
	}
	for _, tx := range v.txs {
		tx.TraceSpanBetween(qtrace.PhaseWrite, tFlush, flushEnd)
		tx.Finish()
	}
	v.txs, v.used = v.txs[:0], 0
}

// batchHandoff hands one datagram of the read vector to a slow step, which
// copies the query's bytes and the source address out of the vector. tx is
// the transaction a declined hit step already began, or nil, q the view it
// left over the datagram, and gkey the client's guard key, if guarded.
func (s *UDPServer) batchHandoff(conn udpio.BatchConn, m *udpio.Message, tx *telemetry.Transaction, q *dnswire.Query, gkey uint64, steps *slowSteps, sc *shardCounters) {
	sc.slowPath.Add(1)
	if steps.dispatch(tx, q, conn, m.Addr, gkey) {
		sc.spills.Add(1)
	}
}
