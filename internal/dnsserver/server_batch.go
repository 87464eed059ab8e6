package dnsserver

// The UDP serve loop, the batch adapter over the serving core. One
// goroutine per shard socket pulls up to a batch of datagrams in a single
// read (recvmmsg on a kernel-batched conn, one datagram on the portable
// fallback), answers every cache hit into a per-shard response vector, and
// flushes the vector in a single write — so under load the syscall cost of
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
// small enough that a batch of maximum-size messages stays cache-warm.
const DefaultBatch = 32

// shardCounters is one shard socket's serving counters, written by its
// serve goroutine and read concurrently by ShardStats.
type shardCounters struct {
	reads        atomic.Uint64
	datagrams    atomic.Uint64
	fastHits     atomic.Uint64
	slowPath     atomic.Uint64
	guardDropped atomic.Uint64
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
	// FastHits were answered inline from the batch loop; SlowPath were
	// handed to a slow step (cache miss, unparseable, a shape the wire
	// path declines, or a reply owing its client a server cookie);
	// GuardDropped were consumed by the abuse guard before reaching either
	// (silently dropped or answered with a minimal TC=1 slip). Every read
	// datagram lands in exactly one of the three, so Datagrams == FastHits
	// + SlowPath + GuardDropped — guard-limited datagrams still count in
	// the batch-size histogram, which samples at read time.
	FastHits     uint64 `json:"fast_hits"`
	SlowPath     uint64 `json:"slow_path"`
	GuardDropped uint64 `json:"guard_dropped"`
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
			Spills:           sc.spills.Load(),
			Flushes:          sc.flushes.Load(),
			FlushedDatagrams: sc.flushed.Load(),
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
	steps := newSlowSteps(limit, func(st *slowStep) { s.serveSlow(ctx, &c, st) })

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

// batchVec is one shard's reusable read and write state: every slot of
// the read vector owns a pooled buffer datagrams are read into (a slow step
// takes its own copy of the query), and every slot of the write vector owns
// a pooled buffer responses are packed into.
type batchVec struct {
	ms    []udpio.Message
	bufs  []*[]byte
	out   []udpio.Message
	obufs []*[]byte
	txs   []*telemetry.Transaction
}

func newBatchVec(batch int) *batchVec {
	v := &batchVec{
		ms:    make([]udpio.Message, batch),
		bufs:  make([]*[]byte, batch),
		out:   make([]udpio.Message, batch),
		obufs: make([]*[]byte, batch),
		txs:   make([]*telemetry.Transaction, 0, batch),
	}
	for i := 0; i < batch; i++ {
		v.bufs[i] = getBuf()
		v.ms[i].Buf = *v.bufs[i]
		v.obufs[i] = getBuf()
	}
	return v
}

// release returns every pooled buffer.
func (v *batchVec) release() {
	for i := range v.bufs {
		putBuf(v.bufs[i])
		putBuf(v.obufs[i])
	}
}

// serveShard runs one socket's read→answer→flush loop until the conn
// closes or persistently errors.
func (s *UDPServer) serveShard(conn udpio.BatchConn, batch int, c *core, steps *slowSteps, sc *shardCounters) error {
	if !conn.Batched() {
		// The portable fallback returns one datagram per read; a longer
		// vector would only pin pooled buffers it can never fill.
		batch = 1
	}
	v := newBatchVec(batch)
	defer v.release()
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
		s.Telemetry.ObserveUDPBatch(n)
		sc.reads.Add(1)
		sc.datagrams.Add(uint64(n))
		tracing := s.Telemetry.Tracing()

		// Answer the batch: fast-path hits pack into the write vector,
		// everything else peels off to a slow step.
		v.txs = v.txs[:0]
		for i := 0; i < n; i++ {
			pkt := v.ms[i].Buf[:v.ms[i].N]
			dst := (*v.obufs[len(v.txs)])[:0] // the write vector's next free slot
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
					// The slip rides the batch's write vector like a fast
					// hit, with a nil transaction slot (guard decisions are
					// counted in guard metrics, not as served queries).
					if resp, ok := s.Guard.AppendLimited(dst, pkt, gkey, guard.ActionSlip); ok {
						v.queue(len(resp), v.ms[i].Addr, nil)
					}
					sc.guardDropped.Add(1)
					continue
				}
			}
			// A reply that owes its client a server cookie is the slow step's
			// to build, hit or not: the echo lives in UDP's fit.
			tx, ok := c.parse(&q, pkt, tGuard)
			if ok && !cookieOwed {
				if resp, handled := c.serveWire(tx, &q, dst, s.udpLimit(q.HasEDNS, q.UDPSize)); handled {
					v.queue(len(resp), v.ms[i].Addr, tx)
					sc.fastHits.Add(1)
					continue
				}
			}
			s.batchHandoff(conn, &v.ms[i], tx, &q, gkey, steps, sc)
		}

		// One sendmmsg for the whole batch of hits. A write error is not
		// fatal to the shard (the kernel can refuse one destination);
		// the affected clients retry, like any dropped datagram.
		if nw := len(v.txs); nw > 0 {
			// Traced hits share the flush interval: every response in the
			// vector left in the same sendmmsg, so each transaction's write
			// span is the batched syscall itself.
			var tFlush time.Time
			if tracing {
				tFlush = time.Now()
			}
			conn.WriteBatch(v.out[:nw])
			sc.flushes.Add(1)
			sc.flushed.Add(uint64(nw))
			var flushEnd time.Time
			if tracing {
				flushEnd = time.Now()
			}
			for _, tx := range v.txs {
				tx.TraceSpanBetween(qtrace.PhaseWrite, tFlush, flushEnd)
				tx.Finish()
			}
		}
	}
}

// queue claims the write vector's next free slot — one per entry of txs —
// for the n-octet response packed in that slot's own buffer. Responses
// flush before the next ReadBatch, so sharing the read vector's addr is
// safe.
func (v *batchVec) queue(n int, addr net.Addr, tx *telemetry.Transaction) {
	nw := len(v.txs)
	v.out[nw] = udpio.Message{Buf: *v.obufs[nw], N: n, Addr: addr}
	v.txs = append(v.txs, tx)
}

// batchHandoff hands one datagram of the read vector to a slow step, which
// copies the query's bytes and the source address out of the vector. tx is
// the transaction a declined hit step already began, or nil, q the view it
// parsed, or the zero Query, and gkey the client's guard key, if guarded.
func (s *UDPServer) batchHandoff(conn udpio.BatchConn, m *udpio.Message, tx *telemetry.Transaction, q *dnswire.Query, gkey uint64, steps *slowSteps, sc *shardCounters) {
	sc.slowPath.Add(1)
	if steps.dispatch(tx, q, m.Buf[:m.N], conn, m.Addr, gkey) {
		s.Telemetry.UDPSpill()
		sc.spills.Add(1)
	}
}
