package dnsserver

import (
	"context"
	"net"
	"sync"

	"dohcost/internal/dnswire"
	"dohcost/internal/telemetry"
	"dohcost/internal/udpio"
)

// slowStep is one query's slow step running aside of the read loop that
// received it — the one slot the UDP batch loop and out-of-order stream
// connections both hand a query over in. The read loop reuses its buffer
// and its view at once, so the slot carries its own copy of both. Slot,
// copy storage, the query's context and the goroutine that runs it are
// recycled together (see slowSteps): a hand-off allocates nothing, nothing
// pooled waits out the handler.
type slowStep struct {
	set  *slowSteps
	wake chan struct{} // the slot's goroutine parks here between queries
	// ctx is the query's context: the slow steps' parent — the server's, or
	// the connection's — carrying the transaction while a step runs.
	ctx telemetry.QueryContext

	tx   *telemetry.Transaction // begun by the hit step, or nil
	q    dnswire.Query          // the view it left, over wire
	wire []byte                 // the query

	// UDP only: the socket, the source — a value of the slot's own when a
	// batch reader would rewrite it in place — and the client's guard key.
	w    udpio.BatchConn
	from net.Addr
	ua   net.UDPAddr
	ip   [net.IPv6len]byte
	gkey uint64
}

// slowSteps owns the slow steps of one UDP server or one stream connection.
// It bounds how many are in flight — beyond the bound dispatch blocks, so
// the read loop stops reading and a flooding client back-pressures itself —
// and keeps finished slots parked, goroutine and all, for the next query:
// made as concurrency first demands them, living until stop.
type slowSteps struct {
	ctx    context.Context // the parent of every slot's context
	serve  func(*slowStep) // the adapter's slow step: answer, frame, write, Finish
	live   chan struct{}   // a semaphore: one token per slow step in flight
	parked chan *slowStep  // idle slots; room for the bound's worth, all there can be
	wg     sync.WaitGroup  // the slots' goroutines
}

func newSlowSteps(limit int, ctx context.Context, serve func(*slowStep)) *slowSteps {
	return &slowSteps{ctx: ctx, serve: serve, live: make(chan struct{}, limit), parked: make(chan *slowStep, limit)}
}

// dispatch runs the slow step for the query in q.Raw, with the transaction
// and view the hit step left, aside of the calling read loop, waiting while
// the bound's worth are in flight; w, from and gkey are UDP's. It reports
// whether it had to start a goroutine: no parked slot was free.
func (p *slowSteps) dispatch(tx *telemetry.Transaction, q *dnswire.Query, w udpio.BatchConn, from net.Addr, gkey uint64) (started bool) {
	p.live <- struct{}{}
	var st *slowStep
	select {
	case st = <-p.parked:
	default:
		st = &slowStep{set: p, wake: make(chan struct{}, 1), ctx: telemetry.QueryContext{Context: p.ctx}}
		p.wg.Add(1)
		go st.run()
		started = true
	}
	st.tx, st.q, st.wire = tx, *q, append(st.wire[:0], q.Raw...)
	st.q.Raw = st.wire
	st.w, st.from, st.gkey = w, from, gkey
	if ua, ok := from.(*net.UDPAddr); ok {
		st.ua = net.UDPAddr{IP: append(st.ip[:0], ua.IP...), Port: ua.Port, Zone: ua.Zone}
		st.from = &st.ua
	}
	st.wake <- struct{}{}
	return started
}

// run is the slot's goroutine: one slow step per wake-up, until stop.
func (st *slowStep) run() {
	p := st.set
	defer p.wg.Done()
	for range st.wake {
		p.serve(st)
		st.tx, st.q, st.w, st.from = nil, dnswire.Query{}, nil, nil
		if cap(st.wire) > 1024 {
			st.wire = nil // an unusually long query does not stay resident
		}
		// Park before giving the token back: the reader it unblocks finds this
		// slot, so slots never outnumber tokens and this send never blocks.
		p.parked <- st
		<-p.live
	}
}

// stop waits for the slow steps in flight — the caller has cancelled their
// context and dispatches no more — and ends the parked goroutines.
func (p *slowSteps) stop() {
	for i := 0; i < cap(p.live); i++ {
		p.live <- struct{}{}
	}
	close(p.parked)
	for st := range p.parked {
		close(st.wake)
	}
	p.wg.Wait()
}
