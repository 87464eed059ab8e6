package dnsserver

import (
	"context"
	"time"

	"dohcost/internal/dnswire"
	"dohcost/internal/qtrace"
	"dohcost/internal/telemetry"
)

// core is the transport-agnostic serving core. Every front end — the UDP
// batch loop, StreamServer.ServeConn, DoH's HTTP handlers — funnels its
// queries through the same three steps, so the transport wrapped around the
// resolver is the only thing that differs between them (the paper's method,
// §4–5):
//
//   - the hit step (parse, then serveWire) answers from the handler's wire
//     fast path into the caller's buffer. It never blocks and never
//     allocates, so read loops run it inline — the h2 read loop too, for
//     DoH (boundDoH.ServeH2Inline).
//   - the wire miss step (miss) hands the query the hit step parsed to the
//     handler's WireMissResponder and gets the reply back as packed bytes:
//     no Message is built for the query or for the answer.
//   - the Message step (unpack, then respond) runs the handler on a
//     *dnswire.Message, for what wire cannot answer: a shape ParseQuery
//     declines, a handler with no wire steps, a JSON query.
//
// The last two may block on upstream work, so batched UDP, out-of-order
// streams and DoH over h2 run them on another goroutine. Adapters keep what
// is genuinely per-transport: the guard's verdict form, the size limit,
// UDP's truncation and cookie echo, framing, the write and its trace span,
// Finish, and the fate of a query that does not unpack.
type core struct {
	handler  Handler
	wire     WireResponder     // the handler's fast path; nil when it has none
	wireMiss WireMissResponder // and its wire miss step, likewise
	tel      *telemetry.Metrics
	proto    telemetry.Proto
}

func newCore(h Handler, tel *telemetry.Metrics, proto telemetry.Proto) core {
	wr, _ := h.(WireResponder)
	wm, _ := h.(WireMissResponder)
	return core{handler: h, wire: wr, wireMiss: wm, tel: tel, proto: proto}
}

// parse opens the hit step: the fast parse of wire into the caller's q
// and, when it succeeds, the query's transaction. tGuard is when the
// adapter's guard check began (zero without a guard or a tracer); the
// guard ran, and the parse runs, before the transaction's clock starts, so
// on every transport both spans carry slightly negative start offsets.
// ok=false — no fast path, or a shape ParseQuery declines — leaves q the
// zero view and tx nil for the Message step to begin.
func (c *core) parse(q *dnswire.Query, wire []byte, tGuard time.Time) (tx *telemetry.Transaction, ok bool) {
	if c.wire == nil {
		*q = dnswire.Query{}
		return nil, false
	}
	var tParse time.Time
	if c.tel.Tracing() {
		tParse = time.Now()
	}
	if *q, ok = dnswire.ParseQuery(wire); !ok {
		*q = dnswire.Query{}
		return nil, false
	}
	tx = c.tel.Begin(c.proto)
	if tx.Traced() {
		tx.TraceSpanBetween(qtrace.PhaseGuard, tGuard, tParse)
		tx.TraceSpanBetween(qtrace.PhaseParse, tParse, time.Now())
		tx.TraceQuery(q)
	}
	return tx, true
}

// serveWire closes the hit step: the handler's wire fast path answers q
// into dst under the adapter's size limit. dst is empty; a handled response
// that fits its capacity lies in its storage — so an adapter that hands in
// room for any message under its limit can frame around it in place — and
// one that does not is an allocation of its own, always so for a nil dst.
// handled=false leaves tx open for the Message step.
func (c *core) serveWire(tx *telemetry.Transaction, q *dnswire.Query, dst []byte, limit int) (resp []byte, handled bool) {
	tc := tx.TraceStart()
	resp, handled = c.wire.ServeDNSWire(tx, q, dst, limit)
	if !handled || len(resp) < 12 /* DNS header */ || len(resp) > dnswire.MaxMessageLen {
		return nil, false
	}
	tx.TraceSpan(qtrace.PhaseCache, tc)
	if cap(dst) >= len(resp) && &resp[0] != &dst[:1][0] {
		// The responder returned its own storage; fold the bytes back into
		// the caller's buffer.
		resp = append(dst, resp...)
	}
	tx.SetVerdict(telemetry.VerdictOK)
	return resp, true
}

// miss is the wire miss step for a query the hit step parsed and declined:
// the handler resolves q in packed form under a context carrying the
// transaction, and the reply comes back in a slice the caller owns, its ID
// already q's. A handler failure folds into the reply Respond would have
// packed for it, so the adapter writes whatever comes back (nil only when
// not even that could be built). ok=false — the handler has no wire miss
// step, or q is the zero view of a query the hit step's parse declined —
// sends the adapter to the Message step with tx as it was.
func (c *core) miss(ctx context.Context, tx *telemetry.Transaction, q *dnswire.Query) (resp []byte, ok bool) {
	if c.wireMiss == nil || q.Raw == nil {
		return nil, false
	}
	ctx = telemetry.NewContext(ctx, tx)
	resp, err := c.wireMiss.ServeDNSWireMiss(ctx, q)
	if err == nil && len(resp) >= 12 /* DNS header */ && len(resp) <= dnswire.MaxMessageLen {
		tx.SetVerdict(telemetry.VerdictOK)
		return resp, true
	}
	// The failure path may allocate: the SERVFAIL is the one Respond would
	// have packed, built from the unpacked query.
	var m dnswire.Message
	if m.Unpack(q.Raw) == nil {
		if resp, err = failure(ctx, tx, &m).Pack(); err == nil {
			return resp, true
		}
	}
	tx.SetVerdict(telemetry.VerdictServFail)
	return nil, true
}

// unpack opens the Message step for a query in wire form: it decodes wire
// into q and begins the transaction if the hit step did not. The error is
// the adapter's to act on (UDP drops the datagram, a stream closes, DoH
// answers 400); any transaction is already closed when it is non-nil.
func (c *core) unpack(tx *telemetry.Transaction, wire []byte, q *dnswire.Message) (*telemetry.Transaction, error) {
	var tParse time.Time
	if tx == nil && c.tel.Tracing() {
		tParse = time.Now()
	}
	if err := q.Unpack(wire); err != nil {
		// ParseQuery is strictly narrower than Unpack, so a fast-parse
		// success cannot leave an open transaction here — but close one
		// defensively.
		tx.SetVerdict(telemetry.VerdictServFail)
		tx.Finish()
		return nil, err
	}
	if tx == nil {
		tx = c.tel.Begin(c.proto)
		if tx.Traced() {
			tx.TraceSpanBetween(qtrace.PhaseParse, tParse, time.Now())
		}
	}
	return tx, nil
}

// respond closes the Message step: the handler runs on q under a context
// carrying the transaction, and its failures fold into SERVFAIL. The
// transaction stays the adapter's to Finish once the reply has left.
func (c *core) respond(ctx context.Context, tx *telemetry.Transaction, q *dnswire.Message) *dnswire.Message {
	if tx.Traced() && len(q.Questions) > 0 {
		tx.TraceQueryName(string(q.Questions[0].Name.Canonical()), uint16(q.Questions[0].Type))
	}
	return Respond(telemetry.NewContext(ctx, tx), c.handler, q)
}
