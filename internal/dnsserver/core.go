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
// queries through the same two steps, so the transport wrapped around the
// resolver is the only thing that differs between them (the paper's method,
// §4–5):
//
//   - the hit step (parse, then serveWire) answers from the handler's wire
//     fast path into the caller's buffer. It never blocks and never
//     allocates, so read loops run it inline — the h2 read loop too, for
//     DoH (boundDoH.ServeH2Inline).
//   - the slow step (answer) resolves everything else and returns the reply
//     as packed bytes, whichever way it was made: by the handler's
//     WireMissResponder on the query the hit step parsed — no Message is
//     built for the query or for the answer — or by Unpack → Respond →
//     AppendPack for what wire cannot answer: a shape ParseQuery declines,
//     a handler with no wire steps.
//
// The slow step may block on upstream work, so batched UDP, out-of-order
// streams and DoH over h2 run it on another goroutine. Adapters keep what
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
// zero view and tx nil for the slow step to begin.
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
// handled=false leaves tx open for the slow step.
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

// answer is the slow step: it resolves the query the hit step declined, or
// never saw, and returns the reply as packed bytes in a slice the adapter
// owns. wire is the query; q is the view the hit step parsed from it, or
// the zero view. A query with a view goes to the handler's wire miss step,
// when it has one, as that view, and the reply is the handler's slice, not
// a copy; any other is unpacked for the Message handler and its answer
// packed. Either way q.HasEDNS and q.UDPSize describe the query afterwards,
// for UDP's size limit. Nothing pooled is held while the handler blocks.
// Handler failures fold into SERVFAIL, so the only error is a query the
// Message codec cannot carry — it does not unpack, or not even its SERVFAIL
// packs: UDP drops it, a stream closes, DoH answers 400, and any
// transaction is already closed. Otherwise the transaction returned — tx,
// or the one begun here when the hit step began none — is the adapter's to
// Finish once the reply has left.
func (c *core) answer(ctx context.Context, tx *telemetry.Transaction, q *dnswire.Query, wire []byte) ([]byte, *telemetry.Transaction, error) {
	if c.wireMiss != nil && q.Raw != nil {
		ctx = telemetry.NewContext(ctx, tx)
		resp, err := c.wireMiss.ServeDNSWireMiss(ctx, q)
		if err != nil || len(resp) < 12 /* DNS header */ || len(resp) > dnswire.MaxMessageLen {
			failed(ctx, tx)
			return q.Reply(dnswire.RCodeServerFailure), tx, nil
		}
		tx.SetVerdict(telemetry.VerdictOK)
		return resp, tx, nil
	}
	var tParse time.Time
	if tx == nil && c.tel.Tracing() {
		tParse = time.Now()
	}
	var m dnswire.Message
	if err := m.Unpack(wire); err != nil {
		// ParseQuery is strictly narrower than Unpack, so a fast-parse
		// success cannot leave an open transaction here — but close one
		// defensively.
		tx.SetVerdict(telemetry.VerdictServFail)
		tx.Finish()
		return nil, nil, err
	}
	if tx == nil {
		tx = c.tel.Begin(c.proto)
		if tx.Traced() {
			tx.TraceSpanBetween(qtrace.PhaseParse, tParse, time.Now())
		}
	}
	if q.HasEDNS = m.EDNS != nil; q.HasEDNS {
		q.UDPSize = m.EDNS.UDPSize
	}
	reply, err := c.respond(ctx, tx, &m).Pack()
	if err != nil {
		// The handler's answer does not pack; say so, if the codec can.
		tx.SetVerdict(telemetry.VerdictServFail)
		if reply, err = ServFail(&m).Pack(); err != nil {
			tx.Finish()
			return nil, nil, err
		}
	}
	return reply, tx, nil
}

// respond runs the Message handler on q under a context carrying the
// transaction, its failures folded into SERVFAIL: the slow step's way for
// what wire cannot answer, and DoH's for a JSON query, which never was in
// wire form.
func (c *core) respond(ctx context.Context, tx *telemetry.Transaction, q *dnswire.Message) *dnswire.Message {
	if tx.Traced() && len(q.Questions) > 0 {
		tx.TraceQueryName(string(q.Questions[0].Name.Canonical()), uint16(q.Questions[0].Type))
	}
	return Respond(telemetry.NewContext(ctx, tx), c.handler, q)
}
