package dnsserver

import (
	"cmp"
	"context"
	"errors"
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
//   - the slow step (answer) resolves everything else and appends the reply,
//     packed, to the caller's buffer, as the hit step does: the handler's
//     wire miss step on the view the hit step left — no Message is built for
//     the query or for the answer — or, for a handler with no wire steps of
//     its own, MessageAdapter's Unpack → Respond → AppendPack, wrapped around
//     it once by newCore. Its context is the query's: a slot's or a
//     connection's QueryContext, set to the transaction for the step.
//
// The slow step may block on upstream work, so batched UDP, out-of-order
// streams and DoH over h2 run it on another goroutine. Adapters keep what
// is genuinely per-transport: the guard's verdict form, the size limit,
// UDP's truncation and cookie echo (fit), framing, the write and its trace
// span, Finish, and the fate of a query that does not unpack.
type core struct {
	wire  WireResponder     // the handler's fast path; nil when it has none
	miss  WireMissResponder // its wire miss step, or MessageAdapter around it
	tel   *telemetry.Metrics
	proto telemetry.Proto
}

func newCore(h Handler, tel *telemetry.Metrics, proto telemetry.Proto) core {
	wr, _ := h.(WireResponder)
	wm, ok := h.(WireMissResponder)
	if !ok {
		wm = MessageAdapter{Handler: h}
	}
	return core{wire: wr, miss: wm, tel: tel, proto: proto}
}

// parse opens the hit step: the fast parse of wire into the caller's q
// and, when it succeeds, the query's transaction. tGuard is when the
// adapter's guard check began (zero without a guard or a tracer); the
// guard ran, and the parse runs, before the transaction's clock starts, so
// on every transport both spans carry slightly negative start offsets.
// ok=false — no fast path, or a shape ParseQuery declines — leaves q a view
// that carries only wire, and tx nil, for the slow step to begin.
func (c *core) parse(q *dnswire.Query, wire []byte, tGuard time.Time) (tx *telemetry.Transaction, ok bool) {
	if c.wire == nil {
		*q = dnswire.Query{Raw: wire}
		return nil, false
	}
	var tParse time.Time
	if c.tel.Tracing() {
		tParse = time.Now()
	}
	if *q, ok = dnswire.ParseQuery(wire); !ok {
		*q = dnswire.Query{Raw: wire}
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

// errUnreadable is the slow step's error for a query the fast parse
// declined whose miss step failed without saying why.
var errUnreadable = errors.New("dnsserver: query the codec cannot read")

// begin returns the query's transaction for the slow step: tx, begun by the
// hit step, or — when the hit step began none — the slow step's own.
func (c *core) begin(tx *telemetry.Transaction) *telemetry.Transaction {
	if tx == nil {
		tx = c.tel.Begin(c.proto)
	}
	return tx
}

// answer is the slow step: the handler's miss step — its own, or
// MessageAdapter — resolves what the hit step declined or never saw, on the
// view it left (parsed, or carrying only the query's bytes), whose HasEDNS
// and UDPSize then describe the query for UDP's size limit. tx is the
// query's transaction (begin's), and ctx carries it to the handler: the
// adapter's QueryContext set to it — a slow-step slot's, or a stream
// connection's — or, where the adapter has none, a layer of its own. The
// reply is packed bytes appended to dst, an empty buffer the adapter frames
// from: a reply that fits its capacity lies in its storage. Nothing pooled
// that the handler could see is held while it blocks. A failed step folds
// into a SERVFAIL echoed from a parsed view. An unparsed view has nothing
// to echo from: its failure (a query the codec cannot read) is the error,
// and the transaction is closed as a servfail. Otherwise tx is the
// adapter's to Finish once the reply has left.
func (c *core) answer(ctx context.Context, tx *telemetry.Transaction, q *dnswire.Query, dst []byte) ([]byte, error) {
	tx.SetVerdict(telemetry.VerdictOK) // a step that fails its query says so
	resp, err := c.miss.ServeDNSWireMiss(ctx, q, dst)
	if err == nil && len(resp) >= 12 /* DNS header */ && len(resp) <= dnswire.MaxMessageLen {
		return resp, nil
	}
	if !q.Parsed() {
		tx.SetVerdict(telemetry.VerdictServFail)
		tx.Finish()
		return nil, cmp.Or(err, errUnreadable)
	}
	failed(ctx, tx)
	return q.AppendReply(dst, dnswire.RCodeServerFailure), nil
}

// MessageAdapter is the wire miss step of a Message Handler: Unpack →
// Respond → AppendPack. newCore wraps a handler that has no wire miss step
// of its own in it, once, and a WireMissResponder hands it the views
// ParseQuery declined. It writes the query's HasEDNS and UDPSize into the
// view, for UDP's size limit. Only a QUERY reaches the handler: a response
// (QR=1) is an error, the fate of a query the codec cannot read, any
// other opcode is echoed NOTIMP (RFC 1035 §4.1.1), and an OPT of an EDNS
// version other than 0 is echoed BADVERS, no answer, under an OPT of
// version 0 (RFC 6891 §6.1.3). Handler failures fold
// into SERVFAIL; its error is a query the codec cannot read, a response,
// or a query whose SERVFAIL does not even pack.
type MessageAdapter struct{ Handler Handler }

// errResponse is MessageAdapter's error for a message that is itself a
// response: answering it could loop two servers into each other.
var errResponse = errors.New("dnsserver: message is a response, not a query")

// ServeDNSWireMiss implements WireMissResponder.
func (a MessageAdapter) ServeDNSWireMiss(ctx context.Context, q *dnswire.Query, dst []byte) ([]byte, error) {
	tx := telemetry.FromContext(ctx)
	var tParse time.Time
	if !q.Parsed() {
		tParse = tx.TraceStart()
	}
	var m dnswire.Message
	if err := m.Unpack(q.Raw); err != nil {
		return nil, err
	}
	if m.Response {
		return nil, errResponse
	}
	if !q.Parsed() {
		// The hit step's parse never ran: this is the query's parse.
		tx.TraceSpan(qtrace.PhaseParse, tParse)
		traceQuestion(tx, &m)
	}
	if q.HasEDNS = m.EDNS != nil; q.HasEDNS {
		q.UDPSize = m.EDNS.UDPSize
	}
	if m.OpCode != dnswire.OpCodeQuery {
		r := m.Reply()
		r.RCode = dnswire.RCodeNotImplemented
		return r.AppendPack(dst)
	}
	if m.EDNS != nil && m.EDNS.Version != 0 {
		r := m.Reply() // its OPT is version 0, the one this server speaks
		r.RCode = dnswire.RCodeBadVersion
		return r.AppendPack(dst)
	}
	reply, err := Respond(ctx, a.Handler, &m).AppendPack(dst)
	if err != nil {
		// The handler's answer does not pack; say so, if the codec can.
		tx.SetVerdict(telemetry.VerdictServFail)
		reply, err = ServFail(&m).AppendPack(dst)
	}
	return reply, err
}

// traceQuestion stamps tx's trace with m's first question: the query's
// identity where no Query view carried it.
func traceQuestion(tx *telemetry.Transaction, m *dnswire.Message) {
	if tx.Traced() && len(m.Questions) > 0 {
		tx.TraceQueryName(string(m.Questions[0].Name.Canonical()), uint16(m.Questions[0].Type))
	}
}
