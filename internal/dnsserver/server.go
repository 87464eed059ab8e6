package dnsserver

import (
	"bufio"
	"context"
	"crypto/tls"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dohcost/internal/dnswire"
	"dohcost/internal/guard"
	"dohcost/internal/h1"
	"dohcost/internal/h2"
	"dohcost/internal/netsim"
	"dohcost/internal/qtrace"
	"dohcost/internal/telemetry"
	"dohcost/internal/tlsx"
	"dohcost/internal/udpio"
)

// WireResponder is implemented by handlers that can answer some queries
// entirely in packed wire form — the serving fast path. Servers consult it
// (when their Handler implements it) after a successful dnswire.ParseQuery
// and before any Message is built: a handled query's response bytes are
// appended to dst, a pooled buffer the server writes and reclaims, with no
// Unpack, clone or Pack in between.
//
// tx is the query's telemetry transaction, already begun by the server,
// which also finishes it; implementations annotate it (cache outcome) but
// must not call Finish. handled=false sends the server to the slow step
// with the same transaction — a miss, an uncacheable shape, or a response
// that needs Message-level surgery (truncation over limit). dst may be
// sliced from a pooled buffer: the returned slice must be its extension
// (or a reallocation the caller only uses before reclaiming dst), and
// implementations must retain neither it nor q, which serve loops reuse
// for the next query.
type WireResponder interface {
	ServeDNSWire(tx *telemetry.Transaction, q *dnswire.Query, dst []byte, limit int) ([]byte, bool)
}

// WireMissResponder is implemented by handlers that can also resolve what
// their wire fast path declined without leaving packed form — the wire
// miss step. Servers consult it (when their Handler implements it; one
// that does not is wrapped in MessageAdapter) for every query the hit step
// did not answer, before any Message is built: q is the view the hit step
// parsed, ctx carries the query's telemetry transaction the way
// ServeDNS's does, and the reply, its transaction ID already q's, is
// appended to dst as ServeDNSWire appends a hit: dst is a buffer the server
// frames from, and a reply longer than its capacity is a reallocation the
// server uses once. Unlike ServeDNSWire it may block on upstream work. An
// error is the server's to fold into SERVFAIL, as with ServeDNS. A view
// ParseQuery declined (q.Parsed() is false) carries only the query's bytes
// in q.Raw: pass it to MessageAdapter, which reads it with the Message
// codec. ctx, q and dst are valid only until the call returns: serve loops
// recycle the slot q and ctx live in, and the buffer behind dst.
type WireMissResponder interface {
	ServeDNSWireMiss(ctx context.Context, q *dnswire.Query, dst []byte) ([]byte, error)
}

// pooledMsgLen is the message room of a pooled buffer. DNS messages are a
// few hundred octets, so 4 KiB holds any ordinary query or reply; a longer
// one is framed in a one-off buffer of its own, never returned to the pool
// (see frameIn), so the pool holds only buffers this size.
const pooledMsgLen = 4096

// bufLen is the pooled scratch size: a pooledMsgLen message behind the
// two-octet stream length prefix, so stream reads, hit replies and frames
// are packed in place.
const bufLen = 2 + pooledMsgLen

// bufPool recycles serving-path scratch buffers. Pointers-to-slices keep
// the pool allocation-free (a bare []byte would be boxed on every Put).
var bufPool = sync.Pool{New: func() any { b := make([]byte, bufLen); return &b }}

func getBuf() *[]byte  { return bufPool.Get().(*[]byte) }
func putBuf(b *[]byte) { bufPool.Put(b) }

// UDPServer serves classic DNS over a datagram endpoint. Queries are
// handled concurrently — UDP has no ordering, which is why Figure 2 shows
// it immune to slow-query knock-on effects.
//
// One loop serves every socket (ServeBatch; Serve is the same loop over a
// single net.PacketConn): a reader per socket pulls a vector of datagrams,
// answers every wire fast-path hit (WireResponder) inline into a write
// vector flushed once per batch, and hands everything else to a bounded set
// of recycled slow steps (slowSteps). Neither the cache-hit fast path nor
// the hand-off allocates per query.
type UDPServer struct {
	Handler Handler
	// Guard, when non-nil, is consulted per datagram before any parse or
	// handler work: rate-limited packets are dropped or answered with a
	// minimal TC=1 slip, and the client's identity rides the query context
	// so the cache-miss breaker downstream can attribute upstream work.
	Guard *guard.Guard
	// MaxUDPSize, when non-zero, caps response datagrams below the client's
	// advertised EDNS buffer — the max-udp-size knob production resolvers
	// use on small-MTU paths, where an honest TC=1 (and the RFC 7766 TCP
	// retry it triggers) beats a blackholed oversized datagram. Responses
	// over the cap are truncated. The cap is honored even below RFC 1035's
	// 512-byte default: on a path whose MTU is under 540, rounding the cap
	// up would re-blackhole exactly the responses it exists to save, and
	// the TC=1 referral itself (header + question) stays tiny.
	MaxUDPSize int
	// Telemetry, when non-nil, receives one Transaction per parsed query.
	Telemetry *telemetry.Metrics

	// maxSlowSteps bounds the slow steps in flight (see slowSteps); 0 means
	// 36×GOMAXPROCS, what the worker pool and its spill budget before it let
	// run at once. Only tests set it.
	maxSlowSteps int

	// shardStats is installed by ServeBatch: one counter block per shard
	// socket, read by ShardStats while serving runs.
	shardStats atomic.Pointer[[]shardCounters]
}

// Serve reads queries from pc until it closes: ServeBatch over the one
// socket, at the default vector size where pc supports kernel batching and
// one datagram per syscall elsewhere (see udpio.Wrap).
func (s *UDPServer) Serve(pc net.PacketConn) error {
	return s.ServeBatch([]udpio.BatchConn{udpio.Wrap(pc)}, 0)
}

// Reader-loop error policy: how many consecutive failed reads a shard
// reader tolerates (pausing between attempts) before declaring the socket
// dead and shutting the serve loop down.
const (
	maxReadRetries = 100
	readRetryPause = 5 * time.Millisecond
)

// udpLimit derives the response size cap: the client's advertised EDNS
// buffer (RFC 6891) or the classic 512-byte default, further capped by the
// server's own MaxUDPSize policy.
func (s *UDPServer) udpLimit(hasEDNS bool, udpSize uint16) int {
	limit := 512
	if hasEDNS && int(udpSize) > limit {
		limit = int(udpSize)
	}
	if s.MaxUDPSize > 0 && limit > s.MaxUDPSize {
		limit = s.MaxUDPSize
	}
	return limit
}

// serveSlow answers one datagram the batch reader handed off: the slow
// step, run under the slot's context, into a pooled buffer that UDP's fit
// then works on in place; the write. It finishes the transaction.
func (s *UDPServer) serveSlow(c *core, st *slowStep) {
	tx := c.begin(st.tx)
	st.ctx.Set(tx)
	defer st.ctx.Set(nil)
	var ctx context.Context = &st.ctx
	if s.Guard != nil {
		// Attribute downstream work (the cache-miss breaker) to the client:
		// on the query's transaction, when telemetry gave it one.
		if tx != nil {
			tx.SetClient(st.gkey)
		} else {
			ctx = guard.NewContext(ctx, st.gkey)
		}
	}
	out := getBuf()
	defer putBuf(out)
	reply, err := c.answer(ctx, tx, &st.q, (*out)[:0])
	if err != nil {
		return // drop unparseable datagrams, like real servers
	}
	defer tx.Finish()
	if reply, err = s.fit(reply[:0], reply, st.wire, s.udpLimit(st.q.HasEDNS, st.q.UDPSize), st.gkey); err != nil {
		// The client receives nothing; don't let the slow step's ok verdict
		// stand for a reply that never left.
		tx.SetVerdict(telemetry.VerdictServFail)
		return
	}
	tw := tx.TraceStart()
	st.w.WriteTo(reply, st.from)
	tx.TraceSpan(qtrace.PhaseWrite, tw)
}

// errUnfit is fit's error for a reply it cannot walk to its OPT record.
var errUnfit = errors.New("dnsserver: reply cannot be fitted to UDP")

// fit makes a reply fit UDP by wire surgery, as Unpack, an edit and Pack
// would (FuzzFitEquivalence): a client cookie in the query is owed a server
// cookie, an option grown into the reply's OPT record or into an OPT of its
// own; a reply over limit is cut to TC=1 — header, question section and OPT
// record, the OPT going too when even that is over limit. Any other reply
// passes through as it is. A reply fit changes is rebuilt at dst, which may
// be reply[:0] itself. An OPT that is not the last record, which no reply
// Pack writes has, gets no cookie: the records behind it stay where their
// compression pointers expect them.
func (s *UDPServer) fit(dst, reply, query []byte, limit int, gkey uint64) ([]byte, error) {
	var room [24]byte // client and server cookie
	cookie, echo := s.Guard.ServerCookie(room[:0], query, gkey)
	if !echo && len(reply) <= limit {
		return reply, nil
	}
	qend, opt, end, ok := dnswire.FindOPT(reply)
	if !ok {
		return nil, errUnfit
	}
	base := len(dst)
	out := append(dst, reply...)
	if echo && opt == 0 {
		// Root name, TYPE, CLASS = payload size, TTL, RDLENGTH 0.
		out = append(out, 0, 0, byte(dnswire.TypeOPT), 1232>>8, 1232&0xFF, 0, 0, 0, 0, 0, 0)
		binary.BigEndian.PutUint16(out[base+10:], binary.BigEndian.Uint16(out[base+10:])+1)
		opt, end = len(reply)+1, len(reply)+11
	}
	if rdlen := end - opt - 10 + 4 + len(cookie); echo && end == len(out)-base && rdlen <= 0xFFFF {
		binary.BigEndian.PutUint16(out[base+opt+8:], uint16(rdlen))
		out = append(append(out, 0, guard.EDNS0CookieCode, 0, byte(len(cookie))), cookie...)
		end = len(out) - base
	}
	msg := out[base:]
	if len(msg) <= limit {
		return out, nil
	}
	// TC=1, and no records counted: ANCOUNT, NSCOUNT, ARCOUNT.
	binary.BigEndian.PutUint16(msg[2:], binary.BigEndian.Uint16(msg[2:])|1<<9)
	copy(msg[6:12], "\x00\x00\x00\x00\x00\x00")
	if opt == 0 || qend+1+end-opt > limit {
		return out[:base+qend], nil
	}
	// The OPT record, behind a root owner name, is all that stays.
	msg[11], msg[qend] = 1, 0
	return out[:base+qend+1+copy(msg[qend+1:], msg[opt:end])], nil
}

// StreamServer serves DNS with two-octet length framing (RFC 1035 §4.2.2)
// over any stream transport: raw TCP, or TLS for DoT.
//
// OutOfOrder selects the reply scheduling the DoT RFC merely recommends:
// when false the server handles one query at a time per connection, so a
// slow query blocks every reply behind it (the paper found only Cloudflare
// implemented out-of-order responses, and identifies this serialization as
// a key reason DoT underperforms).
//
// Like the UDP server, a Handler that implements WireResponder gets the
// wire fast path: cache hits are answered inline from the read loop —
// packed bytes behind a length prefix in one pooled write — before slower
// queries are (with OutOfOrder) dispatched aside, at most
// maxStreamSlowSteps of one connection's at a time.
type StreamServer struct {
	Handler    Handler
	OutOfOrder bool
	// Guard, when non-nil, rate-limits queries per client. Stream sources
	// are proven by the connection handshake, so over-limit queries get an
	// honest REFUSED (never the UDP path's silent drop or TC slip).
	Guard *guard.Guard
	// Proto labels this listener's transactions; the zero value is
	// telemetry.ProtoTCP, and the DoT accept loop sets ProtoDoT.
	Proto telemetry.Proto
	// Telemetry, when non-nil, receives one Transaction per framed query.
	Telemetry *telemetry.Metrics
}

// Serve accepts connections until the listener closes.
func (s *StreamServer) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go s.ServeConn(conn)
	}
}

// ServeConn handles one connection until EOF. Every query's context is
// derived from the connection's lifetime: when the connection closes (or
// the serve loop exits on a protocol error), outstanding handlers are
// cancelled so abandoned queries stop consuming resolver work.
func (s *StreamServer) ServeConn(conn net.Conn) error {
	defer conn.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var gkey uint64
	if s.Guard != nil {
		gkey = guard.ClientKey(conn.RemoteAddr())
		ctx = guard.NewContext(ctx, gkey)
	}
	sc := streamConn{Conn: conn, qc: telemetry.QueryContext{Context: ctx}, c: newCore(s.Handler, s.Telemetry, s.Proto)}
	var aside *slowSteps
	if s.OutOfOrder {
		aside = newSlowSteps(maxStreamSlowSteps, ctx, sc.answerAside)
		// Leaving: cancel the slow steps, fail their writes, wait for them.
		defer func() { cancel(); conn.Close(); aside.stop() }()
	}
	r := StreamReader(conn)
	rbuf := getBuf()
	defer putBuf(rbuf)
	c := &sc.c
	var q dnswire.Query // per connection: &q escapes into the WireResponder call
	for {
		wire, err := ReadStreamMessageInto(r, *rbuf)
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrUnexpectedEOF) {
				return nil
			}
			return err
		}
		var tGuard time.Time
		if s.Guard != nil {
			if s.Telemetry.Tracing() {
				tGuard = time.Now()
			}
			if s.Guard.CheckStream(gkey) == guard.ActionRefuse {
				if err := s.writeRefusal(&sc, wire, gkey); err != nil {
					return err
				}
				continue
			}
		}
		// Hit step: packed bytes behind the length prefix, one pooled write.
		tx, ok := c.parse(&q, wire, tGuard)
		if ok {
			out := getBuf()
			if resp, handled := c.serveWire(tx, &q, (*out)[2:2], dnswire.MaxMessageLen); handled {
				err = sc.writeFrame(tx, frameIn(*out, resp))
				tx.Finish()
				putBuf(out)
				if err != nil {
					return err
				}
				continue
			}
			putBuf(out)
		}
		// Slow step: inline, or aside when replies may leave out of order;
		// the read loop waits here while its bound's worth are in flight.
		if aside != nil {
			aside.dispatch(tx, &q, nil, nil, 0)
		} else if err := sc.answer(&sc.qc, tx, &q); err != nil {
			return err
		}
	}
}

// maxStreamSlowSteps bounds one out-of-order connection's slow steps in
// flight: beyond it the connection's read loop waits (see slowSteps).
const maxStreamSlowSteps = 128

// streamConn is one served connection: what its read loop, running the hit
// step inline, shares with the goroutines out-of-order slow steps run on —
// the serving core and the write side, where whole frames go out under a
// mutex — and the context an in-order slow step runs under, over the one the
// connection's queries end with (an out-of-order step runs under its slot's).
type streamConn struct {
	net.Conn
	writeMu sync.Mutex
	qc      telemetry.QueryContext
	c       core
}

// writeFrame sends a frame built by frameIn as one write, recorded as tx's
// write span.
func (sc *streamConn) writeFrame(tx *telemetry.Transaction, frame []byte) error {
	tw := tx.TraceStart()
	sc.writeMu.Lock()
	_, err := sc.Write(frame)
	sc.writeMu.Unlock()
	tx.TraceSpan(qtrace.PhaseWrite, tw)
	return err
}

// writeRefusal frames and writes the guard's minimal REFUSED response for
// one rate-limited stream query; un-echoable queries get nothing (the
// connection stays up — stream framing is intact, only this query was
// malformed past the question).
func (s *StreamServer) writeRefusal(sc *streamConn, wire []byte, gkey uint64) error {
	out := getBuf()
	defer putBuf(out)
	resp, ok := s.Guard.AppendLimited((*out)[2:2], wire, gkey, guard.ActionRefuse)
	if !ok || len(resp) > dnswire.MaxMessageLen {
		return nil
	}
	// Guard decisions are counted in guard metrics, not as served queries.
	return sc.writeFrame(nil, frameIn(*out, resp))
}

// answer runs the slow step for one query under qc, the step's context,
// into a pooled buffer behind room for the length prefix, and writes the
// framed reply.
func (sc *streamConn) answer(qc *telemetry.QueryContext, tx *telemetry.Transaction, q *dnswire.Query) error {
	tx = sc.c.begin(tx)
	qc.Set(tx)
	out := getBuf()
	defer putBuf(out)
	reply, err := sc.c.answer(qc, tx, q, (*out)[2:2])
	qc.Set(nil)
	if err != nil {
		return fmt.Errorf("dnsserver: bad query on stream: %w", err)
	}
	defer tx.Finish()
	return sc.writeFrame(tx, frameIn(*out, reply))
}

// frameIn returns msg behind its two-octet length prefix (RFC 1035 §4.2.2):
// in buf, a pooled buffer, where msg already lies packed at buf[2:] or is
// copied to, or in a one-off buffer of its own when it is longer than buf
// holds — so a long reply is never written from a buffer that does not
// carry it, and the pool never takes in a buffer of its size. The caller
// vouches that msg fits the prefix (dnswire.MaxMessageLen).
func frameIn(buf, msg []byte) []byte {
	if len(msg) == 0 || &msg[0] != &buf[2] {
		if 2+len(msg) > len(buf) {
			buf = make([]byte, 2+len(msg))
		}
		copy(buf[2:], msg)
	}
	binary.BigEndian.PutUint16(buf, uint16(len(msg)))
	return buf[:2+len(msg)]
}

// answerAside is answer as an out-of-order slow step. An error ends the
// connection the way it ends the read loop in order: closed.
func (sc *streamConn) answerAside(st *slowStep) {
	if sc.answer(&st.ctx, st.tx, &st.q) != nil {
		sc.Close()
	}
}

// streamReadBuf holds a burst of pipelined queries, or upstream replies.
const streamReadBuf = 4096

// StreamReader returns what to read conn's length-prefixed messages from: a
// buffered reader, so a message — or a pipelined burst — costs one read, not
// a prefix's and a body's; conn itself when it is a *tls.Conn, which buffers.
func StreamReader(conn net.Conn) io.Reader {
	if _, ok := conn.(*tls.Conn); ok {
		return conn
	}
	return bufio.NewReaderSize(conn, streamReadBuf)
}

// ReadStreamMessageInto reads one length-prefixed DNS message into buf —
// a serving loop's pooled buffer, or a client read loop's own, whose head
// also takes the length prefix, so an ordinary message allocates nothing —
// or into a fresh slice when buf, at least two octets, is too short to hold
// it.
func ReadStreamMessageInto(r io.Reader, buf []byte) ([]byte, error) {
	if _, err := io.ReadFull(r, buf[:2]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint16(buf))
	if n > len(buf) {
		buf = make([]byte, n)
	}
	if _, err := io.ReadFull(r, buf[:n]); err != nil {
		return nil, err
	}
	return buf[:n], nil
}

// WriteStreamMessage writes one length-prefixed DNS message as a single
// flight. The frame is assembled in a pooled buffer, not allocated per
// write, unless msg is longer than a pooled buffer holds.
func WriteStreamMessage(w io.Writer, msg []byte) error {
	return writeStreamMessage(w, msg, false, 0)
}

// WriteStreamMessageID is WriteStreamMessage with the frame's copy of msg
// sent under transaction ID id: how a client forwards a query under an ID
// of its own without touching, or copying twice, the caller's bytes.
func WriteStreamMessageID(w io.Writer, msg []byte, id uint16) error {
	return writeStreamMessage(w, msg, true, id)
}

func writeStreamMessage(w io.Writer, msg []byte, patch bool, id uint16) error {
	if len(msg) > dnswire.MaxMessageLen {
		return dnswire.ErrMessageTooLarge
	}
	out := getBuf()
	defer putBuf(out)
	buf := frameIn(*out, msg)
	if patch {
		dnswire.PatchID(buf[2:], id)
	}
	_, err := w.Write(buf)
	return err
}

// Server bundles one resolver deployment: the same handler reachable over
// UDP (:53), TCP (:53), DoT (:853) and DoH (:443), the way the public
// providers in Table 1 deploy theirs.
type Server struct {
	Handler Handler
	// Guard, when non-nil, is the deployment's shared abuse-resilience
	// layer: every listener consults it, so a client's budget spans
	// transports (see internal/guard).
	Guard *guard.Guard
	// Chain supplies TLS material for DoT and DoH; nil disables both.
	Chain *tlsx.Chain
	// TLSMin/TLSMax bound the offered protocol versions (zero = 1.2/1.3).
	TLSMin, TLSMax uint16
	// DoTOutOfOrder enables Cloudflare-style reply scheduling on DoT.
	DoTOutOfOrder bool
	// Endpoints configures the DoH paths and content types; nil serves
	// the RFC-default wireformat endpoint at /dns-query.
	Endpoints []Endpoint
	// DisableDoT drops the :853 listener (several Table 1 providers do
	// not run DoT).
	DisableDoT bool
	// HTTP1Only forces the DoH listener to negotiate only http/1.1 —
	// used by the transport-comparison experiment.
	HTTP1Only bool
	// AltSvc is attached to successful DoH responses (QUIC advertisement).
	AltSvc string
	// DoHProcessing models HTTPS frontend per-request latency; see
	// DoH.Processing.
	DoHProcessing time.Duration
	// DoHEmission is the h2.Emission model of the DoH listener: the study
	// sets h2.FramePerFlight to reproduce the endpoints the paper captured;
	// every other deployment leaves the zero value.
	DoHEmission h2.Emission
	// DoHHandler, when non-nil, answers DoH queries instead of Handler —
	// providers that pad encrypted responses (RFC 8467) but not classic
	// UDP/TCP need the split.
	DoHHandler Handler
	// MaxUDPSize caps UDP response datagrams regardless of the client's
	// EDNS buffer (see UDPServer.MaxUDPSize); zero applies no cap.
	MaxUDPSize int
	// Telemetry, when non-nil, is propagated to every listener so each
	// query produces one cost Transaction (see internal/telemetry).
	Telemetry *telemetry.Metrics
}

// Running tracks a started Server's listeners.
type Running struct {
	Host    string
	closers []io.Closer
	wg      sync.WaitGroup
	udp     *UDPServer
}

// UDPShardStats snapshots the UDP listener's per-shard serving counters.
func (r *Running) UDPShardStats() []UDPShardStats { return r.udp.ShardStats() }

// Close shuts down all listeners and waits for serving loops.
func (r *Running) Close() {
	for _, c := range r.closers {
		c.Close()
	}
	r.wg.Wait()
}

// Start brings the deployment up on a simulated network host. Ports follow
// convention: UDP/TCP 53, DoT 853, DoH 443.
func (s *Server) Start(n *netsim.Network, host string) (*Running, error) {
	r := &Running{Host: host}

	pc, err := n.ListenPacket(host + ":53")
	if err != nil {
		return nil, err
	}
	r.closers = append(r.closers, pc)
	r.udp = &UDPServer{Handler: s.Handler, Guard: s.Guard, MaxUDPSize: s.MaxUDPSize, Telemetry: s.Telemetry}
	r.wg.Add(1)
	go func() { defer r.wg.Done(); r.udp.Serve(pc) }()

	tcpL, err := n.Listen(host + ":53")
	if err != nil {
		r.Close()
		return nil, err
	}
	r.closers = append(r.closers, tcpL)
	tcp := &StreamServer{Handler: s.Handler, OutOfOrder: s.DoTOutOfOrder, Guard: s.Guard, Telemetry: s.Telemetry}
	r.wg.Add(1)
	go func() { defer r.wg.Done(); tcp.Serve(tcpL) }()

	if s.Chain == nil {
		return r, nil
	}

	if !s.DisableDoT {
		dotL, err := n.Listen(host + ":853")
		if err != nil {
			r.Close()
			return nil, err
		}
		r.closers = append(r.closers, dotL)
		dot := &StreamServer{Handler: s.Handler, OutOfOrder: s.DoTOutOfOrder, Proto: telemetry.ProtoDoT, Guard: s.Guard, Telemetry: s.Telemetry}
		cfg := s.Chain.ServerConfig(s.TLSMin, s.TLSMax)
		r.wg.Add(1)
		go func() { defer r.wg.Done(); dot.Serve(tls.NewListener(dotL, cfg)) }()
	}

	dohL, err := n.Listen(host + ":443")
	if err != nil {
		r.Close()
		return nil, err
	}
	r.closers = append(r.closers, dohL)
	dohHandler := s.DoHHandler
	if dohHandler == nil {
		dohHandler = s.Handler
	}
	doh := &DoH{Handler: dohHandler, Endpoints: s.Endpoints, AltSvc: s.AltSvc, Processing: s.DoHProcessing, Guard: s.Guard, Telemetry: s.Telemetry}
	protos := []string{"h2", "http/1.1"}
	if s.HTTP1Only {
		protos = []string{"http/1.1"}
	}
	cfg := s.Chain.ServerConfig(s.TLSMin, s.TLSMax, protos...)
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for {
			conn, err := dohL.Accept()
			if err != nil {
				return
			}
			go func() {
				tc := tls.Server(conn, cfg)
				if err := tc.Handshake(); err != nil {
					tc.Close()
					return
				}
				// Bind per connection: DNS handler contexts end when this
				// HTTPS connection does.
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				if s.Guard != nil {
					// The client's guard identity rides the connection
					// context into every DoH query it carries.
					ctx = guard.NewContext(ctx, guard.ClientKey(conn.RemoteAddr()))
				}
				h2h, h1h := doh.Bind(ctx)
				switch tc.ConnectionState().NegotiatedProtocol {
				case "h2":
					(&h2.Server{Handler: h2h, Emission: s.DoHEmission}).ServeConn(tc)
				default:
					(&h1.Server{Handler: h1h}).ServeConn(tc)
				}
			}()
		}
	}()
	return r, nil
}
