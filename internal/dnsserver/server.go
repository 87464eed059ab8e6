package dnsserver

import (
	"context"
	"crypto/tls"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
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
// must not call Finish. handled=false sends the server to the Message path
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
// miss step. Servers consult it (when their Handler implements it) for a
// query ParseQuery accepted and ServeDNSWire declined, before any Message
// is built: q is the view the hit step parsed, ctx carries the query's
// telemetry transaction the way ServeDNS's does, and the reply comes back
// as packed bytes in a slice the caller owns, its transaction ID already
// q's. Unlike ServeDNSWire it may block on upstream work. An error is the
// server's to fold into SERVFAIL, as with ServeDNS. Implementations must
// not retain q past the call: serve loops recycle the packet it borrows.
type WireMissResponder interface {
	ServeDNSWireMiss(ctx context.Context, q *dnswire.Query) ([]byte, error)
}

// bufLen is the pooled scratch size: a maximum DNS message plus the
// two-octet stream length prefix, so one pool serves packet reads,
// response packing and stream frames without reallocation.
const bufLen = 2 + dnswire.MaxMessageLen

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
// vector flushed once per batch, and hands everything else to a bounded
// pool of Workers goroutines running the wire miss step (WireMissResponder)
// or, for what wire cannot answer, the Unpack → Respond → AppendPack
// Message step. The cache-hit fast path allocates nothing per query.
type UDPServer struct {
	Handler Handler
	// Guard, when non-nil, is consulted per datagram before any parse or
	// handler work: rate-limited packets are dropped or answered with a
	// minimal TC=1 slip, and the client's identity rides the query context
	// so the cache-miss breaker downstream can attribute upstream work.
	Guard *guard.Guard
	// BaseContext, when non-nil, parents every query's context; the default
	// is context.Background. UDP is connectionless, so per-query contexts
	// end with the server itself rather than with any one client.
	BaseContext context.Context
	// MaxUDPSize, when non-zero, caps response datagrams below the client's
	// advertised EDNS buffer — the max-udp-size knob production resolvers
	// use on small-MTU paths, where an honest TC=1 (and the RFC 7766 TCP
	// retry it triggers) beats a blackholed oversized datagram. Responses
	// over the cap are truncated. The cap is honored even below RFC 1035's
	// 512-byte default: on a path whose MTU is under 540, rounding the cap
	// up would re-blackhole exactly the responses it exists to save, and
	// the TC=1 referral itself (header + question) stays tiny.
	MaxUDPSize int
	// Workers sizes the resident worker pool; 0 means 4×GOMAXPROCS. The
	// pool absorbs the steady state of slow-path queries with zero
	// goroutine churn. When every worker is busy and the queue is full (a
	// burst of slow queries blocking on upstream or emulated delays), the
	// reader spills the packet to a transient goroutine rather than
	// stalling the socket: slow queries cost a goroutine each while the
	// hot path never does.
	Workers int
	// MaxSpill bounds the transient spill goroutines alive at once; 0
	// means 8×Workers. With the budget exhausted the reader blocks on the
	// work queue instead — socket backpressure beats unbounded goroutine
	// growth when an attack or upstream brownout makes every query slow.
	// Spills are counted in telemetry (dohcost_udp_spills_total).
	MaxSpill int
	// Telemetry, when non-nil, receives one Transaction per parsed query.
	Telemetry *telemetry.Metrics

	// shardStats is installed by ServeBatch: one counter block per shard
	// socket, read by ShardStats while serving runs.
	shardStats atomic.Pointer[[]shardCounters]
}

// packet is one received datagram the batch reader could not answer
// inline, travelling to a worker with its pooled buffer and the conn to
// answer on. tx, when non-nil, is the transaction the declined hit step
// already began, and q the view it parsed (borrowing buf).
type packet struct {
	buf  *[]byte
	n    int
	from net.Addr
	w    udpio.BatchConn
	tx   *telemetry.Transaction
	q    dnswire.Query
}

// workPool is the bounded worker pool the shard readers dispatch into:
// resident workers for the steady state, a spill budget of transient
// goroutines for slow-query bursts, blocking backpressure beyond that.
type workPool struct {
	s        *UDPServer
	c        *core
	ctx      context.Context
	work     chan packet
	spillSem chan struct{}
	wg       sync.WaitGroup
}

// startWorkers spins up the resident workers and sizes the spill budget.
func (s *UDPServer) startWorkers(ctx context.Context, c *core) *workPool {
	workers := s.Workers
	if workers <= 0 {
		workers = 4 * runtime.GOMAXPROCS(0)
	}
	maxSpill := s.MaxSpill
	if maxSpill <= 0 {
		maxSpill = 8 * workers
	}
	p := &workPool{
		s:        s,
		c:        c,
		ctx:      ctx,
		work:     make(chan packet, workers),
		spillSem: make(chan struct{}, maxSpill),
	}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			// One packet per worker, not per query: the wire miss step
			// takes the address of its view.
			var pkt packet
			for pkt = range p.work {
				p.s.serveSlow(p.ctx, p.c, &pkt)
			}
		}()
	}
	return p
}

// dispatch hands pkt to a resident worker; when the pool and queue are
// saturated (a burst of slow queries blocking on upstream or emulated
// delays) it spills to a transient goroutine within the spill budget, so
// the socket never head-of-line blocks (UDP's Figure 2 immunity depends
// on it) while goroutine growth stays bounded. Returns whether it
// spilled.
func (p *workPool) dispatch(pkt packet) bool {
	select {
	case p.work <- pkt:
		return false
	default:
	}
	select {
	case p.work <- pkt:
		return false
	case p.spillSem <- struct{}{}:
		p.s.Telemetry.UDPSpill()
		p.wg.Add(1)
		spilled := pkt // only a spill pays for a packet on the heap
		go func() {
			defer p.wg.Done()
			defer func() { <-p.spillSem }()
			p.s.serveSlow(p.ctx, p.c, &spilled)
		}()
		return true
	}
}

// stop drains the queue and waits for every worker and spill goroutine.
func (p *workPool) stop() {
	close(p.work)
	p.wg.Wait()
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

// serveSlow answers one datagram the batch reader handed off, finishes its
// transaction and reclaims its buffer. A query the hit step parsed takes
// the wire miss step, and its reply leaves as the bytes that came back —
// unless UDP demands Message-level surgery on it: a client cookie to echo,
// or a reply over the size limit to truncate. Everything else takes the
// Message step.
func (s *UDPServer) serveSlow(ctx context.Context, c *core, pkt *packet) {
	defer putBuf(pkt.buf)
	wire := (*pkt.buf)[:pkt.n]
	var gkey uint64
	if s.Guard != nil {
		// Attribute downstream work (the cache-miss breaker) to the client.
		gkey = guard.ClientKey(pkt.from)
		ctx = guard.NewContext(ctx, gkey)
	}
	tx := pkt.tx
	wired, ok := c.miss(ctx, tx, &pkt.q)
	hasEDNS, udpSize := pkt.q.HasEDNS, pkt.q.UDPSize
	var resp *dnswire.Message
	if !ok {
		var q dnswire.Message
		var err error
		if tx, err = c.unpack(tx, wire, &q); err != nil {
			return // drop unparseable datagrams, like real servers
		}
		resp = c.respond(ctx, tx, &q)
		if hasEDNS = q.EDNS != nil; hasEDNS {
			udpSize = q.EDNS.UDPSize
		}
	}
	defer tx.Finish()
	limit := s.udpLimit(hasEDNS, udpSize)
	// Echo a DNS cookie so the client can earn the rate-limit bypass.
	cookie, echo := s.Guard.ServerCookie(nil, wire, gkey)
	if ok {
		if wired == nil {
			return // no reply could be built; the verdict says so
		}
		if !echo && len(wired) <= limit {
			s.writeReply(tx, pkt, wired)
			return
		}
		resp = new(dnswire.Message)
		if err := resp.Unpack(wired); err != nil {
			tx.SetVerdict(telemetry.VerdictServFail)
			return
		}
	}
	if echo {
		// Cached entries share their EDNS between clones, so attach to a
		// fresh one instead of mutating in place.
		e := &dnswire.EDNS{UDPSize: 1232}
		if resp.EDNS != nil {
			cp := *resp.EDNS
			cp.Options = append([]dnswire.EDNS0Option(nil), resp.EDNS.Options...)
			e = &cp
		}
		e.Options = append(e.Options, dnswire.EDNS0Option{Code: guard.EDNS0CookieCode, Data: cookie})
		resp.EDNS = e
	}
	out := getBuf()
	defer putBuf(out)
	reply, err := resp.AppendPack((*out)[:0])
	if err != nil {
		// The client receives nothing; don't let Respond's ok verdict
		// stand for a reply that never left.
		tx.SetVerdict(telemetry.VerdictServFail)
		return
	}
	if len(reply) > limit {
		trunc := *resp
		trunc.Truncated = true
		trunc.Answers, trunc.Authorities, trunc.Additionals = nil, nil, nil
		if reply, err = trunc.AppendPack((*out)[:0]); err != nil {
			tx.SetVerdict(telemetry.VerdictServFail)
			return
		}
		if len(reply) > limit && trunc.EDNS != nil {
			// On aggressive MaxUDPSize caps a long QNAME can push even the
			// referral over the limit; the OPT record is the only thing
			// left to shed (header + question cannot shrink further).
			trunc.EDNS = nil
			if reply, err = trunc.AppendPack((*out)[:0]); err != nil {
				tx.SetVerdict(telemetry.VerdictServFail)
				return
			}
		}
	}
	s.writeReply(tx, pkt, reply)
}

// writeReply sends one worker-built reply, recorded as tx's write span.
func (s *UDPServer) writeReply(tx *telemetry.Transaction, pkt *packet, reply []byte) {
	tw := tx.TraceStart()
	pkt.w.WriteTo(reply, pkt.from)
	tx.TraceSpan(qtrace.PhaseWrite, tw)
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
// queries are (with OutOfOrder) dispatched to their own goroutines.
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
	sc := streamConn{Conn: conn}
	var wg sync.WaitGroup
	defer wg.Wait()
	rbuf := getBuf()
	defer putBuf(rbuf)
	c := newCore(s.Handler, s.Telemetry, s.Proto)
	var q dnswire.Query // per connection: &q escapes into the WireResponder call
	var gkey uint64
	if s.Guard != nil {
		gkey = guard.ClientKey(conn.RemoteAddr())
		ctx = guard.NewContext(ctx, gkey)
	}
	for {
		wire, err := readStreamMessageInto(conn, (*rbuf)[:dnswire.MaxMessageLen])
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
				err = sc.writeFrame(tx, *out, len(resp))
				tx.Finish()
				putBuf(out)
				if err != nil {
					return err
				}
				continue
			}
			putBuf(out)
		}
		// Wire miss step, on what the hit step parsed and declined. The
		// next read reuses rbuf, so an out-of-order query takes a copy of
		// the bytes its view borrows.
		if ok && c.wireMiss != nil {
			if !s.OutOfOrder {
				if err := sc.answerWire(ctx, &c, tx, &q); err != nil {
					return err
				}
				continue
			}
			mq := q
			mq.Raw = append([]byte(nil), wire...)
			wg.Add(1)
			go func() {
				defer wg.Done()
				sc.answerWire(ctx, &c, tx, &mq)
			}()
			continue
		}
		// Message step. Unpack runs here because the next read reuses rbuf;
		// m and mtx are never reassigned, so the goroutine captures values.
		m := new(dnswire.Message)
		mtx, err := c.unpack(tx, wire, m)
		if err != nil {
			return fmt.Errorf("dnsserver: bad query on stream: %w", err)
		}
		if s.OutOfOrder {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sc.answer(ctx, &c, mtx, m)
			}()
			continue
		}
		if err := sc.answer(ctx, &c, mtx, m); err != nil {
			return err
		}
	}
}

// streamConn is one served connection's write side: the inline hit step
// and the goroutines out-of-order Message steps run on share it, so whole
// frames go out under a mutex.
type streamConn struct {
	net.Conn
	writeMu sync.Mutex
}

// writeFrame sends the n-octet message packed at out[2:] behind its
// two-octet length prefix (RFC 1035 §4.2.2) as one write, recorded as tx's
// write span.
func (sc *streamConn) writeFrame(tx *telemetry.Transaction, out []byte, n int) error {
	binary.BigEndian.PutUint16(out, uint16(n))
	tw := tx.TraceStart()
	sc.writeMu.Lock()
	_, err := sc.Write(out[:2+n])
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
	return sc.writeFrame(nil, *out, len(resp))
}

// answerWire runs the wire miss step for one query and writes the reply
// that came back behind a length prefix.
func (sc *streamConn) answerWire(ctx context.Context, c *core, tx *telemetry.Transaction, q *dnswire.Query) error {
	defer tx.Finish()
	resp, _ := c.miss(ctx, tx, q)
	if resp == nil {
		return errors.New("dnsserver: no reply could be built")
	}
	out := getBuf()
	defer putBuf(out)
	return sc.writeFrame(tx, *out, copy((*out)[2:], resp))
}

// answer closes the Message step for one query and writes the reply.
func (sc *streamConn) answer(ctx context.Context, c *core, tx *telemetry.Transaction, q *dnswire.Message) error {
	defer tx.Finish()
	resp := c.respond(ctx, tx, q)
	out := getBuf()
	defer putBuf(out)
	// Pack directly behind the length prefix (AppendPack keeps compression
	// pointers message-relative) so the reply leaves in one pooled write.
	buf, err := resp.AppendPack((*out)[:2])
	if err != nil {
		// The connection is being torn down without this reply; the
		// verdict must not read ok.
		tx.SetVerdict(telemetry.VerdictServFail)
		return err
	}
	return sc.writeFrame(tx, buf, len(buf)-2)
}

// ReadStreamMessage reads one length-prefixed DNS message into a slice of
// its own.
func ReadStreamMessage(r io.Reader) ([]byte, error) {
	var lenBuf [2]byte
	return readStreamMessageInto(r, lenBuf[:])
}

// readStreamMessageInto reads one length-prefixed DNS message into buf —
// the serving loop's pooled dnswire.MaxMessageLen buffer, whose head also
// takes the length prefix, so it allocates nothing — or into a fresh slice
// when buf, at least two octets, is too short to hold it.
func readStreamMessageInto(r io.Reader, buf []byte) ([]byte, error) {
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
// write.
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
	buf := (*out)[:2+len(msg)]
	binary.BigEndian.PutUint16(buf, uint16(len(msg)))
	copy(buf[2:], msg)
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
