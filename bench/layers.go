package main

import (
	"bufio"
	"context"
	"crypto/tls"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"net/netip"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"dohcost/internal/dnscache"
	"dohcost/internal/dnsserver"
	"dohcost/internal/dnstransport"
	"dohcost/internal/dnswire"
	"dohcost/internal/guard"
	"dohcost/internal/h2"
	"dohcost/internal/hpack"
	"dohcost/internal/netsim"
	"dohcost/internal/qtrace"
	"dohcost/internal/steer"
	"dohcost/internal/telemetry"
	"dohcost/internal/udpio"
)

// The traced run. One goroutine replays the workload's first generated
// queries through the layers one exported call at a time, in pipeline
// order, and records a span around every call. The layers are measured
// from outside: nothing in internal/ knows it is being timed.

const (
	replayQueries = 20000
	// Calls that cross goroutines or a socket run on every heavyEvery-th
	// query and connection set-ups on every rareEvery-th, so the replay
	// stays within seconds while each still gets its samples.
	heavyEvery = 16
	rareEvery  = 512
	batchLen   = 32 // datagrams per serving-loop and udpio span
	allocCalls = 512
)

// span is one timed call. parent indexes the enclosing span (-1 for a
// query's root); query is the replay index every span of a query shares.
type span struct {
	name       uint16
	parent     int32
	query      int32
	start, end int64
}

// recorder keeps the spans in memory until the replay ends. Off, begin and
// end do nothing, which is the untraced replay.
type recorder struct {
	on    bool
	names []string
	spans []span
}

func (r *recorder) name(s string) uint16 {
	r.names = append(r.names, s)
	return uint16(len(r.names) - 1)
}

func (r *recorder) begin(name uint16, parent int32, query int) int32 {
	if !r.on {
		return -1
	}
	r.spans = append(r.spans, span{name: name, parent: parent, query: int32(query)})
	i := int32(len(r.spans) - 1)
	r.spans[i].start = nanotime()
	return i
}

func (r *recorder) end(i int32) {
	if i >= 0 {
		r.spans[i].end = nanotime()
	}
}

// write stores the spans as {"names": [...], "spans": [[name, start_ns,
// end_ns, parent, query], ...]}; a span's index in the array is its id.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	w.WriteString(`{"names":[`)
	for i, n := range r.names {
		if i > 0 {
			w.WriteByte(',')
		}
		w.WriteString(strconv.Quote(n))
	}
	w.WriteString("],\n\"spans\":[\n")
	var b []byte
	for i, s := range r.spans {
		b = b[:0]
		if i > 0 {
			b = append(b, ",\n"...)
		}
		b = strconv.AppendInt(append(b, '['), int64(s.name), 10)
		for _, v := range [...]int64{s.start, s.end, int64(s.parent), int64(s.query)} {
			b = strconv.AppendInt(append(b, ','), v, 10)
		}
		w.Write(append(b, ']'))
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes groups every span's self time by name: its duration minus the
// time its children cover, minus what an empty span measures (the clock
// reads themselves).
func (r *recorder) selfTimes(clock int64) map[uint16][]float64 {
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	by := map[uint16][]float64{}
	for i, s := range r.spans {
		by[s.name] = append(by[s.name], float64(max(s.end-s.start-child[i]-clock, 0)))
	}
	return by
}

// station is one layer call of the replay.
type station struct {
	name  string
	id    uint16
	every int // run on every n-th query
	per   int // operations one call performs; the figure is per operation
	// before and after, when set, run outside the span: work the call
	// needs but the layer does not do.
	before, after func()
	// call is the timed call for query i; self is its span, for stations
	// that record a child span around an inner call.
	call func(i int, self int32)
}

// rig holds the fixtures the stations call into. The proxy in it is built
// exactly like the one the sockets drive — same cache budget, guard and
// qtrace armed — except that misses go to an in-process zero-latency
// upstream, so miss-path figures carry no socket and no service time.
type rig struct {
	in  *inputs
	rec recorder
	st  *stack
	ctx context.Context // carries the guard client key, as serving contexts do
	err error           // first failure inside a station

	root     uint16
	stations []*station
	cleanup  []func()
	// counts are the measurements taken after the replay: mallocs per
	// call, frames and bytes per query.
	counts []func(m map[string]float64)

	// Per-query state, set by prepare outside the spans.
	q     []byte             // generated query i
	hit   []byte             // query i if its name is hot, else a hot name
	hitQ  dnswire.Query      // hit, fast-parsed
	hitM  *dnswire.Message   // hit, unpacked
	hotM  []*dnswire.Message // the hot set, unpacked
	fresh *dnswire.Message   // a query for a name nothing asked before
	reply []byte             // a wire reply to a hot query
	msg   dnswire.Message    // reply, unpacked

	seq, nfresh uint64
	qbuf, fbuf  [slotBufLen]byte
	out         []byte
}

func (r *rig) add(name string, every, per int, call func(i int, self int32)) *station {
	s := &station{name: name, id: r.rec.name(name), every: every, per: per, call: call}
	r.stations = append(r.stations, s)
	return s
}

func (r *rig) onClose(fn func()) { r.cleanup = append(r.cleanup, fn) }

func (r *rig) close() {
	for i := len(r.cleanup) - 1; i >= 0; i-- {
		r.cleanup[i]()
	}
}

func (r *rig) check(err error) {
	if err != nil && r.err == nil {
		r.err = err
	}
}

// prepare sets the per-query state for replay index i. Queries are taken
// from the two lanes' open schedules alternately, as they would be sent.
func (r *rig) prepare(i int) {
	sched := r.in.open[i%lanes]
	p := sched[(i/lanes)%len(sched)].p
	r.q = r.qbuf[:r.in.fill(r.qbuf[:], p, &r.seq)]
	k := i % hotNames
	if p < hotNames {
		k = int(p)
	} else if p&pickZipf != 0 && p&^pickZipf <= hotNames {
		k = int(p&^pickZipf) - 1
	}
	r.hit, r.hitM = r.in.hot[k], r.hotM[k]
	r.hitQ, _ = dnswire.ParseQuery(r.hit)
}

func (r *rig) freshMsg() *dnswire.Message {
	n := copy(r.fbuf[:], r.in.uniqueTmpl)
	putDigits(r.fbuf[:], uniqueDigits, 5e9+r.nfresh)
	r.nfresh++
	m := new(dnswire.Message)
	r.check(m.Unpack(r.fbuf[:n]))
	return m
}

// replay runs every station over n queries.
func (r *rig) replay(n int) time.Duration {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		r.prepare(i)
		q := r.rec.begin(r.root, -1, i)
		for _, st := range r.stations {
			if i%st.every != 0 {
				continue
			}
			if st.before != nil {
				st.before()
			}
			s := r.rec.begin(st.id, q, i)
			st.call(i, s)
			r.rec.end(s)
			if st.after != nil {
				st.after()
			}
		}
		r.rec.end(q)
	}
	return time.Since(t0)
}

// traceLayers builds the rig, replays the workload untraced and traced,
// writes the span file and adds every layer metric to m.
func traceLayers(in *inputs, o options, m map[string]float64) error {
	r := &rig{in: in, out: make([]byte, 0, 4096)}
	defer r.close()
	if err := r.build(); err != nil {
		return err
	}
	n := replayQueries
	if o.seconds < 10 {
		n /= 10 // smoke runs
	}

	// What an empty span measures: the clock reads themselves.
	r.rec.on = true
	empty := r.rec.name("bench.empty_span")
	for i := 0; i < 1000; i++ {
		r.rec.end(r.rec.begin(empty, -1, -1))
	}
	clock := int64(quantile(r.rec.selfTimes(0)[empty], 0.5))

	r.rec.on = false
	untraced := r.replay(n)
	r.rec.on = true
	traced := r.replay(n)
	r.rec.on = false
	if r.err != nil {
		return r.err
	}
	if err := r.rec.write(o.traceFile); err != nil {
		return err
	}
	m["bench.trace_overhead_ratio"] = traced.Seconds() / untraced.Seconds()

	self := r.rec.selfTimes(clock)
	ns := map[string]float64{}
	for id, name := range r.rec.names {
		ns[name] = quantile(self[uint16(id)], 0.5)
	}
	for _, st := range r.stations {
		ns[st.name] /= float64(st.per)
	}
	for _, s := range perLayer {
		switch base, unit := cutUnit(s.Name); unit {
		case "_ns", "_ns_per_dgram":
			if v, ok := ns[base]; ok {
				m[s.Name] = v
			}
		case "_us":
			if v, ok := ns[base]; ok {
				m[s.Name] = v / 1e3
			}
		}
	}
	m["qtrace.armed_overhead_ns"] = max(ns["qtrace.armed_lifecycle"]-ns["telemetry.begin_finish"], 0)
	m["steer.exchange_overhead_ns"] = max(ns["steer.exchange"]-ns["dnstransport.pool_exchange"], 0)
	m["dnstransport.pool_exchange_overhead_ns"] = ns["dnstransport.pool_exchange"]
	for _, count := range r.counts {
		count(m)
	}

	// The stacking check: what the layers on this workload's path add up
	// to — the serving loop (parse, guard, telemetry, cache and the loop's
	// own remainder) plus its transport, plus the miss path by its share —
	// against what a query cost the whole process at the fixed rate.
	var sum float64
	switch in.w.over {
	case overUDP:
		sum = m["dnsserver.udp_serve_batch_ns"] + m["udpio.read_batch_ns_per_dgram"] + m["udpio.write_batch_ns_per_dgram"]
	case overDoT:
		sum = m["dnsserver.stream_serve_hit_ns"] + m["tls.record_roundtrip_ns"]
	case overDoH:
		sum = m["dnsserver.doh_serve_ns"] + m["h2.roundtrip_ns"] + m["tls.record_roundtrip_ns"]
	}
	sum += (1 - m["dnscache.hit_ratio"]) * m["proxy.handler_miss_ns"]
	m["bench.layer_sum_ratio"] = ratio(sum, m["cpu_us_per_query"]*1e3)
	return r.err
}

// cutUnit splits a timing metric's name into the span name it is the
// median of and its unit suffix.
func cutUnit(name string) (base, unit string) {
	for _, u := range []string{"_ns_per_dgram", "_ns", "_us"} {
		if b, found := strings.CutSuffix(name, u); found {
			return b, u
		}
	}
	return name, ""
}

// mallocs is the mean number of heap allocations, process-wide, across n
// calls of fn — the serving goroutine behind an in-memory connection
// included, which is the point.
func mallocs(n int, fn func(i int)) float64 {
	var a, b runtime.MemStats
	fn(0) // settle pools
	runtime.ReadMemStats(&a)
	for i := 1; i <= n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// countAllocs reports metric as the mallocs of fn on hot queries.
func (r *rig) countAllocs(metric string, fn func()) {
	r.counts = append(r.counts, func(m map[string]float64) {
		m[metric] = mallocs(allocCalls, func(i int) { r.prepare(i); fn() })
	})
}

// nullResolver answers every query with one prebuilt message: the pool and
// steerer above it are then all that a call costs.
type nullResolver struct{ resp *dnswire.Message }

func (n nullResolver) Exchange(context.Context, *dnswire.Message) (*dnswire.Message, error) {
	return n.resp, nil
}
func (nullResolver) Close() error { return nil }

// readFrame reads one length-prefixed DNS message into buf.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	if _, err := io.ReadFull(r, buf[:2]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint16(buf))
	_, err := io.ReadFull(r, buf[:n])
	return buf[:n], err
}

// build creates every fixture and lists the stations in pipeline order:
// the hit path a datagram takes, the wraps DoT and DoH add around it, the
// miss path behind it, and the controls.
func (r *rig) build() (err error) {
	r.root = r.rec.name("query")
	if r.st, err = newStack(stackConfig{w: r.in.w, stubUpstream: true}); err != nil {
		return err
	}
	r.onClose(r.st.close)
	if err := r.st.prewarm(r.in); err != nil {
		return err
	}
	p := r.st.proxy
	h := p.Handler()
	wr := h.(dnsserver.WireResponder)
	g := p.Guard()
	armed := p.Telemetry()
	key := guard.ClientKey(r.st.udpAddr)
	r.ctx = guard.NewContext(context.Background(), key)
	for _, q := range r.in.hot {
		m := new(dnswire.Message)
		if err := m.Unpack(q); err != nil {
			return err
		}
		r.hotM = append(r.hotM, m)
	}
	r.prepare(0)
	var ok bool
	if r.reply, ok = wr.ServeDNSWire(nil, &r.hitQ, nil, 512); !ok {
		return errors.New("bench: the pre-warmed hot set does not hit")
	}
	static := dnsserver.Static(netip.AddrFrom4([4]byte{192, 0, 2, 1}), 300)
	staticResp, _ := static.ServeDNS(r.ctx, r.hitM)
	rbuf := make([]byte, 4096)
	pbuf := make([]byte, 0, 4096)

	// ---- Hit path.
	r.add("guard.check_udp", 1, 1, func(int, int32) { g.CheckUDP(key, r.q) })
	r.add("guard.check_stream", 1, 1, func(int, int32) { g.CheckStream(key) })
	r.add("dnswire.parse_query", 1, 1, func(int, int32) { dnswire.ParseQuery(r.q) })

	// The transaction lifecycle as the serve loops drive it, around the
	// handler's wire hit. The handler is a child span, so the station's
	// self time is telemetry alone: once on a plain sink, once on the
	// proxy's own, which has the tracer armed.
	handlerHit := r.rec.name("proxy.handler_wire_hit")
	lifecycle := func(tel *telemetry.Metrics) func(int, int32) {
		return func(i int, self int32) {
			tx := tel.Begin(telemetry.ProtoUDP)
			tx.TraceQuery(&r.hitQ)
			tc := tx.TraceStart()
			c := r.rec.begin(handlerHit, self, i)
			resp, ok := wr.ServeDNSWire(tx, &r.hitQ, r.out[:0], 512)
			r.rec.end(c)
			tx.TraceSpan(qtrace.PhaseCache, tc)
			if ok {
				r.reply = resp
			}
			tx.SetVerdict(telemetry.VerdictOK)
			tx.Finish()
		}
	}
	r.add("telemetry.begin_finish", 1, 1, lifecycle(telemetry.New()))
	r.add("qtrace.armed_lifecycle", 1, 1, lifecycle(armed))

	// A cache of our own, configured as the workload's proxy configures
	// its cache and holding the hot set.
	upstream := handlerResolver{answerHandler(false)}
	var cacheOpts []dnscache.Option
	if b := r.in.w.cacheBudget; b > 0 {
		cacheOpts = []dnscache.Option{dnscache.WithMemoryBudget(b), dnscache.WithTinyLFU()}
	}
	cache := dnscache.New(upstream, cacheOpts...)
	for _, m := range r.hotM {
		if _, err := cache.Exchange(r.ctx, m); err != nil {
			return err
		}
	}
	serveWire := func() { cache.ServeWire(nil, &r.hitQ, r.out[:0], 512) }
	r.add("dnscache.serve_wire_hit", 1, 1, func(int, int32) { serveWire() })
	r.countAllocs("dnscache.serve_wire_hit_allocs", serveWire)

	// The two UDP serving loops over the same in-memory socket, a batch of
	// hits per span: the pair that says what folding per-packet serving
	// into a batch of one would cost.
	batch := make([][]byte, batchLen)
	for k := range batch {
		batch[k] = r.in.hot[k%hotNames]
	}
	for _, loop := range []struct {
		name  string
		serve func(*dnsserver.UDPServer, *memSocket)
	}{
		{"dnsserver.udp_serve_batch", func(s *dnsserver.UDPServer, c *memSocket) { s.ServeBatch([]udpio.BatchConn{c}, batchLen) }},
		{"dnsserver.udp_serve_packet", func(s *dnsserver.UDPServer, c *memSocket) { s.Serve(c) }},
	} {
		sock := newMemSocket()
		srv := &dnsserver.UDPServer{Handler: h, Guard: g, Telemetry: armed}
		done := make(chan struct{})
		go func() { defer close(done); loop.serve(srv, sock) }()
		r.onClose(func() { sock.Close(); <-done })
		r.add(loop.name, heavyEvery, batchLen, func(int, int32) { sock.serve(batch) })
	}

	// udpio on loopback sockets: the kernel batch calls at vector 32
	// against the portable per-packet fallback at vector 1. Loopback
	// delivery is synchronous: once a write returns the datagram is
	// readable at the other end.
	conns, err := udpio.ListenShards("udp", "127.0.0.1:0", 1)
	if err != nil {
		return err
	}
	server := conns[0]
	r.onClose(func() { server.Close() })
	peer, err := net.DialUDP("udp", nil, server.LocalAddr().(*net.UDPAddr))
	if err != nil {
		return err
	}
	r.onClose(func() { peer.Close() })
	plainSock, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return err
	}
	// Hiding the concrete type makes Wrap choose the fallback.
	fallback := udpio.Wrap(struct{ net.PacketConn }{plainSock})
	r.onClose(func() { fallback.Close() })
	fbPeer, err := net.DialUDP("udp", nil, plainSock.LocalAddr().(*net.UDPAddr))
	if err != nil {
		return err
	}
	r.onClose(func() { fbPeer.Close() })
	ms := make([]udpio.Message, batchLen)
	for i := range ms {
		ms[i].Buf = make([]byte, 512)
	}
	rd := r.add("udpio.read_batch", heavyEvery, batchLen, func(int, int32) {
		for got := 0; got < batchLen; {
			n, err := server.ReadBatch(ms[got:])
			if r.check(err); err != nil {
				return
			}
			got += n
		}
	})
	rd.before = func() {
		for k := 0; k < batchLen; k++ {
			peer.Write(r.hit)
		}
	}
	// The write sends back what the read just received, to its sender.
	wrb := r.add("udpio.write_batch", heavyEvery, batchLen, func(int, int32) {
		_, err := server.WriteBatch(ms)
		r.check(err)
	})
	wrb.after = func() {
		for k := 0; k < batchLen; k++ {
			peer.Read(rbuf)
		}
	}
	fb := r.add("udpio.fallback", heavyEvery, 1, func(int, int32) {
		n, err := fallback.ReadBatch(ms[:1])
		if r.check(err); n == 1 {
			fallback.WriteBatch(ms[:1])
		}
	})
	fb.before = func() { fbPeer.Write(r.hit) }
	fb.after = func() { fbPeer.Read(rbuf) }

	// ---- Stream path: the framed serving loop over an in-memory conn.
	streamC, streamS := memPair()
	stream := &dnsserver.StreamServer{Handler: h, OutOfOrder: true, Guard: g, Proto: telemetry.ProtoDoT, Telemetry: armed}
	go stream.ServeConn(streamS)
	r.onClose(func() { streamC.Close() })
	streamHit := func() {
		dnsserver.WriteStreamMessage(streamC, r.hit)
		_, err := readFrame(streamC, rbuf)
		r.check(err)
	}
	r.add("dnsserver.stream_serve_hit", heavyEvery, 1, func(int, int32) { streamHit() })
	r.countAllocs("dnsserver.stream_serve_allocs", streamHit)

	// ---- DoH and TLS wrap.
	doh := &dnsserver.DoH{Handler: h, Guard: g, Telemetry: armed}
	h2h, _ := doh.Bind(r.ctx)
	post := &h2.Request{Method: "POST", Scheme: "https", Authority: serverName, Path: "/dns-query", Header: dohHeaders}
	dohServe := func() {
		post.Body = r.hit
		if resp := h2h.ServeH2(post); resp.Status != 200 {
			r.check(errors.New("bench: DoH.ServeH2 did not answer 200"))
		}
	}
	r.add("dnsserver.doh_serve", 1, 1, func(int, int32) { dohServe() })
	r.countAllocs("dnsserver.doh_serve_allocs", dohServe)

	// h2 over an in-memory pipe with a handler that does no DNS work.
	h2C, h2S := memPair()
	nullResp := &h2.Response{Status: 200, Body: make([]byte, 64),
		Header: []hpack.HeaderField{{Name: "content-type", Value: dnsserver.ContentTypeWire}}}
	go (&h2.Server{Handler: h2.HandlerFunc(func(*h2.Request) *h2.Response { return nullResp })}).ServeConn(h2S)
	cc, err := h2.NewClientConn(h2C)
	if err != nil {
		return err
	}
	r.onClose(func() { cc.Close() })
	roundTrip := func() {
		post.Body = r.hit
		_, err := cc.RoundTrip(r.ctx, post)
		r.check(err)
	}
	r.add("h2.roundtrip", heavyEvery, 1, func(int, int32) { roundTrip() })
	r.counts = append(r.counts, func(m map[string]float64) {
		// The same calls give the framing cost of a DoH-shaped exchange.
		stats := cc.Stats()
		l0, f0 := stats.Snapshot(), stats.Frames.Load()
		m["h2.roundtrip_allocs"] = mallocs(allocCalls, func(i int) { r.prepare(i); roundTrip() })
		l1, f1 := stats.Snapshot(), stats.Frames.Load()
		m["h2.frames_per_query"] = float64(f1-f0) / (allocCalls + 1)
		m["h2.overhead_bytes_per_query"] = float64(l1.HdrBytes+l1.MgmtBytes-l0.HdrBytes-l0.MgmtBytes) / (allocCalls + 1)
	})

	// hpack on the DoH request and response header sets, dynamic tables
	// warm as they are on a persistent connection.
	reqFields := append([]hpack.HeaderField{
		{Name: ":method", Value: "POST"}, {Name: ":scheme", Value: "https"},
		{Name: ":authority", Value: serverName}, {Name: ":path", Value: "/dns-query"},
	}, dohHeaders...)
	respFields := []hpack.HeaderField{{Name: ":status", Value: "200"}, {Name: "content-type", Value: dnsserver.ContentTypeWire}}
	encC, encS, decC, decS := hpack.NewEncoder(), hpack.NewEncoder(), hpack.NewDecoder(), hpack.NewDecoder()
	var reqBlock, respBlock []byte
	for i := 0; i < 2; i++ { // the second encoding is the steady state
		reqBlock = encC.AppendEncode(reqBlock[:0], reqFields)
		respBlock = encS.AppendEncode(respBlock[:0], respFields)
		if _, err := decS.Decode(reqBlock); err != nil {
			return err
		}
		if _, err := decC.Decode(respBlock); err != nil {
			return err
		}
	}
	r.add("hpack.encode", 1, 1, func(int, int32) {
		encC.AppendEncode(pbuf[:0], reqFields)
		encS.AppendEncode(pbuf[:0], respFields)
	})
	r.add("hpack.decode", 1, 1, func(int, int32) {
		decS.Decode(reqBlock)
		decC.Decode(respBlock)
	})
	r.counts = append(r.counts, func(m map[string]float64) {
		m["hpack.header_bytes_per_query"] = float64(len(reqBlock) + len(respBlock))
	})

	// crypto/tls echo over an in-memory pipe: the floor we do not own.
	tlsC, tlsS := memPair()
	tlsClient := tls.Client(tlsC, r.st.chain.ClientConfig(serverName))
	tlsServer := tls.Server(tlsS, r.st.chain.ServerConfig(tls.VersionTLS13, tls.VersionTLS13))
	go func() {
		buf := make([]byte, 4096)
		for {
			n, err := tlsServer.Read(buf)
			if err != nil {
				return
			}
			tlsServer.Write(buf[:n])
		}
	}()
	if err := tlsClient.Handshake(); err != nil {
		return err
	}
	r.onClose(func() { tlsC.Close() })
	r.add("tls.record_roundtrip", heavyEvery, 1, func(int, int32) {
		tlsClient.Write(r.hit)
		_, err := io.ReadFull(tlsClient, rbuf[:len(r.hit)])
		r.check(err)
	})

	// Handshakes and DoH connection set-up on loopback TCP against the
	// rig's own listeners (CloudflareLike chain).
	dialTLS := func(addr string, cfg *tls.Config) *tls.Conn {
		raw, err := net.Dial("tcp", addr)
		if r.check(err); err != nil {
			return nil
		}
		c := tls.Client(raw, cfg)
		if err := c.Handshake(); err != nil {
			r.check(err)
			raw.Close()
			return nil
		}
		return c
	}
	fullTLS := r.st.chain.ClientConfig(serverName)
	resuming := r.st.chain.ClientConfig(serverName)
	resuming.ClientSessionCache = tls.NewLRUClientSessionCache(4)
	r.add("tlsx.handshake", rareEvery, 1, func(int, int32) {
		if c := dialTLS(r.st.dotAddr, fullTLS); c != nil {
			c.Close()
		}
	})
	rs := r.add("tlsx.resumed_handshake", rareEvery, 1, func(int, int32) {
		if c := dialTLS(r.st.dotAddr, resuming); c != nil {
			if !c.ConnectionState().DidResume {
				r.check(errors.New("bench: the resumed handshake did not resume"))
			}
			c.Close()
		}
	})
	// TLS 1.3 tickets are single-use and arrive after the handshake: an
	// answered query on a connection of its own reads the next one.
	rs.before = func() {
		if c := dialTLS(r.st.dotAddr, resuming); c != nil {
			dnsserver.WriteStreamMessage(c, r.hit)
			_, err := readFrame(c, rbuf)
			r.check(err)
			c.Close()
		}
	}
	dohTLS := r.st.chain.ClientConfig(serverName, "h2")
	r.add("dnstransport.doh_conn_setup", rareEvery, 1, func(int, int32) {
		// Dial, TLS, h2 preface and SETTINGS, first answer: the paper's
		// dominant DoH cost, which the workloads amortise.
		c := dialTLS(r.st.dohAddr, dohTLS)
		if c == nil {
			return
		}
		hc, err := h2.NewClientConn(c)
		if r.check(err); err != nil {
			c.Close()
			return
		}
		req := *post
		req.Body = r.hit
		_, err = hc.RoundTrip(r.ctx, &req)
		r.check(err)
		hc.Close()
	})

	// ---- Miss path.
	r.add("dnswire.unpack", 1, 1, func(int, int32) { r.msg = dnswire.Message{}; r.msg.Unpack(r.reply) })
	r.add("dnswire.pack", 1, 1, func(int, int32) { r.msg.AppendPack(pbuf[:0]) })
	r.add("dnscache.exchange_hit", 1, 1, func(int, int32) { cache.Exchange(r.ctx, r.hitM) })
	// Inserts go to a cache at the miss workload's 4 MB budget, filled
	// past it beforehand so admission and eviction run on every one.
	full := dnscache.New(upstream, dnscache.WithMemoryBudget(4<<20), dnscache.WithTinyLFU())
	for i := 0; i < 20000; i++ {
		full.Exchange(r.ctx, r.freshMsg())
	}
	newName := func() { r.fresh = r.freshMsg() }
	r.add("dnscache.exchange_miss_insert", heavyEvery, 1, func(int, int32) { full.Exchange(r.ctx, r.fresh) }).before = newName
	r.counts = append(r.counts, func(m map[string]float64) {
		msgs := make([]*dnswire.Message, allocCalls+1)
		for i := range msgs {
			msgs[i] = r.freshMsg()
		}
		m["dnscache.exchange_miss_insert_allocs"] = mallocs(allocCalls, func(i int) { full.Exchange(r.ctx, msgs[i]) })
	})
	r.add("guard.admit_miss", 1, 1, func(int, int32) {
		if g.AdmitMiss(r.ctx) == nil {
			g.MissDone()
		}
	})
	nullPool := func() (*dnstransport.Pool, error) {
		return dnstransport.NewPool([]dnstransport.PoolUpstream{{Name: "null",
			Dial: func(context.Context) (dnstransport.Resolver, error) { return nullResolver{staticResp}, nil }}},
			dnstransport.PoolConfig{})
	}
	pool, err := nullPool()
	if err != nil {
		return err
	}
	r.onClose(func() { pool.Close() })
	steered, err := nullPool() // its own pool: steer.New installs an observer on it
	if err != nil {
		return err
	}
	steerer := steer.New(steered, steer.Config{})
	r.onClose(func() { steerer.Close() })
	r.add("dnstransport.pool_exchange", 1, 1, func(int, int32) { pool.Exchange(r.ctx, r.hitM) })
	r.add("steer.exchange", 1, 1, func(int, int32) { steerer.Exchange(r.ctx, r.hitM) })

	nullL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go (&dnsserver.StreamServer{Handler: static}).Serve(nullL)
	streamClient := dnstransport.NewTCPClient(func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", nullL.Addr().String())
	})
	r.onClose(func() { streamClient.Close(); nullL.Close() })
	r.add("dnstransport.stream_exchange", heavyEvery, 1, func(int, int32) {
		_, err := streamClient.Exchange(r.ctx, r.hitM)
		r.check(err)
	})
	r.add("proxy.handler_miss", heavyEvery, 1, func(int, int32) {
		_, err := h.ServeDNS(r.ctx, r.fresh)
		r.check(err)
	}).before = newName

	// ---- Controls: a null handler through the simulator, so simulator
	// cost stops being read as proxy cost.
	sim := netsim.New(1)
	simPC, err := sim.ListenPacket("null:53")
	if err != nil {
		return err
	}
	go (&dnsserver.UDPServer{Handler: static}).Serve(simPC)
	simL, err := sim.Listen("null:53")
	if err != nil {
		return err
	}
	go (&dnsserver.StreamServer{Handler: static}).Serve(simL)
	clientPC, err := sim.ListenPacket("")
	if err != nil {
		return err
	}
	simUDP := dnstransport.NewUDPClient(clientPC, netsim.Addr("null:53"))
	simTCP := dnstransport.NewTCPClient(func(ctx context.Context) (net.Conn, error) {
		return sim.DialContext(ctx, "client", "null:53")
	})
	r.onClose(func() { simUDP.Close(); simTCP.Close(); clientPC.Close(); simPC.Close(); simL.Close() })
	r.add("netsim.udp_rtt", heavyEvery, 1, func(int, int32) {
		_, err := simUDP.Exchange(r.ctx, r.hitM)
		r.check(err)
	})
	r.add("netsim.stream_rtt", heavyEvery, 1, func(int, int32) {
		_, err := simTCP.Exchange(r.ctx, r.hitM)
		r.check(err)
	})
	return r.err
}
