package main

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"dohcost/internal/dnsserver"
	"dohcost/internal/dnstransport"
	"dohcost/internal/dnswire"
	"dohcost/internal/guard"
	"dohcost/internal/h2"
	"dohcost/internal/netsim"
	"dohcost/internal/proxy"
	"dohcost/internal/qtrace"
	"dohcost/internal/telemetry"
	"dohcost/internal/tlsx"
)

const serverName = "bench.example"

// stackConfig selects the variations of the system under test.
type stackConfig struct {
	w workload
	// stubUpstream answers misses from an in-process zero-latency resolver
	// instead of the loopback TCP upstream; the layer rig uses it so miss
	// path figures carry no socket or service time.
	stubUpstream bool
	// wrongAnswers makes the upstream answer with an address the name does
	// not derive — the input of the check-the-checker test.
	wrongAnswers bool
}

// stack is the production forwarding path stood up in-process on kernel
// loopback sockets: proxy.New with guard and qtrace armed, UDP through
// Config.UDPListen, and TCP, DoT and DoH listeners the benchmark binds
// around proxy.Handler() with the exported serving types.
type stack struct {
	proxy   *proxy.Proxy
	chain   *tlsx.Chain
	udpAddr *net.UDPAddr
	tcpAddr string
	dotAddr string
	dohAddr string

	wg        sync.WaitGroup
	listeners []net.Listener
	mu        sync.Mutex
	conns     map[net.Conn]struct{}
}

// unlimitedGuard arms every guard check with budgets the two loopback
// clients cannot reach, so the checks run and never refuse.
func unlimitedGuard() *guard.Config {
	return &guard.Config{ClientQPS: 1e9, Burst: 1 << 30, MissRate: 1e9, MaxInflightMiss: 1 << 20}
}

// answerHandler is the upstream's resolution rule: see answersFor.
func answerHandler(wrong bool) dnsserver.Handler {
	return dnsserver.HandlerFunc(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		r := q.Reply()
		qq := q.Question1()
		name := qq.Name.Canonical()
		first, count := answersFor([]byte(name))
		if wrong {
			first[1] ^= 0xFF
		}
		for i := 0; i < count; i++ {
			a := first
			a[3] += byte(i)
			r.Answers = append(r.Answers, dnswire.ResourceRecord{
				Name: name, Class: dnswire.ClassINET, TTL: 3600,
				Data: &dnswire.A{Addr: netip.AddrFrom4(a)},
			})
		}
		return r, nil
	})
}

// handlerResolver adapts a Handler to the Resolver a pool dials.
type handlerResolver struct{ h dnsserver.Handler }

func (r handlerResolver) Exchange(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	return r.h.ServeDNS(ctx, q)
}
func (handlerResolver) Close() error { return nil }

// trackedListener remembers accepted connections so close can end their
// serving goroutines even when a peer never hangs up.
type trackedListener struct {
	net.Listener
	s *stack
}

func (l trackedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.s.mu.Lock()
		l.s.conns[c] = struct{}{}
		l.s.mu.Unlock()
	}
	return c, err
}

func (s *stack) listen() (net.Listener, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	tl := trackedListener{Listener: l, s: s}
	s.listeners = append(s.listeners, tl)
	return tl, nil
}

// serve runs accept on l until it closes, handing each connection to fn on
// its own goroutine.
func (s *stack) serve(l net.Listener, fn func(net.Conn)) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				fn(c)
			}()
		}
	}()
}

func newStack(cfg stackConfig) (_ *stack, err error) {
	s := &stack{conns: make(map[net.Conn]struct{})}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if s.chain, err = tlsx.GenerateChain(tlsx.CloudflareLike(serverName)); err != nil {
		return nil, err
	}

	answers := answerHandler(cfg.wrongAnswers)
	up := dnstransport.PoolUpstream{Name: "loopback"}
	if cfg.stubUpstream {
		up.Dial = func(context.Context) (dnstransport.Resolver, error) { return handlerResolver{answers}, nil }
	} else {
		upL, err := s.listen()
		if err != nil {
			return nil, err
		}
		upstream := &dnsserver.StreamServer{Handler: answers, OutOfOrder: true}
		if cfg.w.upstreamDelay > 0 {
			upstream.Handler = dnsserver.Delay(cfg.w.upstreamDelay, answers)
		}
		s.serve(upL, func(c net.Conn) { upstream.ServeConn(c) })
		addr := upL.Addr().String()
		up.Dial = func(context.Context) (dnstransport.Resolver, error) {
			return dnstransport.NewTCPClient(func(ctx context.Context) (net.Conn, error) {
				var d net.Dialer
				return d.DialContext(ctx, "tcp", addr)
			}), nil
		}
	}

	s.proxy, err = proxy.New(proxy.Config{
		Upstreams:   []dnstransport.PoolUpstream{up},
		Pool:        dnstransport.PoolConfig{ConnsPerUpstream: 2},
		CacheBudget: cfg.w.cacheBudget, // with a budget, admission defaults to TinyLFU
		Chain:       s.chain,
		UDPListen:   "127.0.0.1:0",
		UDPBatch:    32,
		UDPShards:   1,
		Guard:       unlimitedGuard(),
		Tracing:     &qtrace.Config{},
	})
	if err != nil {
		return nil, err
	}
	// Start also brings up listeners on a private simulated network nobody
	// dials; it is the only way to start the UDPListen sockets.
	if err := s.proxy.Start(netsim.New(1), "proxy"); err != nil {
		return nil, err
	}
	s.udpAddr = s.proxy.UDPAddr().(*net.UDPAddr)

	h, g, tel := s.proxy.Handler(), s.proxy.Guard(), s.proxy.Telemetry()
	tcpL, err := s.listen()
	if err != nil {
		return nil, err
	}
	s.tcpAddr = tcpL.Addr().String()
	tcp := &dnsserver.StreamServer{Handler: h, OutOfOrder: true, Guard: g, Telemetry: tel}
	s.serve(tcpL, func(c net.Conn) { tcp.ServeConn(c) })

	dotL, err := s.listen()
	if err != nil {
		return nil, err
	}
	s.dotAddr = dotL.Addr().String()
	dot := &dnsserver.StreamServer{Handler: h, OutOfOrder: true, Proto: telemetry.ProtoDoT, Guard: g, Telemetry: tel}
	dotTLS := s.chain.ServerConfig(tls.VersionTLS13, tls.VersionTLS13)
	s.serve(dotL, func(c net.Conn) { dot.ServeConn(tls.Server(c, dotTLS)) })

	dohL, err := s.listen()
	if err != nil {
		return nil, err
	}
	s.dohAddr = dohL.Addr().String()
	doh := &dnsserver.DoH{Handler: h, Guard: g, Telemetry: tel}
	dohTLS := s.chain.ServerConfig(tls.VersionTLS13, tls.VersionTLS13, "h2")
	s.serve(dohL, func(c net.Conn) {
		tc := tls.Server(c, dohTLS)
		if err := tc.Handshake(); err != nil {
			tc.Close()
			return
		}
		ctx, cancel := context.WithCancel(guard.NewContext(context.Background(), guard.ClientKey(c.RemoteAddr())))
		defer cancel()
		h2h, _ := doh.Bind(ctx)
		(&h2.Server{Handler: h2h}).ServeConn(tc)
	})
	return s, nil
}

// prewarm pushes the hot set (and the Zipf head) through the handler's
// Message path so the measured phases start from a populated cache.
func (s *stack) prewarm(in *inputs) error {
	wires := in.hot
	if in.w.zipfNames > 0 {
		wires = make([][]byte, zipfPrewarm)
		for r := range wires {
			wires[r] = append([]byte(nil), in.zipfTmpl...)
			putDigits(wires[r], zipfDigits, uint64(r+1))
		}
	}
	h := s.proxy.Handler()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	var (
		wg    sync.WaitGroup
		sem   = make(chan struct{}, openWindow) // concurrent misses in flight
		once  sync.Once
		first error
	)
	for _, wire := range wires {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			var q dnswire.Message
			err := q.Unpack(wire)
			if err == nil {
				var resp *dnswire.Message
				if resp, err = h.ServeDNS(ctx, &q); err == nil && len(resp.Answers) == 0 {
					err = fmt.Errorf("no answer for %s", q.Question1().Name)
				}
			}
			if err != nil {
				once.Do(func() { first = fmt.Errorf("bench: prewarm: %w", err) })
			}
		}()
	}
	wg.Wait()
	return first
}

// close stops the listeners, ends every accepted connection and waits for
// the serving goroutines.
func (s *stack) close() {
	for _, l := range s.listeners {
		l.Close()
	}
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if s.proxy != nil {
		if err := s.proxy.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
			fmt.Println("bench: closing proxy:", err)
		}
	}
	s.wg.Wait()
}
