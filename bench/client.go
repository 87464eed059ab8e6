package main

import (
	"bufio"
	"context"
	"crypto/tls"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"dohcost/internal/dnsserver"
	"dohcost/internal/dnswire"
	"dohcost/internal/h2"
	"dohcost/internal/hpack"
)

// countConn counts the bytes crossing the client's TCP socket, beneath
// TLS, so the figure includes TLS records and h2 frames.
type countConn struct {
	net.Conn
	n atomic.Uint64
}

func (c *countConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.n.Add(uint64(n))
	return n, err
}

func (c *countConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.n.Add(uint64(n))
	return n, err
}

// udpLink is a connected UDP socket; bytes counts datagram payloads.
type udpLink struct {
	conn *net.UDPConn
	n    atomic.Uint64
	wg   sync.WaitGroup
}

func dialUDP(l *lane, addr *net.UDPAddr) (*udpLink, error) {
	conn, err := net.DialUDP("udp", nil, addr)
	if err != nil {
		return nil, err
	}
	u := &udpLink{conn: conn}
	u.wg.Add(1)
	go func() {
		defer u.wg.Done()
		buf := make([]byte, 4096)
		for {
			n, err := conn.Read(buf)
			if err != nil {
				return
			}
			u.n.Add(uint64(n))
			l.onReply(buf[:n])
		}
	}()
	return u, nil
}

func (u *udpLink) send(q []byte) error {
	u.n.Add(uint64(len(q)))
	_, err := u.conn.Write(q)
	return err
}
func (u *udpLink) bytes() uint64 { return u.n.Load() }
func (u *udpLink) close()        { u.conn.Close(); u.wg.Wait() }

// streamLink is the minimal framed client for TCP and DoT: one goroutine
// writes length-prefixed queries, one reads length-prefixed replies.
type streamLink struct {
	conn net.Conn
	raw  *countConn
	wg   sync.WaitGroup
}

// dialStream connects to addr, over TLS when cfg is non-nil.
func dialStream(l *lane, addr string, cfg *tls.Config) (*streamLink, error) {
	tcp, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &streamLink{raw: &countConn{Conn: tcp}}
	s.conn = s.raw
	if cfg != nil {
		tc := tls.Client(s.raw, cfg)
		if err := tc.Handshake(); err != nil {
			tcp.Close()
			return nil, fmt.Errorf("bench: tls handshake with %s: %w", addr, err)
		}
		s.conn = tc
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		r := bufio.NewReaderSize(s.conn, 32<<10)
		buf := make([]byte, dnswire.MaxMessageLen)
		for {
			reply, err := readFrame(r, buf)
			if err != nil {
				return
			}
			l.onReply(reply)
		}
	}()
	return s, nil
}

func (s *streamLink) send(q []byte) error { return dnsserver.WriteStreamMessage(s.conn, q) }
func (s *streamLink) bytes() uint64       { return s.raw.n.Load() }
func (s *streamLink) close()              { s.conn.Close(); s.wg.Wait() }

// dohLink drives h2.ClientConn.RoundTrip directly with the pre-packed
// POST body. RoundTrip blocks, so a fixed set of workers, as many as
// there are slots, carries the in-flight requests.
type dohLink struct {
	cc   *h2.ClientConn
	raw  *countConn
	jobs chan dohJob
	wg   sync.WaitGroup
}

type dohJob struct {
	id uint16 // read before the slot can be reused
	q  []byte
}

var dohHeaders = []hpack.HeaderField{
	{Name: "content-type", Value: dnsserver.ContentTypeWire},
	{Name: "accept", Value: dnsserver.ContentTypeWire},
}

func dialDoH(l *lane, addr string, cfg *tls.Config) (*dohLink, error) {
	tcp, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	d := &dohLink{raw: &countConn{Conn: tcp}, jobs: make(chan dohJob)}
	tc := tls.Client(d.raw, cfg)
	if err := tc.Handshake(); err != nil {
		tcp.Close()
		return nil, fmt.Errorf("bench: tls handshake with %s: %w", addr, err)
	}
	if d.cc, err = h2.NewClientConn(tc); err != nil {
		tc.Close()
		return nil, err
	}
	for i := 0; i < openWindow; i++ {
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			req := h2.Request{Method: "POST", Scheme: "https", Authority: serverName, Path: "/dns-query", Header: dohHeaders}
			for j := range d.jobs {
				req.Body = j.q
				resp, err := d.cc.RoundTrip(context.Background(), &req)
				if err != nil || resp.Status != 200 {
					l.complete(j.id, nil)
					continue
				}
				l.complete(j.id, resp.Body)
			}
		}()
	}
	return d, nil
}

func (d *dohLink) send(q []byte) error {
	d.jobs <- dohJob{binary.BigEndian.Uint16(q), q}
	return nil
}
func (d *dohLink) bytes() uint64 { return d.raw.n.Load() }

// close fails the requests still in flight (RoundTrip returns on a closed
// connection) and waits for the workers.
func (d *dohLink) close() {
	d.cc.Close()
	close(d.jobs)
	d.wg.Wait()
}

// dial opens lane l's connection to the listener its workload names.
func (s *stack) dial(l *lane) (link, error) {
	switch l.in.w.over {
	case overUDP:
		return dialUDP(l, s.udpAddr)
	case overDoT:
		return dialStream(l, s.dotAddr, s.chain.ClientConfig(serverName))
	default:
		return dialDoH(l, s.dohAddr, s.chain.ClientConfig(serverName, "h2"))
	}
}
