package main

import (
	"io"
	"net"
	"sync"
	"time"

	"dohcost/internal/udpio"
)

// This file holds the in-memory transports the layer replay puts under
// serving loops and protocol stacks, so a layer's figure carries no socket.

// memPipe is one direction of a memConn: an unbounded buffered byte
// stream. (net.Pipe is unbuffered — every Write would wait for the reader,
// and the figure would be goroutine handoffs.)
type memPipe struct {
	mu     sync.Mutex
	cond   sync.Cond
	buf    []byte
	off    int
	closed bool
}

func newMemPipe() *memPipe {
	p := &memPipe{}
	p.cond.L = &p.mu
	return p
}

func (p *memPipe) Read(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.off == len(p.buf) {
		if p.closed {
			return 0, io.EOF
		}
		p.cond.Wait()
	}
	n := copy(b, p.buf[p.off:])
	if p.off += n; p.off == len(p.buf) {
		p.buf, p.off = p.buf[:0], 0
	}
	return n, nil
}

func (p *memPipe) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0, io.ErrClosedPipe
	}
	p.buf = append(p.buf, b...)
	p.cond.Signal()
	return len(b), nil
}

func (p *memPipe) close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
}

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem:1" }

// memConn is one end of an in-memory duplex connection.
type memConn struct{ r, w *memPipe }

func memPair() (*memConn, *memConn) {
	a, b := newMemPipe(), newMemPipe()
	return &memConn{r: a, w: b}, &memConn{r: b, w: a}
}

func (c *memConn) Read(b []byte) (int, error)       { return c.r.Read(b) }
func (c *memConn) Write(b []byte) (int, error)      { return c.w.Write(b) }
func (c *memConn) Close() error                     { c.r.close(); c.w.close(); return nil }
func (c *memConn) LocalAddr() net.Addr              { return memAddr{} }
func (c *memConn) RemoteAddr() net.Addr             { return memAddr{} }
func (c *memConn) SetDeadline(time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

// memSocket is a datagram endpoint fed by the replay: it serves as both
// the udpio.BatchConn under UDPServer.ServeBatch and the net.PacketConn
// under UDPServer.Serve. Each value sent on in is one batch the next
// ReadBatch returns whole (ReadFrom hands its datagrams out one at a
// time); every datagram the server writes is counted on out.
type memSocket struct {
	in      chan [][]byte
	out     chan int
	mu      sync.Mutex // ReadFrom is called from several reader goroutines
	pending [][]byte
	once    sync.Once
}

func newMemSocket() *memSocket {
	// out is buffered so the serving loop never waits for the replay to
	// collect a count; the replay has at most one batch outstanding.
	return &memSocket{in: make(chan [][]byte), out: make(chan int, udpio.MaxBatch)}
}

func (s *memSocket) ReadBatch(ms []udpio.Message) (int, error) {
	batch, ok := <-s.in
	if !ok {
		return 0, net.ErrClosed
	}
	for i, d := range batch {
		ms[i].N = copy(ms[i].Buf, d)
		ms[i].Addr = memAddr{}
	}
	return len(batch), nil
}

func (s *memSocket) WriteBatch(ms []udpio.Message) (int, error) {
	s.out <- len(ms)
	return len(ms), nil
}

func (s *memSocket) ReadFrom(b []byte) (int, net.Addr, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pending) == 0 {
		batch, ok := <-s.in
		if !ok {
			return 0, nil, net.ErrClosed
		}
		s.pending = batch
	}
	n := copy(b, s.pending[0])
	s.pending = s.pending[1:]
	return n, memAddr{}, nil
}

func (s *memSocket) WriteTo(b []byte, _ net.Addr) (int, error) {
	s.out <- 1
	return len(b), nil
}

// serve hands one batch to the serving loop and waits until it has written
// a reply to every datagram.
func (s *memSocket) serve(batch [][]byte) {
	s.in <- batch
	for n := 0; n < len(batch); {
		n += <-s.out
	}
}

func (s *memSocket) Close() error                     { s.once.Do(func() { close(s.in) }); return nil }
func (s *memSocket) LocalAddr() net.Addr              { return memAddr{} }
func (s *memSocket) SetDeadline(time.Time) error      { return nil }
func (s *memSocket) SetReadDeadline(time.Time) error  { return nil }
func (s *memSocket) SetWriteDeadline(time.Time) error { return nil }
func (s *memSocket) Batched() bool                    { return true }
