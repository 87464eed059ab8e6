package netsim

import (
	"io"
	"net"
	"sync"
	"time"
)

// segment is one timed unit of data in flight. Stream reads never coalesce
// across segments that have not yet "arrived", so per-flight timing is
// preserved.
type segment struct {
	data []byte
	at   time.Time // delivery time
}

// halfConn is one direction of a stream connection: an ordered queue of
// timed segments with deadline-aware blocking reads.
type halfConn struct {
	mu       sync.Mutex
	cond     *sync.Cond
	queue    []segment
	pos      int // read offset into queue[0].data
	closed   bool
	deadline time.Time
	lastAt   time.Time // monotone delivery horizon (keeps FIFO under jitter)

	// Wire accounting, updated per push. Packets counts MSS-sized slices of
	// each segment: one Write that fits in the MSS is one packet. Retrans
	// counts packets the link lost and the simulated TCP re-sent.
	bytes    int64
	segments int64
	packets  int64
	retrans  int64
}

func newHalf() *halfConn {
	h := &halfConn{}
	h.cond = sync.NewCond(&h.mu)
	return h
}

// push enqueues a copy of data for delivery after delay (plus serialization
// at the link rate). It never blocks: the sender has already paid its
// modelled costs, and TCP send buffers absorb the rest. packets and retrans
// are the flight's wire accounting, already sampled by the caller.
func (h *halfConn) push(data []byte, delay, transmission time.Duration, packets, retrans int64) {
	cp := make([]byte, len(data))
	copy(cp, data)
	now := time.Now()
	h.mu.Lock()
	at := now.Add(delay)
	if at.Before(h.lastAt) {
		at = h.lastAt // preserve ordering under jitter
	}
	at = at.Add(transmission)
	h.lastAt = at
	h.queue = append(h.queue, segment{data: cp, at: at})
	h.bytes += int64(len(data))
	h.segments++
	h.packets += packets
	h.retrans += retrans
	h.mu.Unlock()
	h.cond.Broadcast()
}

// stats returns the accumulated push-side counters.
func (h *halfConn) stats() (bytes, segments, packets, retrans int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.bytes, h.segments, h.packets, h.retrans
}

// closeWrite marks the stream finished; readers drain then see EOF.
func (h *halfConn) closeWrite() {
	h.mu.Lock()
	h.closed = true
	h.mu.Unlock()
	h.cond.Broadcast()
}

// setDeadline updates the read deadline and wakes blocked readers so they
// can re-evaluate.
func (h *halfConn) setDeadline(t time.Time) {
	h.mu.Lock()
	h.deadline = t
	h.mu.Unlock()
	h.cond.Broadcast()
}

// read blocks until data has arrived, the stream is closed, or the deadline
// passes.
func (h *halfConn) read(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		now := time.Now()
		if !h.deadline.IsZero() && !now.Before(h.deadline) {
			return 0, &timeoutError{op: "read"}
		}
		if len(h.queue) > 0 && !h.queue[0].at.After(now) {
			seg := &h.queue[0]
			n := copy(p, seg.data[h.pos:])
			h.pos += n
			if h.pos >= len(seg.data) {
				h.queue = h.queue[1:]
				h.pos = 0
			}
			return n, nil
		}
		if len(h.queue) == 0 && h.closed {
			return 0, io.EOF
		}
		// Sleep until the earliest of: segment arrival, deadline, or a
		// broadcast (new data, close, deadline change).
		var wake time.Time
		if len(h.queue) > 0 {
			wake = h.queue[0].at
		}
		if !h.deadline.IsZero() && (wake.IsZero() || h.deadline.Before(wake)) {
			wake = h.deadline
		}
		var timer *time.Timer
		if !wake.IsZero() {
			// The callback must take the lock before broadcasting: it can
			// only acquire it once cond.Wait below has registered this
			// goroutine, which closes the missed-wakeup window for timers
			// that would otherwise fire between here and Wait.
			timer = time.AfterFunc(time.Until(wake), func() {
				h.mu.Lock()
				h.cond.Broadcast()
				h.mu.Unlock()
			})
		}
		h.cond.Wait()
		if timer != nil {
			timer.Stop()
		}
	}
}

// Conn is one end of a simulated stream connection. It implements net.Conn.
type Conn struct {
	local, remote Addr
	in            *halfConn  // peer → us
	out           *halfConn  // us → peer
	link          *linkState // applied to our writes
	net           *Network

	mu     sync.Mutex
	closed bool
}

var _ net.Conn = (*Conn)(nil)

// Read implements net.Conn.
func (c *Conn) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	n, err := c.in.read(p)
	if err == io.EOF {
		c.mu.Lock()
		selfClosed := c.closed
		c.mu.Unlock()
		if selfClosed {
			return n, net.ErrClosed
		}
	}
	return n, err
}

// Write implements net.Conn. Each call becomes one segment on the wire,
// packetized at the link's effective MSS. On lossy links, lost packets are
// retransmitted by the simulated TCP: delivery of the segment (and, via
// FIFO ordering, of everything behind it) is delayed one RTO per
// retransmission, which is exactly the loss-induced head-of-line cost the
// degraded-network experiments measure.
func (c *Conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return 0, net.ErrClosed
	}
	if len(p) == 0 {
		return 0, nil
	}
	if c.net.connSevered(c.local, c.remote) {
		// A flap window covers one endpoint: the path is gone, so the write
		// surfaces as a reset instead of silently queueing — severing
		// established connections is the point of the flap schedule.
		return 0, errLinkDown("write", string(c.remote))
	}
	mss := c.link.mss()
	packets := int64((len(p) + mss - 1) / mss)
	retrans := c.link.streamRetransmits(packets)
	delay := c.link.delay() + time.Duration(retrans)*c.link.rto()
	c.out.push(p, delay, c.link.transmission(len(p)), packets, retrans)
	return len(p), nil
}

// ConnStats is the wire-level accounting of one stream connection:
// bytes, write flights (segments), MSS-sized packets, and loss-triggered
// retransmissions per direction. "Out" is this endpoint's transmissions,
// "In" is the peer's. Retransmissions are counted separately from Packets
// so the paper's steady-state byte/packet figures stay comparable across
// impairment profiles; the latency cost of each retransmission is already
// charged on the wire as one RTO of added delivery delay.
type ConnStats struct {
	OutBytes    int64
	OutSegments int64
	OutPackets  int64
	OutRetrans  int64
	InBytes     int64
	InSegments  int64
	InPackets   int64
	InRetrans   int64
}

// Total returns the byte total across both directions.
func (s ConnStats) Total() int64 { return s.OutBytes + s.InBytes }

// Sub returns s - prev, for per-request delta accounting on persistent
// connections.
func (s ConnStats) Sub(prev ConnStats) ConnStats {
	return ConnStats{
		OutBytes:    s.OutBytes - prev.OutBytes,
		OutSegments: s.OutSegments - prev.OutSegments,
		OutPackets:  s.OutPackets - prev.OutPackets,
		OutRetrans:  s.OutRetrans - prev.OutRetrans,
		InBytes:     s.InBytes - prev.InBytes,
		InSegments:  s.InSegments - prev.InSegments,
		InPackets:   s.InPackets - prev.InPackets,
		InRetrans:   s.InRetrans - prev.InRetrans,
	}
}

// Stats snapshots the connection's wire counters. Both directions are
// visible from either endpoint.
func (c *Conn) Stats() ConnStats {
	ob, os, op, or := c.out.stats()
	ib, is, ip, ir := c.in.stats()
	return ConnStats{
		OutBytes: ob, OutSegments: os, OutPackets: op, OutRetrans: or,
		InBytes: ib, InSegments: is, InPackets: ip, InRetrans: ir,
	}
}

// Close shuts down both directions. The peer drains queued data and then
// reads EOF, matching TCP FIN semantics.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.out.closeWrite()
	c.in.closeWrite() // our own pending reads drain, then fail
	return nil
}

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return c.local }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return c.remote }

// SetDeadline implements net.Conn.
func (c *Conn) SetDeadline(t time.Time) error {
	c.in.setDeadline(t)
	return nil
}

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.in.setDeadline(t)
	return nil
}

// SetWriteDeadline implements net.Conn. Writes never block in the simulator
// (send buffers are unbounded), so the deadline is accepted and ignored.
func (c *Conn) SetWriteDeadline(time.Time) error { return nil }
