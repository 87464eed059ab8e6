package dnstransport

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"dohcost/internal/dnswire"
	"dohcost/internal/telemetry"
)

// UDPClient is a classic RFC 1035 stub resolver client: one datagram socket
// multiplexing any number of concurrent queries by transaction ID, with
// timeout-driven retransmission. Figure 2's immunity of UDP to slow-query
// knock-on comes from exactly this independence between exchanges.
type UDPClient struct {
	pc     net.PacketConn
	server net.Addr

	// Timeout is the per-attempt wait; Retries is how many additional
	// attempts follow a timeout.
	Timeout time.Duration
	Retries int
	// Fallback, when set, re-resolves queries whose UDP response arrives
	// truncated (TC=1) — RFC 7766 §5's retry-over-TCP. Without it the
	// truncated response is returned as-is, leaving the caller to cope.
	// The fallback resolver is closed with the client.
	Fallback Resolver
	// Recorder, when set, receives per-exchange costs.
	Recorder CostRecorder

	mu      sync.Mutex
	pending *pendingMap
	nextID  uint16
	closed  bool
}

// NewUDPClient wraps an open packet socket and starts the response
// demultiplexer.
func NewUDPClient(pc net.PacketConn, server net.Addr) *UDPClient {
	c := &UDPClient{
		pc:      pc,
		server:  server,
		Timeout: 2 * time.Second,
		Retries: 2,
		pending: newPendingMap(),
		nextID:  1,
	}
	go c.readLoop()
	return c
}

// Close implements Resolver.
func (c *UDPClient) Close() error {
	c.mu.Lock()
	c.closed = true
	c.pending.failAll()
	c.mu.Unlock()
	if c.Fallback != nil {
		c.Fallback.Close()
	}
	return c.pc.Close()
}

// readLoop hands every datagram to the exchange waiting on its transaction
// ID, copied out of the read buffer into the buffer the exchange registered,
// under the pending lock.
func (c *UDPClient) readLoop() {
	buf := make([]byte, 65535)
	for {
		n, _, err := c.pc.ReadFrom(buf)
		if err != nil {
			c.mu.Lock()
			c.pending.failAll()
			c.mu.Unlock()
			return
		}
		c.mu.Lock()
		c.pending.deliver(buf[:n])
		c.mu.Unlock()
	}
}

// Exchange implements Resolver over ExchangeWire.
func (c *UDPClient) Exchange(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	return ExchangeMessage(ctx, c, q)
}

// ExchangeWire implements WireResolver: query is sent, and after a timeout
// re-sent, under one transaction ID from the client's sequence, and the read
// loop copies the response into dst. A truncated response sent to the TCP
// Fallback is overwritten by the fallback's.
func (c *UDPClient) ExchangeWire(ctx context.Context, query, dst []byte) ([]byte, error) {
	start := time.Now()
	qid, err := queryID(query)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	id, ch, err := c.pending.reserve(c.nextID, dst)
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	c.nextID = id + 1
	c.mu.Unlock()

	// The datagram is the caller's query under the client's ID, in a pooled
	// copy that lives across every retransmit.
	bp := packBufPool.Get().(*[]byte)
	defer packBufPool.Put(bp)
	wire := append((*bp)[:0], query...)
	*bp = wire[:0]
	dnswire.PatchID(wire, id)

	tx := telemetry.FromContext(ctx)
	var payloads []int
	for attempt := 0; attempt <= c.Retries; attempt++ {
		if attempt > 0 {
			// A dropped query or response surfaces here as a per-attempt
			// timeout; the retransmission is telemetry-visible so impaired
			// paths show their loss rate, not just their tail latency.
			tx.UDPRetransmit()
		}
		if _, err := c.pc.WriteTo(wire, c.server); err != nil {
			c.unregister(id)
			return nil, fmt.Errorf("dnstransport: udp send: %w", err)
		}
		payloads = append(payloads, len(wire))
		tx.AddBytesSent(len(wire))

		timer := time.NewTimer(c.Timeout)
		select {
		case resp, ok := <-ch:
			timer.Stop()
			if !ok {
				return nil, ErrClosed
			}
			releaseWaiter(ch)
			reply := resp[len(dst):]
			if err := dnswire.ValidateResponseWire(query, id, reply); err != nil {
				return nil, err
			}
			tx.AddBytesReceived(len(reply))
			// The UDP attempt's payloads went over the wire whatever
			// follows, so they are recorded here.
			c.record(Cost{
				UDPPayloads: append(payloads, len(reply)),
				Duration:    time.Since(start),
			})
			if reply[2]&0x02 != 0 && c.Fallback != nil {
				// RFC 7766 §5: a TC=1 answer is a referral to TCP, not an
				// answer. The fallback's TCP leg is accounted by the
				// fallback's own Recorder.
				tx.TCFallback()
				return AsWire(c.Fallback).ExchangeWire(ctx, query, dst)
			}
			dnswire.PatchID(reply, qid)
			return resp, nil
		case <-ctx.Done():
			timer.Stop()
			c.unregister(id)
			return nil, ctx.Err()
		case <-timer.C:
			// fall through to retransmit
		}
	}
	c.unregister(id)
	return nil, fmt.Errorf("%w after %d attempts", ErrTimeout, c.Retries+1)
}

func (c *UDPClient) unregister(id uint16) {
	c.mu.Lock()
	c.pending.drop(id)
	c.mu.Unlock()
}

func (c *UDPClient) record(cost Cost) {
	if c.Recorder != nil {
		c.Recorder.RecordCost(cost)
	}
}
