package dnstransport

import (
	"context"
	"crypto/tls"
	"fmt"
	"net"
	"sync"
	"time"

	"dohcost/internal/dnsserver"
	"dohcost/internal/dnswire"
	"dohcost/internal/netsim"
	"dohcost/internal/telemetry"
)

// StreamClient resolves over a stream transport with RFC 1035 two-octet
// length framing: plain TCP, or DNS-over-TLS when the dialer performs a TLS
// handshake. Concurrent queries are written onto the connection as they
// arrive and responses are matched by transaction ID, so a server willing
// to answer out of order (Cloudflare-style DoT) is fully exploited — and a
// server that serializes (the common case the paper found) produces exactly
// the knock-on delays of Figure 2.
type StreamClient struct {
	dial func(ctx context.Context) (net.Conn, error)

	// Persistent keeps one connection across exchanges; otherwise each
	// exchange dials, resolves and closes.
	Persistent bool
	// Recorder, when set, receives per-exchange costs. On persistent
	// connections costs are per-exchange deltas.
	Recorder CostRecorder

	mu        sync.Mutex
	conn      net.Conn
	raw       net.Conn // bottom of the stack, for wire stats
	pending   *pendingMap
	nextID    uint16
	lastStats netsim.ConnStats
	closed    bool
	genmu     sync.Mutex // serializes connection (re)establishment
}

// NewTCPClient builds a StreamClient over plain TCP. The dial function
// receives the dial context (the exchange context capped by dialTimeout)
// and must honor its cancellation.
func NewTCPClient(dial func(ctx context.Context) (net.Conn, error)) *StreamClient {
	return &StreamClient{dial: dial, Persistent: true, pending: newPendingMap(), nextID: 1}
}

// NewDoTClient builds a StreamClient that performs a TLS handshake over the
// dialed connection (RFC 7858). cfg must carry trust anchors and server
// name. The dial context covers the TLS handshake too, so a stalled
// middlebox cannot hold the exchange past the dial budget.
func NewDoTClient(dial func(ctx context.Context) (net.Conn, error), cfg *tls.Config) *StreamClient {
	return &StreamClient{
		dial: func(ctx context.Context) (net.Conn, error) {
			raw, err := dial(ctx)
			if err != nil {
				return nil, err
			}
			tc := tls.Client(raw, cfg)
			if err := tc.HandshakeContext(ctx); err != nil {
				raw.Close()
				return nil, fmt.Errorf("dnstransport: dot handshake: %w", err)
			}
			return tc, nil
		},
		Persistent: true,
		pending:    newPendingMap(),
		nextID:     1,
	}
}

// Close implements Resolver.
func (c *StreamClient) Close() error {
	c.mu.Lock()
	c.closed = true
	conn := c.conn
	c.conn = nil
	c.pending.failAll()
	c.mu.Unlock()
	if conn != nil {
		return conn.Close()
	}
	return nil
}

// ensureConn returns the live connection, dialing if necessary, and reports
// whether this call established it. Dials run under ctx capped by
// dialTimeout, so a caller's deadline always bounds connection setup.
func (c *StreamClient) ensureConn(ctx context.Context) (net.Conn, bool, error) {
	c.genmu.Lock()
	defer c.genmu.Unlock()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, false, ErrClosed
	}
	if c.conn != nil {
		conn := c.conn
		c.mu.Unlock()
		return conn, false, nil
	}
	c.mu.Unlock()

	dctx, cancel := context.WithTimeout(ctx, dialTimeout)
	conn, err := c.dial(dctx)
	cancel()
	if err != nil {
		return nil, false, err
	}
	raw := unwrapRaw(conn)
	c.mu.Lock()
	c.conn = conn
	c.raw = raw
	// Fresh connection: charge its TLS/TCP setup bytes to the first
	// exchange rather than silently discarding them.
	c.lastStats = netsim.ConnStats{}
	c.mu.Unlock()
	go c.readLoop(conn)
	return conn, true, nil
}

// unwrapRaw digs beneath a TLS layer to the transport conn for statistics.
func unwrapRaw(conn net.Conn) net.Conn {
	if tc, ok := conn.(*tls.Conn); ok {
		return tc.NetConn()
	}
	return conn
}

// replyBufLen is a stream connection's reply buffer: any ordinary DNS
// reply. A longer one is read into a slice of its own.
const replyBufLen = 4096

// readLoop reads every framed response into the connection's reply buffer
// and copies it, under the pending lock, into the buffer of the exchange
// waiting on its transaction ID. It vouches for nothing but the framing:
// the waiter validates what it is handed.
func (c *StreamClient) readLoop(conn net.Conn) {
	r := dnsserver.StreamReader(conn)
	buf := make([]byte, replyBufLen)
	for {
		wire, err := dnsserver.ReadStreamMessageInto(r, buf)
		if err != nil {
			c.dropConn(conn)
			return
		}
		c.mu.Lock()
		c.pending.deliver(wire)
		c.mu.Unlock()
	}
}

// dropConn abandons a broken connection; pending queries fail and the next
// exchange redials.
func (c *StreamClient) dropConn(conn net.Conn) {
	conn.Close()
	c.mu.Lock()
	if c.conn == conn {
		c.conn = nil
	}
	c.pending.failAll()
	c.mu.Unlock()
}

// Exchange implements Resolver over ExchangeWire.
func (c *StreamClient) Exchange(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	return ExchangeMessage(ctx, c, q)
}

// ExchangeWire implements WireResolver: query leaves in one framed write
// under a transaction ID from the client's sequence, patched into the
// frame's own copy of it, and the read loop copies the response into dst.
func (c *StreamClient) ExchangeWire(ctx context.Context, query, dst []byte) ([]byte, error) {
	start := time.Now()
	qid, err := queryID(query)
	if err != nil {
		return nil, err
	}
	conn, fresh, err := c.ensureConn(ctx)
	if err != nil {
		return nil, err
	}

	c.mu.Lock()
	id, ch, err := c.pending.reserve(c.nextID, dst)
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	c.nextID = id + 1
	c.mu.Unlock()

	if err := dnsserver.WriteStreamMessageID(conn, query, id); err != nil {
		c.unregister(id)
		c.dropConn(conn)
		return nil, fmt.Errorf("dnstransport: stream send: %w", err)
	}
	tx := telemetry.FromContext(ctx)
	tx.AddBytesSent(len(query))

	select {
	case resp, ok := <-ch:
		if !ok {
			return nil, fmt.Errorf("dnstransport: connection failed mid-query")
		}
		releaseWaiter(ch)
		reply := resp[len(dst):]
		if err := dnswire.ValidateResponseWire(query, id, reply); err != nil {
			return nil, err
		}
		dnswire.PatchID(reply, qid)
		tx.AddBytesReceived(len(reply))
		c.finish(conn, fresh, start)
		return resp, nil
	case <-ctx.Done():
		c.unregister(id)
		return nil, ctx.Err()
	}
}

// finish records cost and closes per-query connections.
func (c *StreamClient) finish(conn net.Conn, fresh bool, start time.Time) {
	if c.Recorder != nil {
		c.mu.Lock()
		now := wireStats(c.raw)
		delta := now.Sub(c.lastStats)
		c.lastStats = now
		c.mu.Unlock()
		c.Recorder.RecordCost(Cost{
			Wire:          delta,
			IncludesSetup: fresh,
			Duration:      time.Since(start),
		})
	}
	if !c.Persistent {
		c.dropConn(conn)
	}
}

func (c *StreamClient) unregister(id uint16) {
	c.mu.Lock()
	c.pending.drop(id)
	c.mu.Unlock()
}
