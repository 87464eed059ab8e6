// Package dnstransport implements the client side of every DNS transport
// the study compares, behind one Resolver interface: classic UDP with ID
// demultiplexing and retry, TCP and DNS-over-TLS with RFC 1035 stream
// framing (IDs let the client accept out-of-order replies whenever the
// server is willing to produce them), and DNS-over-HTTPS over this
// repository's HTTP/1.1 (pipelined) and HTTP/2 stacks, in persistent and
// per-query connection modes, with wireformat POST/GET and JSON encodings.
//
// Each client can report a per-exchange Cost — wire bytes, segments and
// packets from the simulated network, plus HTTP/2 frame-layer tallies —
// which is the raw material for Figures 3, 4 and 5.
package dnstransport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"dohcost/internal/dnswire"
	"dohcost/internal/meter"
	"dohcost/internal/netsim"
)

// Resolver is a DNS client over some transport. Implementations are safe
// for concurrent use.
type Resolver interface {
	// Exchange sends q and returns the matching response. The client owns
	// transaction-ID assignment; the caller's q is not mutated.
	Exchange(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error)
	// Close releases connections. The resolver is unusable afterwards.
	Close() error
}

// WireResolver is the optional packed-bytes capability beside Resolver —
// the shape production forwarders converged on — implemented by every
// stage of the forwarding chain whose native form is wire: the transport
// clients, Pool, and the layers a proxy stacks on them. A stage that has
// it implements Exchange as ExchangeMessage over it, so each stage has one
// exchange, not two.
type WireResolver interface {
	// ExchangeWire sends the packed query and appends the matching
	// response, packed, to dst, returning the extended slice — a
	// reallocation when dst's capacity is short. The stage owns
	// transaction-ID assignment on the way up — query is never written to,
	// and may be reused once the call returns — and the response carries
	// query's own ID. A transport client vouches for the ID echo, the QR
	// bit and the echoed question (dnswire.ValidateResponseWire); anything
	// past the question is as the upstream sent it, hostile until scanned.
	// On an error, what lies in dst's spare capacity is undefined. Like
	// query and dst, ctx is the caller's to recycle once the call returns
	// (the cache's is a pooled flight, the server's a slot's): work that
	// outlives the call — a hedged exchange's losing leg — must run under a
	// context, and into a buffer, of its own.
	ExchangeWire(ctx context.Context, query, dst []byte) ([]byte, error)
}

// AsWire returns r's own wire capability, or an adapter that unpacks the
// query, runs r's Message exchange and packs the answer — what a
// Message-only leaf (a test double, the study's handlers) costs behind a
// wire chain. Callers resolve it once per resolver, not per exchange.
func AsWire(r Resolver) WireResolver {
	if w, ok := r.(WireResolver); ok {
		return w
	}
	return messageLeaf{r}
}

type messageLeaf struct{ r Resolver }

func (l messageLeaf) ExchangeWire(ctx context.Context, query, dst []byte) ([]byte, error) {
	q := new(dnswire.Message)
	if err := q.Unpack(query); err != nil {
		return nil, fmt.Errorf("dnstransport: unpacking query: %w", err)
	}
	resp, err := l.r.Exchange(ctx, q)
	if err != nil {
		return nil, err
	}
	wire, err := resp.AppendPack(dst)
	if err != nil {
		return nil, fmt.Errorf("dnstransport: packing response: %w", err)
	}
	// Message resolvers answer under an ID of their own choosing, and resp
	// may be shared: restamp the bytes, not the Message.
	dnswire.PatchID(wire[len(dst):], q.ID)
	return wire, nil
}

// ExchangeMessage is the Message face of a wire stage, the one adapter
// behind every such stage's Exchange: pack q, exchange the bytes, unpack
// the answer.
func ExchangeMessage(ctx context.Context, w WireResolver, q *dnswire.Message) (*dnswire.Message, error) {
	bp := packBufPool.Get().(*[]byte)
	defer packBufPool.Put(bp)
	query, err := q.AppendPack((*bp)[:0])
	if err != nil {
		return nil, fmt.Errorf("dnstransport: packing query: %w", err)
	}
	*bp = query[:0] // keep any growth for the next exchange
	wire, err := w.ExchangeWire(ctx, query, nil)
	if err != nil {
		return nil, err
	}
	resp := new(dnswire.Message)
	if err := resp.Unpack(wire); err != nil {
		return nil, fmt.Errorf("dnstransport: bad response: %w", err)
	}
	return resp, nil
}

// Cost is the measured wire cost of one exchange (or of one connection's
// lifetime for aggregate accounting).
type Cost struct {
	// Wire is the stream-level delta: bytes/segments/packets both ways.
	// Zero for UDP.
	Wire netsim.ConnStats
	// H2 is the HTTP/2 frame-layer delta; zero for non-DoH transports.
	H2 meter.H2Layer
	// UDPPayloads lists the datagram payload sizes of the exchange
	// (queries sent, including retries, and the response received).
	UDPPayloads []int
	// IncludesSetup reports whether connection establishment (TCP
	// handshake, TLS handshake, HTTP/2 preface/SETTINGS) happened within
	// this exchange and is included in the deltas.
	IncludesSetup bool
	// Duration is the caller-visible resolution time.
	Duration time.Duration
}

// WireCost folds the cost into the paper's bytes/packets pair (Figures 3-4).
func (c Cost) WireCost() meter.WireCost {
	if len(c.UDPPayloads) > 0 {
		return meter.UDPWireCost(c.UDPPayloads)
	}
	return meter.TCPWireCost(c.Wire, c.IncludesSetup)
}

// Breakdown folds the cost into the paper's per-layer stack (Figure 5).
func (c Cost) Breakdown() meter.Breakdown {
	return meter.ComposeBreakdown(c.Wire, c.H2, c.IncludesSetup)
}

// CostRecorder receives per-exchange costs.
type CostRecorder interface {
	RecordCost(c Cost)
}

// CostFunc adapts a function to CostRecorder.
type CostFunc func(Cost)

// RecordCost implements CostRecorder.
func (f CostFunc) RecordCost(c Cost) { f(c) }

// Transport errors.
var (
	ErrClosed  = errors.New("dnstransport: resolver closed")
	ErrTimeout = errors.New("dnstransport: query timed out")
	// ErrBackoff marks a pool connection checkout refused locally because
	// the slot is still in redial backoff: nothing touched the network, so
	// it is bookkeeping, not fresh evidence against the upstream. Match
	// with errors.Is.
	ErrBackoff = errors.New("dnstransport: connection in redial backoff")
)

// dialTimeout caps connection establishment (dial, TLS handshake, HTTP
// setup) independently of the exchange context: a blackholed address must
// not eat a caller's whole query budget. Connection setup is the cost the
// paper's Figures 3–5 dwell on; five seconds is far beyond any honest
// handshake and exists only to put a floor under blackholed paths.
const dialTimeout = 5 * time.Second

// statsConn is the wire-statistics capability of simulated connections.
type statsConn interface {
	Stats() netsim.ConnStats
}

// wireStats unwraps a connection stack down to the simulated network layer
// and snapshots its counters; connections without stats report zero.
func wireStats(conn net.Conn) netsim.ConnStats {
	if sc, ok := conn.(statsConn); ok {
		return sc.Stats()
	}
	return netsim.ConnStats{}
}

// queryID reads the transaction ID an ExchangeWire caller's response must
// carry, rejecting bytes too short to be a DNS message.
func queryID(query []byte) (uint16, error) {
	if len(query) < 12 {
		return 0, fmt.Errorf("dnstransport: query: %w", dnswire.ErrShortMessage)
	}
	return binary.BigEndian.Uint16(query), nil
}

// packBufPool recycles ExchangeMessage's query-packing scratch. Queries are
// small (a question plus OPT), so the buffers start at 512 bytes and the
// pool keeps whatever growth padding or long names forced.
var packBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// pendingMap tracks in-flight queries by transaction ID. Its owner's lock
// guards it, and a read loop delivers under that lock: a waiter's response
// is copied out of the read loop's buffer into the dst it registered, so
// once drop has unregistered a waiter — under the same lock — nothing
// writes to its dst again.
type pendingMap struct {
	w map[uint16]waiter
}

// waiter is one in-flight exchange: where its response goes, and how it
// learns the response is there — the extended dst arrives on ch.
type waiter struct {
	ch  chan []byte
	dst []byte
}

func newPendingMap() *pendingMap {
	return &pendingMap{w: make(map[uint16]waiter)}
}

// waiterPool recycles waiter channels. A channel goes back only from the
// exchange that received its one response (releaseWaiter): by then deliver
// has unregistered it, so it is empty, open, and unreachable from any read
// loop. Abandoned and failed waiters are left to the collector.
var waiterPool = sync.Pool{New: func() any { return make(chan []byte, 1) }}

func releaseWaiter(ch chan []byte) { waiterPool.Put(ch) }

// reserve registers a waiter appending its response to dst under a free ID,
// starting from a hint.
func (p *pendingMap) reserve(hint uint16, dst []byte) (uint16, chan []byte, error) {
	id := hint
	for i := 0; i < 65536; i++ {
		if _, taken := p.w[id]; !taken {
			ch := waiterPool.Get().(chan []byte)
			p.w[id] = waiter{ch: ch, dst: dst}
			return id, ch, nil
		}
		id++
	}
	return 0, nil, fmt.Errorf("dnstransport: no free transaction IDs")
}

// deliver hands msg, a response in the read loop's buffer, to the waiter for
// the transaction ID it carries — unregistered, its dst extended by a copy
// of msg — or drops it when nobody waits for it (too short to carry an ID,
// late, unsolicited).
func (p *pendingMap) deliver(msg []byte) {
	if len(msg) < 2 {
		return
	}
	id := binary.BigEndian.Uint16(msg)
	if w, ok := p.w[id]; ok {
		delete(p.w, id)
		w.ch <- append(w.dst, msg...)
	}
}

func (p *pendingMap) drop(id uint16) { delete(p.w, id) }

// failAll closes every waiter's channel, signalling an error.
func (p *pendingMap) failAll() {
	for id, w := range p.w {
		close(w.ch)
		delete(p.w, id)
	}
}
