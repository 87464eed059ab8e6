// Package meter turns the raw wire observations of the simulated network
// into the quantities the paper reports: total bytes per resolution
// (Figure 3), total packets per resolution (Figure 4), and the per-layer
// breakdown Body / Hdr / Mgmt / TLS / TCP (Figure 5).
//
// The ground truth comes from two places. netsim connections count the
// bytes, write flights and MSS-sized packets of the encrypted stream; this
// package layers a TCP header/ACK/handshake model on top. Inside the TLS
// session, this repository's own HTTP/2 stack reports exact per-frame-class
// byte tallies, so the TLS layer's cost falls out as wire bytes minus
// HTTP/2 bytes — no pcap inference needed.
package meter

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync/atomic"

	"dohcost/internal/netsim"
)

// Per-packet header cost assumptions, matching a typical Linux sender on
// Ethernet: 20 bytes IPv4 + 20 bytes TCP + 12 bytes timestamp option, and
// 20 bytes IPv4 + 8 bytes UDP.
const (
	TCPPacketHeaderBytes = 52
	UDPPacketHeaderBytes = 28
	// TCPHandshakePackets is SYN, SYN-ACK, ACK.
	TCPHandshakePackets = 3
	// TCPTeardownPackets is FIN, ACK, FIN, ACK.
	TCPTeardownPackets = 4
	// tcpHandshakeExtraBytes covers the larger SYN/SYN-ACK option blocks
	// (MSS, window scale, SACK-permitted) beyond the steady-state 52.
	tcpHandshakeExtraBytes = 8
)

// TCPAccounting decomposes one connection's packet costs.
type TCPAccounting struct {
	DataPackets      int64 // MSS-sliced data segments, both directions
	AckPackets       int64 // pure ACKs under delayed-ACK (one per two data packets)
	HandshakePackets int64
	TeardownPackets  int64
}

// TotalPackets sums all packet classes.
func (a TCPAccounting) TotalPackets() int64 {
	return a.DataPackets + a.AckPackets + a.HandshakePackets + a.TeardownPackets
}

// HeaderBytes is the TCP+IP header cost of every packet in the accounting.
func (a TCPAccounting) HeaderBytes() int64 {
	return a.TotalPackets()*TCPPacketHeaderBytes + a.HandshakePackets*tcpHandshakeExtraBytes
}

// AccountTCP models packets for the observed stream traffic. Set
// includeSetup for connections whose establishment and teardown should be
// charged to this sample (non-persistent connections), and leave it false
// for per-request deltas on persistent connections.
func AccountTCP(stats netsim.ConnStats, includeSetup bool) TCPAccounting {
	a := TCPAccounting{
		DataPackets: stats.OutPackets + stats.InPackets,
	}
	// Delayed ACK: receivers emit roughly one pure ACK per two incoming
	// data packets. Both endpoints do this.
	a.AckPackets = (stats.OutPackets+1)/2 + (stats.InPackets+1)/2
	if includeSetup {
		a.HandshakePackets = TCPHandshakePackets
		a.TeardownPackets = TCPTeardownPackets
	}
	return a
}

// WireCost is the paper's per-resolution cost pair.
type WireCost struct {
	Bytes   int64
	Packets int64
}

// String renders the pair the way EXPERIMENTS.md tabulates it.
func (w WireCost) String() string {
	return fmt.Sprintf("%d bytes / %d packets", w.Bytes, w.Packets)
}

// TCPWireCost converts stream stats into total on-the-wire cost including
// TCP/IP headers.
func TCPWireCost(stats netsim.ConnStats, includeSetup bool) WireCost {
	acct := AccountTCP(stats, includeSetup)
	return WireCost{
		Bytes:   stats.Total() + acct.HeaderBytes(),
		Packets: acct.TotalPackets(),
	}
}

// UDPWireCost is the cost of a datagram exchange: every datagram is one
// packet plus IP+UDP headers.
func UDPWireCost(payloadBytes []int) WireCost {
	var w WireCost
	for _, n := range payloadBytes {
		w.Packets++
		w.Bytes += int64(n) + UDPPacketHeaderBytes
	}
	return w
}

// Breakdown is Figure 5's per-layer decomposition of one DoH resolution.
// Bytes in each bucket cover both directions.
type Breakdown struct {
	Body int64 // HTTP/2 DATA payloads (the DNS messages themselves)
	Hdr  int64 // HEADERS/CONTINUATION payloads (HPACK-compressed headers)
	Mgmt int64 // frame headers, SETTINGS/WINDOW_UPDATE/PING/GOAWAY, preface
	TLS  int64 // TLS records minus embedded HTTP/2 bytes (handshake, tags…)
	TCP  int64 // TCP/IP packet headers
}

// Total sums all layers; it equals the Figure 3 byte cost.
func (b Breakdown) Total() int64 { return b.Body + b.Hdr + b.Mgmt + b.TLS + b.TCP }

// String renders one compact line.
func (b Breakdown) String() string {
	return fmt.Sprintf("body=%d hdr=%d mgmt=%d tls=%d tcp=%d total=%d",
		b.Body, b.Hdr, b.Mgmt, b.TLS, b.TCP, b.Total())
}

// H2Layer is the per-frame-class byte view this repository's HTTP/2 stack
// exports (internal/h2 produces it; meter consumes it without importing h2
// to keep the dependency arrow pointing upward).
type H2Layer struct {
	BodyBytes  int64 // DATA payload bytes
	HdrBytes   int64 // HEADERS + CONTINUATION payload bytes
	MgmtBytes  int64 // all frame headers + management frame payloads + preface
	TotalBytes int64 // everything HTTP/2 handed to TLS
}

// ComposeBreakdown assembles Figure 5's stack for one resolution from the
// three observation points.
func ComposeBreakdown(wire netsim.ConnStats, h2 H2Layer, includeSetup bool) Breakdown {
	acct := AccountTCP(wire, includeSetup)
	tlsOverhead := wire.Total() - h2.TotalBytes
	if tlsOverhead < 0 {
		tlsOverhead = 0
	}
	return Breakdown{
		Body: h2.BodyBytes,
		Hdr:  h2.HdrBytes,
		Mgmt: h2.MgmtBytes,
		TLS:  tlsOverhead,
		TCP:  acct.HeaderBytes(),
	}
}

// CountingConn wraps a net.Conn and tallies the bytes crossing it. Placed
// between an application protocol and TLS it measures plaintext; placed
// under TLS it measures ciphertext. Counters are safe for concurrent use.
type CountingConn struct {
	net.Conn
	out atomic.Int64
	in  atomic.Int64
}

// Read implements net.Conn.
func (c *CountingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(int64(n))
	return n, err
}

// Write implements net.Conn.
func (c *CountingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	return n, err
}

// BytesOut reports bytes written through the wrapper.
func (c *CountingConn) BytesOut() int64 { return c.out.Load() }

// BytesIn reports bytes read through the wrapper.
func (c *CountingConn) BytesIn() int64 { return c.in.Load() }

// TLS record content types (RFC 8446 §5.1).
const (
	RecordChangeCipherSpec = 20
	RecordAlert            = 21
	RecordHandshake        = 22
	RecordApplicationData  = 23
)

// RecordStats tallies one direction of a TLS record stream.
type RecordStats struct {
	Records        int64
	RecordBytes    int64 // total including 5-byte record headers
	HandshakeBytes int64 // visible content-type-22 records (pre-encryption)
	AppDataBytes   int64 // content-type-23 records (in TLS 1.3, most of the
	// handshake also travels disguised as application data)
	AlertBytes int64
	CCSBytes   int64
}

// RecordObserver wraps the conn under crypto/tls and parses record framing
// in both directions. It verifies that the byte stream really is TLS and
// feeds the record-census column of EXPERIMENTS.md.
type RecordObserver struct {
	net.Conn
	outParse recordParser
	inParse  recordParser
}

// Read implements net.Conn.
func (o *RecordObserver) Read(p []byte) (int, error) {
	n, err := o.Conn.Read(p)
	if n > 0 {
		o.inParse.feed(p[:n])
	}
	return n, err
}

// Write implements net.Conn.
func (o *RecordObserver) Write(p []byte) (int, error) {
	n, err := o.Conn.Write(p)
	if n > 0 {
		o.outParse.feed(p[:n])
	}
	return n, err
}

// Outbound returns the census of records written by this endpoint.
func (o *RecordObserver) Outbound() RecordStats { return o.outParse.stats }

// Inbound returns the census of records received by this endpoint.
func (o *RecordObserver) Inbound() RecordStats { return o.inParse.stats }

// recordParser is a streaming TLS record-header scanner. It is not
// goroutine-safe; each direction of a connection is fed from a single
// goroutine (crypto/tls serializes reads and writes independently).
type recordParser struct {
	stats   RecordStats
	header  [5]byte
	hdrLen  int
	skip    int // payload bytes of the current record still to consume
	curType byte
}

func (r *recordParser) feed(b []byte) {
	for len(b) > 0 {
		if r.skip > 0 {
			n := min(r.skip, len(b))
			r.creditPayload(int64(n))
			r.skip -= n
			b = b[n:]
			continue
		}
		need := 5 - r.hdrLen
		n := copy(r.header[r.hdrLen:], b[:min(need, len(b))])
		r.hdrLen += n
		b = b[n:]
		if r.hdrLen < 5 {
			return
		}
		r.hdrLen = 0
		r.curType = r.header[0]
		length := int(binary.BigEndian.Uint16(r.header[3:]))
		r.stats.Records++
		r.stats.RecordBytes += 5 + int64(length)
		r.creditPayload(0) // classify header cost lazily via creditPayload
		r.skip = length
	}
}

func (r *recordParser) creditPayload(n int64) {
	switch r.curType {
	case RecordHandshake:
		r.stats.HandshakeBytes += n
	case RecordApplicationData:
		r.stats.AppDataBytes += n
	case RecordAlert:
		r.stats.AlertBytes += n
	case RecordChangeCipherSpec:
		r.stats.CCSBytes += n
	}
}
