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
	"fmt"

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

// String renders the pair as "N bytes / M packets".
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
