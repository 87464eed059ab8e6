package meter

import (
	"testing"
	"testing/quick"

	"dohcost/internal/netsim"
)

func TestAccountTCPBasic(t *testing.T) {
	stats := netsim.ConnStats{
		OutBytes: 1000, OutSegments: 3, OutPackets: 3,
		InBytes: 5000, InSegments: 4, InPackets: 5,
	}
	a := AccountTCP(stats, false)
	if a.DataPackets != 8 {
		t.Errorf("data packets = %d, want 8", a.DataPackets)
	}
	// ceil(3/2) + ceil(5/2) = 2 + 3 = 5 ACKs.
	if a.AckPackets != 5 {
		t.Errorf("acks = %d, want 5", a.AckPackets)
	}
	if a.HandshakePackets != 0 || a.TeardownPackets != 0 {
		t.Error("setup charged on persistent accounting")
	}
	if a.TotalPackets() != 13 {
		t.Errorf("total = %d", a.TotalPackets())
	}

	withSetup := AccountTCP(stats, true)
	if withSetup.HandshakePackets != 3 || withSetup.TeardownPackets != 4 {
		t.Errorf("setup accounting = %+v", withSetup)
	}
	if withSetup.TotalPackets() != 20 {
		t.Errorf("total with setup = %d", withSetup.TotalPackets())
	}
}

func TestTCPWireCost(t *testing.T) {
	stats := netsim.ConnStats{OutBytes: 100, OutPackets: 1, InBytes: 200, InPackets: 1}
	w := TCPWireCost(stats, false)
	// 2 data + 2 ACKs = 4 packets; bytes = 300 + 4*52.
	if w.Packets != 4 || w.Bytes != 300+4*52 {
		t.Errorf("cost = %v", w)
	}
	if w.String() == "" {
		t.Error("empty String")
	}
}

func TestUDPWireCost(t *testing.T) {
	w := UDPWireCost([]int{37, 117})
	if w.Packets != 2 {
		t.Errorf("packets = %d, want 2", w.Packets)
	}
	if w.Bytes != 37+117+2*28 {
		t.Errorf("bytes = %d, want %d", w.Bytes, 37+117+2*28)
	}
}

func TestComposeBreakdownConsistency(t *testing.T) {
	wire := netsim.ConnStats{OutBytes: 2000, OutPackets: 3, InBytes: 4000, InPackets: 4}
	h2 := H2Layer{BodyBytes: 150, HdrBytes: 300, MgmtBytes: 250, TotalBytes: 700}
	b := ComposeBreakdown(wire, h2, true)
	if b.Body != 150 || b.Hdr != 300 || b.Mgmt != 250 {
		t.Errorf("h2 layers = %+v", b)
	}
	if b.TLS != 6000-700 {
		t.Errorf("tls = %d, want %d", b.TLS, 6000-700)
	}
	acct := AccountTCP(wire, true)
	if b.TCP != acct.HeaderBytes() {
		t.Errorf("tcp = %d, want %d", b.TCP, acct.HeaderBytes())
	}
	// Invariant: layers sum to wire bytes + packet headers.
	if b.Total() != wire.Total()+acct.HeaderBytes() {
		t.Errorf("breakdown total %d != wire+headers %d", b.Total(), wire.Total()+acct.HeaderBytes())
	}
	if b.String() == "" {
		t.Error("empty String")
	}
}

func TestComposeBreakdownClampsNegativeTLS(t *testing.T) {
	wire := netsim.ConnStats{OutBytes: 10}
	h2 := H2Layer{TotalBytes: 100}
	if b := ComposeBreakdown(wire, h2, false); b.TLS != 0 {
		t.Errorf("negative TLS not clamped: %+v", b)
	}
}

func TestBreakdownInvariantProperty(t *testing.T) {
	f := func(ob, ib uint16, op, ip uint8, body, hdr, mgmt uint16) bool {
		wire := netsim.ConnStats{
			OutBytes: int64(ob), OutPackets: int64(op),
			InBytes: int64(ib), InPackets: int64(ip),
		}
		h2 := H2Layer{
			BodyBytes: int64(body), HdrBytes: int64(hdr), MgmtBytes: int64(mgmt),
			TotalBytes: int64(body) + int64(hdr) + int64(mgmt),
		}
		b := ComposeBreakdown(wire, h2, true)
		if b.Body < 0 || b.Hdr < 0 || b.Mgmt < 0 || b.TLS < 0 || b.TCP < 0 {
			return false
		}
		if h2.TotalBytes <= wire.Total() {
			return b.Total() == wire.Total()+AccountTCP(wire, true).HeaderBytes()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
