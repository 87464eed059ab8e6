package meter

import (
	"crypto/tls"
	"io"
	"net"
	"testing"
	"testing/quick"

	"dohcost/internal/netsim"
	"dohcost/internal/tlsx"
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

func TestCountingConn(t *testing.T) {
	n := netsim.New(1)
	l, _ := n.Listen("s:1")
	go func() {
		c, _ := l.Accept()
		buf := make([]byte, 10)
		io.ReadFull(c, buf)
		c.Write([]byte("ok"))
	}()
	raw, err := n.Dial("c", "s:1")
	if err != nil {
		t.Fatal(err)
	}
	cc := NewCountingConn(raw)
	defer cc.Close()
	cc.Write(make([]byte, 10))
	buf := make([]byte, 2)
	io.ReadFull(cc, buf)
	if cc.BytesOut() != 10 || cc.BytesIn() != 2 {
		t.Errorf("counts = out %d in %d", cc.BytesOut(), cc.BytesIn())
	}
}

func TestRecordObserverSeesTLSRecords(t *testing.T) {
	chain, err := tlsx.GenerateChain(tlsx.CloudflareLike("m.test"))
	if err != nil {
		t.Fatal(err)
	}
	n := netsim.New(1)
	l, _ := n.Listen("m.test:443")
	go func() {
		raw, err := l.Accept()
		if err != nil {
			return
		}
		tc := tls.Server(raw, chain.ServerConfig(0, 0))
		defer tc.Close()
		buf := make([]byte, 16)
		nn, err := tc.Read(buf)
		if err != nil {
			return
		}
		tc.Write(buf[:nn])
	}()
	raw, err := n.Dial("client", "m.test:443")
	if err != nil {
		t.Fatal(err)
	}
	obs := NewRecordObserver(raw)
	tc := tls.Client(obs, chain.ClientConfig("m.test"))
	defer tc.Close()
	if err := tc.Handshake(); err != nil {
		t.Fatal(err)
	}
	tc.Write([]byte("query"))
	buf := make([]byte, 5)
	if _, err := io.ReadFull(tc, buf); err != nil {
		t.Fatal(err)
	}

	out, in := obs.Outbound(), obs.Inbound()
	if out.Records < 2 { // ClientHello + at least finished/appdata
		t.Errorf("outbound records = %d", out.Records)
	}
	if in.Records < 2 { // ServerHello + encrypted flight
		t.Errorf("inbound records = %d", in.Records)
	}
	// The visible ClientHello travels as a type-22 record.
	if out.HandshakeBytes == 0 {
		t.Error("no visible outbound handshake bytes")
	}
	// In TLS 1.3 the certificate flight arrives as application data; with
	// a ~2KB chain it must dominate.
	if in.AppDataBytes < 1500 {
		t.Errorf("inbound appdata bytes = %d, want > 1500 (cert flight)", in.AppDataBytes)
	}
	// Record header accounting: total equals 5*records + payloads.
	sum := out.HandshakeBytes + out.AppDataBytes + out.AlertBytes + out.CCSBytes + 5*out.Records
	if out.RecordBytes != sum {
		t.Errorf("outbound record bytes %d != parts %d", out.RecordBytes, sum)
	}
}

func TestRecordParserHandlesFragmentation(t *testing.T) {
	// One 300-byte handshake record delivered a byte at a time.
	var p recordParser
	rec := make([]byte, 305)
	rec[0] = RecordHandshake
	rec[1], rec[2] = 3, 3
	rec[3], rec[4] = 0x01, 0x2C // length 300
	for i := range rec {
		p.feed(rec[i : i+1])
	}
	if p.stats.Records != 1 || p.stats.HandshakeBytes != 300 || p.stats.RecordBytes != 305 {
		t.Errorf("stats = %+v", p.stats)
	}
	// Two records in one buffer.
	var q recordParser
	two := append(append([]byte{}, 23, 3, 3, 0, 2, 'h', 'i'), 21, 3, 3, 0, 1, 'x')
	q.feed(two)
	if q.stats.Records != 2 || q.stats.AppDataBytes != 2 || q.stats.AlertBytes != 1 {
		t.Errorf("stats = %+v", q.stats)
	}
}

// NewCountingConn wraps c.
func NewCountingConn(c net.Conn) *CountingConn { return &CountingConn{Conn: c} }

// NewRecordObserver wraps c.
func NewRecordObserver(c net.Conn) *RecordObserver { return &RecordObserver{Conn: c} }
