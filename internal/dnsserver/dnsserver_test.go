package dnsserver

import (
	"bytes"
	"context"
	"encoding/base64"
	"net/netip"
	"strings"
	"testing"
	"time"

	"dohcost/internal/dnswire"
	"dohcost/internal/netsim"
)

// serveT runs a handler with a background context, failing the test on
// handler error.
func serveT(t *testing.T, h Handler, q *dnswire.Message) *dnswire.Message {
	t.Helper()
	r, err := h.ServeDNS(context.Background(), q)
	if err != nil {
		t.Fatalf("ServeDNS: %v", err)
	}
	return r
}

func TestStaticHandlerA(t *testing.T) {
	h := Static(netip.MustParseAddr("192.0.2.1"), 60)
	q := dnswire.NewQuery(9, "anything.at.all.example.", dnswire.TypeA)
	r := serveT(t, h, q)
	if !r.Response || r.ID != 9 || len(r.Answers) != 1 {
		t.Fatalf("reply = %+v", r)
	}
	if a := r.Answers[0].Data.(*dnswire.A); a.Addr != netip.MustParseAddr("192.0.2.1") {
		t.Errorf("addr = %v", a.Addr)
	}
	// AAAA query against a v4 static handler: NOERROR, no answers.
	q6 := dnswire.NewQuery(10, "x.example.", dnswire.TypeAAAA)
	r6 := serveT(t, h, q6)
	if len(r6.Answers) != 0 || r6.RCode != dnswire.RCodeSuccess {
		t.Errorf("aaaa reply = %+v", r6)
	}
}

func TestStaticHandlerAAAA(t *testing.T) {
	h := Static(netip.MustParseAddr("2001:db8::1"), 60)
	r := serveT(t, h, dnswire.NewQuery(1, "x.example.", dnswire.TypeAAAA))
	if len(r.Answers) != 1 {
		t.Fatalf("answers = %v", r.Answers)
	}
	if _, ok := r.Answers[0].Data.(*dnswire.AAAA); !ok {
		t.Error("not an AAAA answer")
	}
}

func TestDelayEveryCadence(t *testing.T) {
	h := DelayEvery(2, 40*time.Millisecond, Static(netip.MustParseAddr("192.0.2.1"), 60))
	var delayed int
	for i := 0; i < 4; i++ {
		start := time.Now()
		serveT(t, h, dnswire.NewQuery(uint16(i), "x.example.", dnswire.TypeA))
		if time.Since(start) > 30*time.Millisecond {
			delayed++
		}
	}
	if delayed != 2 {
		t.Errorf("delayed %d of 4 queries, want 2", delayed)
	}
}

func TestRefuseHandler(t *testing.T) {
	h := Refuse(dnswire.RCodeRefused)
	r := serveT(t, h, dnswire.NewQuery(1, "x.example.", dnswire.TypeA))
	if r.RCode != dnswire.RCodeRefused {
		t.Errorf("rcode = %v", r.RCode)
	}
}

func TestZoneNodata(t *testing.T) {
	z := NewZone("example.com.")
	z.Add(dnswire.ResourceRecord{Name: "www.example.com.", Class: dnswire.ClassINET, TTL: 60, Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")}})
	r := serveT(t, z, dnswire.NewQuery(1, "www.example.com.", dnswire.TypeAAAA))
	if r.RCode != dnswire.RCodeSuccess || len(r.Answers) != 0 {
		t.Errorf("nodata reply = %+v", r)
	}
}

func TestZoneCNAMEChainToExternalTarget(t *testing.T) {
	z := NewZone("example.com.")
	z.Add(dnswire.ResourceRecord{Name: "a.example.com.", Class: dnswire.ClassINET, TTL: 60,
		Data: &dnswire.CNAME{Target: "cdn.other.net."}})
	r := serveT(t, z, dnswire.NewQuery(1, "a.example.com.", dnswire.TypeA))
	if len(r.Answers) != 1 {
		t.Fatalf("answers = %v", r.Answers)
	}
	if r.RCode != dnswire.RCodeSuccess {
		t.Errorf("rcode = %v", r.RCode)
	}
}

func TestZoneCNAMELoopTerminates(t *testing.T) {
	z := NewZone("example.com.")
	z.Add(dnswire.ResourceRecord{Name: "a.example.com.", Class: dnswire.ClassINET, TTL: 60,
		Data: &dnswire.CNAME{Target: "b.example.com."}})
	z.Add(dnswire.ResourceRecord{Name: "b.example.com.", Class: dnswire.ClassINET, TTL: 60,
		Data: &dnswire.CNAME{Target: "a.example.com."}})
	done := make(chan *dnswire.Message, 1)
	go func() {
		done <- Respond(context.Background(), z, dnswire.NewQuery(1, "a.example.com.", dnswire.TypeA))
	}()
	select {
	case r := <-done:
		if r.RCode != dnswire.RCodeServerFailure {
			t.Errorf("rcode = %v, want SERVFAIL", r.RCode)
		}
	case <-time.After(time.Second):
		t.Fatal("CNAME loop did not terminate")
	}
}

func TestZoneDirectCNAMEQuery(t *testing.T) {
	z := NewZone("example.com.")
	z.Add(dnswire.ResourceRecord{Name: "a.example.com.", Class: dnswire.ClassINET, TTL: 60,
		Data: &dnswire.CNAME{Target: "b.example.com."}})
	r := serveT(t, z, dnswire.NewQuery(1, "a.example.com.", dnswire.TypeCNAME))
	if len(r.Answers) != 1 {
		t.Fatalf("answers = %v", r.Answers)
	}
}

// dohServe is a test shim over the unexported core.
func dohServe(d *DoH, method, path, ct string, body []byte) (int, string, []byte) {
	return bindDoH(d, context.Background()).serve(method, path, ct, body)
}

// bindDoH is d bound to ctx, as one connection's handlers see it.
func bindDoH(d *DoH, ctx context.Context) *boundDoH {
	h2h, _ := d.Bind(ctx)
	return h2h.(*boundDoH)
}

func TestDoHServeRouting(t *testing.T) {
	d := &DoH{
		Handler: Static(netip.MustParseAddr("192.0.2.1"), 60),
		Endpoints: []Endpoint{
			{Path: "/dns-query", Wire: true},
			{Path: "/resolve", JSON: true},
		},
	}
	q := dnswire.NewQuery(0, "probe.example.", dnswire.TypeA)
	wire, _ := q.Pack()

	// POST wireformat on the wire endpoint.
	status, ct, body := dohServe(d, "POST", "/dns-query", ContentTypeWire, wire)
	if status != 200 || ct != ContentTypeWire {
		t.Errorf("post: %d %s", status, ct)
	}
	var resp dnswire.Message
	if err := resp.Unpack(body); err != nil || len(resp.Answers) != 1 {
		t.Errorf("post body: %v %v", err, resp.Answers)
	}

	// GET base64url on the wire endpoint.
	status, _, _ = dohServe(d, "GET", "/dns-query?dns="+base64.RawURLEncoding.EncodeToString(wire), "", nil)
	if status != 200 {
		t.Errorf("get: %d", status)
	}

	// JSON on the JSON endpoint.
	status, ct, body = dohServe(d, "GET", "/resolve?name=probe.example&type=A", "", nil)
	if status != 200 || ct != ContentTypeJSON || !bytes.Contains(body, []byte(`"Status":0`)) {
		t.Errorf("json: %d %s %s", status, ct, body)
	}

	// Content-type mismatches.
	if status, _, _ = dohServe(d, "POST", "/dns-query", "text/plain", wire); status != 415 {
		t.Errorf("bad content type: %d", status)
	}
	if status, _, _ = dohServe(d, "POST", "/resolve", ContentTypeWire, wire); status != 415 {
		t.Errorf("wire on json endpoint: %d", status)
	}
	if status, _, _ = dohServe(d, "GET", "/resolve?dns=AAAA", "", nil); status != 415 {
		t.Errorf("b64 on json endpoint: %d", status)
	}

	// Unknown path, bad method, bad encodings.
	if status, _, _ = dohServe(d, "POST", "/nope", ContentTypeWire, wire); status != 404 {
		t.Errorf("unknown path: %d", status)
	}
	if status, _, _ = dohServe(d, "DELETE", "/dns-query", "", nil); status != 405 {
		t.Errorf("bad method: %d", status)
	}
	if status, _, _ = dohServe(d, "GET", "/dns-query?dns=!!!", "", nil); status != 400 {
		t.Errorf("bad base64: %d", status)
	}
	if status, _, _ = dohServe(d, "POST", "/dns-query", ContentTypeWire, []byte{1, 2}); status != 400 {
		t.Errorf("bad wire body: %d", status)
	}
	if status, _, _ = dohServe(d, "GET", "/dns-query", "", nil); status != 400 {
		t.Errorf("no query: %d", status)
	}
}

func TestDoHDefaultEndpoints(t *testing.T) {
	d := &DoH{Handler: Static(netip.MustParseAddr("192.0.2.1"), 60)}
	q := dnswire.NewQuery(0, "x.example.", dnswire.TypeA)
	wire, _ := q.Pack()
	if status, _, _ := dohServe(d, "POST", "/dns-query", ContentTypeWire, wire); status != 200 {
		t.Errorf("default endpoint: %d", status)
	}
	// JSON is not enabled by default.
	if status, _, _ := dohServe(d, "GET", "/dns-query?name=x.example", "", nil); status != 415 {
		t.Errorf("json on default endpoint: %d", status)
	}
}

func TestStreamMessageFraming(t *testing.T) {
	var buf bytes.Buffer
	msg := []byte("hello dns")
	if err := WriteStreamMessage(&buf, msg); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != len(msg)+2 {
		t.Errorf("framed length = %d", buf.Len())
	}
	got, err := ReadStreamMessageInto(&buf, make([]byte, 2))
	if err != nil || !bytes.Equal(got, msg) {
		t.Errorf("read = %q, %v", got, err)
	}
	// Oversized messages are refused.
	if err := WriteStreamMessage(&buf, bytes.Repeat([]byte{0}, 70000)); err == nil {
		t.Error("70KB message accepted")
	}
	// Truncated stream errors.
	if _, err := ReadStreamMessageInto(strings.NewReader("\x00\x10abc"), make([]byte, 2)); err == nil {
		t.Error("truncated stream accepted")
	}
}

func TestEncodeGETPaths(t *testing.T) {
	p := EncodeGETPath("/dns-query", []byte{0xFF, 0x00})
	if !strings.HasPrefix(p, "/dns-query?dns=") || strings.Contains(p, "=?") {
		t.Errorf("path = %s", p)
	}
	j := EncodeJSONGETPath("/resolve", "WWW.Example.COM.", dnswire.TypeAAAA)
	if !strings.Contains(j, "name=www.example.com") || !strings.Contains(j, "type=28") {
		t.Errorf("json path = %s", j)
	}
}

func TestPadResponses(t *testing.T) {
	h := PadResponses(468, Static(netip.MustParseAddr("192.0.2.1"), 60))
	r := serveT(t, h, dnswire.NewQuery(1, "pad.example.", dnswire.TypeA))
	wire, err := r.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if len(wire)%468 != 0 {
		t.Errorf("padded response = %d bytes, want multiple of 468", len(wire))
	}
	if r.EDNS == nil || len(r.EDNS.Options) == 0 || r.EDNS.Options[len(r.EDNS.Options)-1].Code != EDNS0PaddingCode {
		t.Error("padding option missing")
	}
	// Block size 0 disables padding.
	plain := PadResponses(0, Static(netip.MustParseAddr("192.0.2.1"), 60))
	r2 := serveT(t, plain, dnswire.NewQuery(1, "pad.example.", dnswire.TypeA))
	if r2.EDNS != nil && len(r2.EDNS.Options) > 0 {
		t.Error("padding applied with block size 0")
	}
}

// startClampedUDP serves a many-answer handler over a simulated datagram
// socket with the given MaxUDPSize and returns a client conn toward it.
func startClampedUDP(t *testing.T, maxUDP, answers int) *netsim.PacketConn {
	t.Helper()
	n := netsim.New(1)
	pc, err := n.ListenPacket("srv:53")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pc.Close() })
	handler := HandlerFunc(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		r := q.Reply()
		for i := 0; i < answers; i++ {
			r.Answers = append(r.Answers, dnswire.ResourceRecord{
				Name: q.Question1().Name, Class: dnswire.ClassINET, TTL: 60,
				Data: &dnswire.A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(i + 1)})},
			})
		}
		return r, nil
	})
	srv := &UDPServer{Handler: handler, MaxUDPSize: maxUDP}
	go srv.Serve(pc)
	cli, err := n.ListenPacket("cli:5353")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return cli
}

// exchangeRaw sends q and returns the raw response datagram.
func exchangeRaw(t *testing.T, cli *netsim.PacketConn, q *dnswire.Message) []byte {
	t.Helper()
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.WriteTo(wire, netsim.Addr("srv:53")); err != nil {
		t.Fatal(err)
	}
	cli.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 65535)
	nn, _, err := cli.ReadFrom(buf)
	if err != nil {
		t.Fatal(err)
	}
	return buf[:nn]
}

// TestUDPMaxSizeClamp pins the max-udp-size policy: responses over the cap
// are truncated even when the client's EDNS buffer allows more, the cap is
// honored below RFC 1035's 512-byte default (small-MTU paths), and on
// aggressive caps where even the referral would exceed the limit the OPT
// record is shed to keep the TC=1 signal deliverable.
func TestUDPMaxSizeClamp(t *testing.T) {
	t.Run("clamp-below-edns", func(t *testing.T) {
		cli := startClampedUDP(t, 484, 60) // ~1000-byte answer, cap in the sub-512 regime
		raw := exchangeRaw(t, cli, dnswire.NewQuery(7, "big.example.", dnswire.TypeA))
		if len(raw) > 484 {
			t.Fatalf("response is %d bytes, want <= the 484-byte cap", len(raw))
		}
		var resp dnswire.Message
		if err := resp.Unpack(raw); err != nil {
			t.Fatal(err)
		}
		if !resp.Truncated || len(resp.Answers) != 0 {
			t.Errorf("want empty TC=1 referral, got tc=%v answers=%d", resp.Truncated, len(resp.Answers))
		}
	})
	t.Run("referral-sheds-opt", func(t *testing.T) {
		long := strings.Repeat("verylonglabel.", 10) + "example."
		cli := startClampedUDP(t, 80, 4)
		raw := exchangeRaw(t, cli, dnswire.NewQuery(9, dnswire.Name(long), dnswire.TypeA))
		var resp dnswire.Message
		if err := resp.Unpack(raw); err != nil {
			t.Fatal(err)
		}
		if !resp.Truncated {
			t.Error("want TC=1 referral")
		}
		if resp.EDNS != nil {
			t.Errorf("referral kept its OPT record (%d bytes) despite exceeding the cap", len(raw))
		}
	})
}

// Refuse answers everything with the given RCode.
func Refuse(rcode dnswire.RCode) Handler {
	return HandlerFunc(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		r := q.Reply()
		r.RCode = rcode
		return r, nil
	})
}
