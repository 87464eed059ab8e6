package proxy_test

import (
	"context"
	"crypto/tls"
	"errors"
	"net"
	"testing"
	"time"

	"dohcost/internal/dnsserver"
	"dohcost/internal/dnswire"
	"dohcost/internal/h1"
	"dohcost/internal/h2"
	"dohcost/internal/hpack"
	"dohcost/internal/loadgen"
	"dohcost/internal/netsim"
	"dohcost/internal/tlsx"
)

// fate is what one transport made of one message: the reply, the HTTP
// status a DoH reply came under (0 elsewhere), or the error that ended the
// wait for it.
type fate struct {
	reply  []byte
	status int
	err    error
}

// fateClient sends msg as it is, on a fresh connection, and reports its fate.
type fateClient func(msg []byte) fate

// fateClients returns a fateClient per transport into the proxy at
// loadgen.ProxyHost on n under chain. A datagram the proxy drops shows as
// a read timeout after wait.
func fateClients(n *netsim.Network, chain *tlsx.Chain, wait time.Duration) map[string]fateClient {
	host := loadgen.ProxyHost
	stream := func(dial func() (net.Conn, error)) fateClient {
		return func(msg []byte) fate {
			c, err := dial()
			if err != nil {
				return fate{err: err}
			}
			defer c.Close()
			c.SetDeadline(time.Now().Add(5 * time.Second))
			if err := dnsserver.WriteStreamMessage(c, msg); err != nil {
				return fate{err: err}
			}
			resp, err := dnsserver.ReadStreamMessageInto(c, make([]byte, 2))
			return fate{reply: resp, err: err}
		}
	}
	tlsDial := func(port string, alpn ...string) func() (net.Conn, error) {
		return func() (net.Conn, error) {
			c, err := n.Dial("client", host+port)
			if err != nil {
				return nil, err
			}
			return tls.Client(c, chain.ClientConfig(host, alpn...)), nil
		}
	}
	ctx := func() (context.Context, context.CancelFunc) {
		return context.WithTimeout(context.Background(), 5*time.Second)
	}
	return map[string]fateClient{
		"udp": func(msg []byte) fate {
			pc, err := n.ListenPacket("")
			if err != nil {
				return fate{err: err}
			}
			c := connectedPacketConn{pc, netsim.Addr(host + ":53")}
			defer c.Close()
			c.SetDeadline(time.Now().Add(wait))
			if _, err := c.Write(msg); err != nil {
				return fate{err: err}
			}
			buf := make([]byte, 4096)
			nr, err := c.Read(buf)
			return fate{reply: buf[:nr], err: err}
		},
		"tcp": stream(func() (net.Conn, error) { return n.Dial("client", host+":53") }),
		"dot": stream(tlsDial(":853")),
		"doh-h1": func(msg []byte) fate {
			c, err := tlsDial(":443", "http/1.1")()
			if err != nil {
				return fate{err: err}
			}
			hc := h1.NewPipelineClient(c)
			defer hc.Close()
			ctx, cancel := ctx()
			defer cancel()
			resp, err := hc.Do(ctx, &h1.Request{Method: "POST", Path: "/dns-query", Host: host,
				Header: h1.Header{{"Content-Type", dnsserver.ContentTypeWire}}, Body: msg})
			if err != nil {
				return fate{err: err}
			}
			return fate{reply: resp.Body, status: resp.Status}
		},
		"doh-h2": func(msg []byte) fate {
			c, err := tlsDial(":443", "h2")()
			if err != nil {
				return fate{err: err}
			}
			cc, err := h2.NewClientConn(c)
			if err != nil {
				return fate{err: err}
			}
			defer cc.Close()
			ctx, cancel := ctx()
			defer cancel()
			resp, err := cc.RoundTrip(ctx, &h2.Request{Method: "POST", Scheme: "https", Authority: host, Path: "/dns-query",
				Header: []hpack.HeaderField{{Name: "content-type", Value: dnsserver.ContentTypeWire}}, Body: msg})
			if err != nil {
				return fate{err: err}
			}
			return fate{reply: resp.Body, status: resp.Status}
		},
	}
}

// TestNonQueriesNeverReachTheHandler: only a QUERY is resolved. A message
// that is itself a response (QR=1) takes the fate of a query the codec
// cannot read — UDP drops it, TCP and DoT close the connection, DoH
// answers HTTP 400 — a NOTIFY or an UPDATE is echoed NOTIMP under its own
// ID and opcode, and a query with an OPT of EDNS version 1 is echoed
// BADVERS with no answer and an OPT of version 0 (RFC 6891 §6.1.3). On
// every transport, none of them is forwarded.
func TestNonQueriesNeverReachTheHandler(t *testing.T) {
	d := deploy(t, loadgen.Scenario{Seed: 34})
	up := d.Upstreams()[0]
	clients := fateClients(d.Net(), d.Chain(), 300*time.Millisecond)

	response := dnswire.NewQuery(0x3301, "reply.example.", dnswire.TypeA).Reply()
	notify := dnswire.NewQuery(0x3302, "zone.example.", dnswire.TypeSOA)
	notify.OpCode, notify.RecursionDesired = dnswire.OpCodeNotify, false
	update := dnswire.NewQuery(0x3303, "zone.example.", dnswire.TypeSOA)
	update.OpCode, update.RecursionDesired, update.EDNS = dnswire.OpCodeUpdate, false, nil
	badvers := dnswire.NewQuery(0x3304, "badvers.example.", dnswire.TypeA)
	badvers.EDNS.Version = 1
	echoes := []struct {
		name  string
		q     *dnswire.Message
		rcode dnswire.RCode
	}{
		{notify.OpCode.String(), notify, dnswire.RCodeNotImplemented},
		{update.OpCode.String(), update, dnswire.RCodeNotImplemented},
		{"badvers", badvers, dnswire.RCodeBadVersion},
	}

	for _, tr := range []string{"udp", "tcp", "dot", "doh-h1", "doh-h2"} {
		send := clients[tr]
		t.Run(tr+"/response", func(t *testing.T) {
			msg, err := response.Pack()
			if err != nil {
				t.Fatal(err)
			}
			before := up.Queries()
			got := send(msg)
			switch tr {
			case "udp":
				var ne net.Error
				if !errors.As(got.err, &ne) || !ne.Timeout() {
					t.Errorf("want the datagram dropped (a read timeout), got reply %x, err %v", got.reply, got.err)
				}
			case "tcp", "dot":
				var ne net.Error
				if got.err == nil || errors.As(got.err, &ne) && ne.Timeout() {
					t.Errorf("want the connection closed, got reply %x, err %v", got.reply, got.err)
				}
			default:
				if got.err != nil || got.status != 400 {
					t.Errorf("want HTTP 400, got status %d, err %v", got.status, got.err)
				}
			}
			if n := up.Queries() - before; n != 0 {
				t.Errorf("%d upstream queries, want none", n)
			}
		})
		for _, e := range echoes {
			q := e.q
			t.Run(tr+"/"+e.name, func(t *testing.T) {
				msg, err := q.Pack()
				if err != nil {
					t.Fatal(err)
				}
				before := up.Queries()
				got := send(msg)
				if got.err != nil || (got.status != 0 && got.status != 200) {
					t.Fatalf("status %d, err %v", got.status, got.err)
				}
				var r dnswire.Message
				if err := r.Unpack(got.reply); err != nil {
					t.Fatalf("reply %x: %v", got.reply, err)
				}
				if !r.Response || r.ID != q.ID || r.OpCode != q.OpCode || r.RCode != e.rcode {
					t.Errorf("reply QR=%v ID=%#x opcode %v rcode %v, want QR=1 ID=%#x opcode %v rcode %v",
						r.Response, r.ID, r.OpCode, r.RCode, q.ID, q.OpCode, e.rcode)
				}
				if len(r.Answers) != 0 {
					t.Errorf("echo carries %d answers, want none", len(r.Answers))
				}
				if q.EDNS != nil && (r.EDNS == nil || r.EDNS.Version != 0) {
					t.Errorf("reply OPT %+v, want one of version 0", r.EDNS)
				}
				if n := up.Queries() - before; n != 0 {
					t.Errorf("%d upstream queries, want none", n)
				}
			})
		}
	}
}
