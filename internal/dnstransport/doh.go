package dnstransport

import (
	"context"
	"crypto/tls"
	"fmt"
	"net"
	"sync"
	"time"

	"dohcost/internal/dnsjson"
	"dohcost/internal/dnsserver"
	"dohcost/internal/dnswire"
	"dohcost/internal/h1"
	"dohcost/internal/h2"
	"dohcost/internal/hpack"
	"dohcost/internal/meter"
	"dohcost/internal/netsim"
	"dohcost/internal/telemetry"
)

// DoHMode selects the HTTP version carrying the DoH exchange.
type DoHMode int

// DoH HTTP modes.
const (
	// ModeH2 is RFC 8484's recommended minimum, with stream multiplexing.
	ModeH2 DoHMode = iota
	// ModeH1 runs DoH over pipelined HTTP/1.1, the configuration the paper
	// uses to demonstrate in-order-delivery head-of-line blocking.
	ModeH1
)

// DoHEncoding selects how queries are represented in HTTP.
type DoHEncoding int

// DoH request encodings.
const (
	// EncodingPOST sends the DNS wireformat as a POST body (RFC 8484).
	EncodingPOST DoHEncoding = iota
	// EncodingGET sends the wireformat base64url-encoded in ?dns= (RFC 8484).
	EncodingGET
	// EncodingJSON uses the application/dns-json GET convention.
	EncodingJSON
)

// DoHClient resolves DNS over HTTPS. The zero value is not usable; fill the
// exported configuration and call Exchange. Safe for concurrent use.
type DoHClient struct {
	// Dial opens the raw transport to the server's :443. It receives the
	// dial context (the exchange context capped by dialTimeout) and must
	// honor its cancellation — a blackholed address must surface as a dial
	// error within the budget, not a stalled exchange.
	Dial func(ctx context.Context) (net.Conn, error)
	// TLS must carry trust anchors and server name; ALPN is set per Mode.
	TLS *tls.Config
	// Mode selects HTTP/2 (default) or pipelined HTTP/1.1.
	Mode DoHMode
	// Encoding selects POST wireformat (default), GET wireformat, or JSON.
	Encoding DoHEncoding
	// Persistent keeps the HTTPS connection across exchanges; otherwise
	// every exchange pays TCP+TLS+HTTP setup, the paper's "H" scenario.
	Persistent bool
	// Path is the DoH endpoint path; default "/dns-query".
	Path string
	// Authority is the :authority / Host value; default the TLS server name.
	Authority string
	// ResumeSessions enables TLS session resumption across the
	// non-persistent client's reconnects (a shared ClientSessionCache).
	// TLS 1.3 resumption skips the certificate retransmission, recovering
	// much of the per-connection overhead Figures 3–5 charge to the "H"
	// scenarios — an extension the paper's §7 hints at.
	ResumeSessions bool
	// Emission is the h2.Emission model of this client's HTTP/2
	// connections: the study sets h2.FramePerFlight to reproduce the
	// browsers the paper captured; every other client leaves the zero value.
	Emission h2.Emission
	// Recorder, when set, receives per-exchange costs.
	Recorder CostRecorder

	mu        sync.Mutex
	genmu     sync.Mutex
	h2c       *h2.ClientConn
	h1c       *h1.PipelineClient
	raw       net.Conn
	lastWire  netsim.ConnStats
	lastH2    meter.H2Layer
	closed    bool
	sessCache tls.ClientSessionCache
}

func (c *DoHClient) path() string {
	if c.Path == "" {
		return "/dns-query"
	}
	return c.Path
}

func (c *DoHClient) authority() string {
	if c.Authority != "" {
		return c.Authority
	}
	return c.TLS.ServerName
}

// Close implements Resolver.
func (c *DoHClient) Close() error {
	c.mu.Lock()
	c.closed = true
	h2c, h1c := c.h2c, c.h1c
	c.h2c, c.h1c = nil, nil
	c.mu.Unlock()
	if h2c != nil {
		h2c.Close()
	}
	if h1c != nil {
		h1c.Close()
	}
	return nil
}

// connect establishes TLS with the right ALPN and builds the HTTP client.
// ctx bounds the dial and the TLS handshake.
func (c *DoHClient) connect(ctx context.Context) error {
	raw, err := c.Dial(ctx)
	if err != nil {
		return err
	}
	cfg := c.TLS.Clone()
	if c.Mode == ModeH2 {
		cfg.NextProtos = []string{"h2"}
	} else {
		cfg.NextProtos = []string{"http/1.1"}
	}
	if c.ResumeSessions {
		c.mu.Lock()
		if c.sessCache == nil {
			c.sessCache = tls.NewLRUClientSessionCache(8)
		}
		cfg.ClientSessionCache = c.sessCache
		c.mu.Unlock()
	}
	tc := tls.Client(raw, cfg)
	if err := tc.HandshakeContext(ctx); err != nil {
		raw.Close()
		return fmt.Errorf("dnstransport: doh handshake: %w", err)
	}
	if c.Mode == ModeH2 && tc.ConnectionState().NegotiatedProtocol != "h2" {
		tc.Close()
		return fmt.Errorf("dnstransport: server did not negotiate h2")
	}

	c.mu.Lock()
	c.raw = raw
	// The connection is brand new: start deltas at zero so the TCP/TLS
	// setup traffic is charged to the first exchange (IncludesSetup).
	c.lastWire = netsim.ConnStats{}
	c.lastH2 = meter.H2Layer{}
	c.mu.Unlock()

	if c.Mode == ModeH2 {
		h2c, err := h2.NewClientConn(tc, c.Emission)
		if err != nil {
			tc.Close()
			return err
		}
		c.mu.Lock()
		c.h2c = h2c
		c.mu.Unlock()
		return nil
	}
	c.mu.Lock()
	c.h1c = h1.NewPipelineClient(tc)
	c.mu.Unlock()
	return nil
}

// ensure returns live HTTP clients, dialing when needed. Dials run under
// ctx capped by dialTimeout.
func (c *DoHClient) ensure(ctx context.Context) (h2c *h2.ClientConn, h1c *h1.PipelineClient, fresh bool, err error) {
	c.genmu.Lock()
	defer c.genmu.Unlock()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, nil, false, ErrClosed
	}
	h2c, h1c = c.h2c, c.h1c
	c.mu.Unlock()
	if h2c != nil || h1c != nil {
		return h2c, h1c, false, nil
	}
	dctx, cancel := context.WithTimeout(ctx, dialTimeout)
	err = c.connect(dctx)
	cancel()
	if err != nil {
		return nil, nil, false, err
	}
	c.mu.Lock()
	h2c, h1c = c.h2c, c.h1c
	c.mu.Unlock()
	return h2c, h1c, true, nil
}

// dropConn discards the current connection after a failure or for
// non-persistent operation.
func (c *DoHClient) dropConn() {
	c.mu.Lock()
	h2c, h1c := c.h2c, c.h1c
	c.h2c, c.h1c = nil, nil
	c.mu.Unlock()
	if h2c != nil {
		h2c.Close()
	}
	if h1c != nil {
		h1c.Close()
	}
}

// Exchange implements Resolver: over ExchangeWire for the wireformat
// encodings, and natively for JSON, whose answers never were in wire form.
func (c *DoHClient) Exchange(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	if c.Encoding != EncodingJSON {
		return ExchangeMessage(ctx, c, q)
	}
	qq := q.Question1()
	path := dnsserver.EncodeJSONGETPath(c.path(), qq.Name, qq.Type)
	ex := dohExchanges.Get().(*dohExchange)
	defer dohExchanges.Put(ex)
	body, err := c.roundTrip(ctx, ex, dohRequest{method: "GET", path: path, accept: dnsserver.ContentTypeJSON, size: len(path)})
	if err != nil {
		return nil, err
	}
	return dnsjson.Decode(body)
}

// ExchangeWire implements WireResolver for the wireformat encodings: query
// travels as the POST body or the GET ?dns= parameter under transaction ID
// 0 (RFC 8484 §4.1, so HTTP caches see identical bytes for identical
// questions), and the response body is appended to dst as it arrived. A
// JSON client adapts through its Message exchange.
func (c *DoHClient) ExchangeWire(ctx context.Context, query, dst []byte) ([]byte, error) {
	if c.Encoding == EncodingJSON {
		return messageLeaf{c}.ExchangeWire(ctx, query, dst)
	}
	qid, err := queryID(query)
	if err != nil {
		return nil, err
	}
	ex := dohExchanges.Get().(*dohExchange)
	defer dohExchanges.Put(ex)
	wire := append(ex.query[:0], query...) // the caller's query keeps its ID
	ex.query = wire
	dnswire.PatchID(wire, 0)
	var req dohRequest
	switch c.Encoding {
	case EncodingPOST:
		req = dohRequest{method: "POST", path: c.path(), accept: dnsserver.ContentTypeWire,
			contentType: dnsserver.ContentTypeWire, body: wire, size: len(wire)}
	case EncodingGET:
		req = dohRequest{method: "GET", path: dnsserver.EncodeGETPath(c.path(), wire),
			accept: dnsserver.ContentTypeWire, size: len(wire)}
	default:
		return nil, fmt.Errorf("dnstransport: unknown encoding %d", c.Encoding)
	}
	body, err := c.roundTrip(ctx, ex, req)
	if err != nil {
		return nil, err
	}
	if err := dnswire.ValidateResponseWire(query, 0, body); err != nil {
		return nil, fmt.Errorf("dnstransport: bad doh body: %w", err)
	}
	resp := append(dst, body...)
	dnswire.PatchID(resp[len(dst):], qid)
	return resp, nil
}

// dohRequest is one DoH exchange's HTTP request, independent of the HTTP
// version carrying it. size is the query's size in its chosen
// representation — the POST body, the wireformat a GET carries
// base64url-encoded, or the JSON GET path — so telemetry byte accounting
// works for every encoding.
type dohRequest struct {
	method, path        string
	accept, contentType string
	body                []byte
	size                int
}

// dohExchange is the storage one exchange reuses from the last: the h2
// request, which owns the storage its response is received into, that
// request's header fields, and the query under ID 0.
type dohExchange struct {
	req    h2.Request
	header [2]hpack.HeaderField
	query  []byte
}

var dohExchanges = sync.Pool{New: func() any { return new(dohExchange) }}

// roundTrip runs req on the client's connection, dialing when needed, and
// returns the body of a 200 response, valid until ex goes back to
// dohExchanges. A failed exchange drops the connection; a successful one
// records its cost, and closes the connection of a non-persistent client.
func (c *DoHClient) roundTrip(ctx context.Context, ex *dohExchange, req dohRequest) ([]byte, error) {
	start := time.Now()
	h2c, h1c, fresh, err := c.ensure(ctx)
	if err != nil {
		return nil, err
	}
	tx := telemetry.FromContext(ctx)
	tx.AddBytesSent(req.size)
	var status int
	var body []byte
	switch {
	case h2c != nil:
		hreq := &ex.req
		hreq.Method, hreq.Scheme, hreq.Authority, hreq.Path, hreq.Body = req.method, "https", c.authority(), req.path, req.body
		hreq.Header = ex.header[:0]
		if req.contentType != "" {
			hreq.Header = append(hreq.Header, hpack.HeaderField{Name: "content-type", Value: req.contentType})
		}
		hreq.Header = append(hreq.Header, hpack.HeaderField{Name: "accept", Value: req.accept})
		var resp *h2.Response
		if resp, err = h2c.RoundTrip(ctx, hreq); err == nil {
			status, body = resp.Status, resp.Body
		}
	case h1c != nil:
		hreq := &h1.Request{Method: req.method, Path: req.path, Host: c.authority(), Body: req.body}
		if req.contentType != "" {
			hreq.Header = append(hreq.Header, [2]string{"Content-Type", req.contentType})
		}
		hreq.Header = append(hreq.Header, [2]string{"Accept", req.accept})
		var resp *h1.Response
		if resp, err = h1c.Do(ctx, hreq); err == nil {
			status, body = resp.Status, resp.Body
		}
	default:
		return nil, ErrClosed
	}
	if err == nil {
		tx.AddBytesReceived(len(body))
		if status != 200 {
			err = fmt.Errorf("dnstransport: doh server returned HTTP %d", status)
		}
	}
	if err != nil {
		c.dropConn()
		return nil, err
	}
	c.finish(fresh, start)
	if !c.Persistent {
		c.dropConn()
	}
	return body, nil
}

// finish records the per-exchange cost deltas.
func (c *DoHClient) finish(fresh bool, start time.Time) {
	if c.Recorder == nil {
		return
	}
	c.mu.Lock()
	var wireDelta netsim.ConnStats
	if c.raw != nil {
		now := wireStats(c.raw)
		wireDelta = now.Sub(c.lastWire)
		c.lastWire = now
	}
	var h2Delta meter.H2Layer
	if c.h2c != nil {
		now := c.h2c.Stats().Layer()
		h2Delta = meter.H2Layer{
			BodyBytes:  now.BodyBytes - c.lastH2.BodyBytes,
			HdrBytes:   now.HdrBytes - c.lastH2.HdrBytes,
			MgmtBytes:  now.MgmtBytes - c.lastH2.MgmtBytes,
			TotalBytes: now.TotalBytes - c.lastH2.TotalBytes,
		}
		c.lastH2 = now
	}
	c.mu.Unlock()
	c.Recorder.RecordCost(Cost{
		Wire:          wireDelta,
		H2:            h2Delta,
		IncludesSetup: fresh,
		Duration:      time.Since(start),
	})
}
