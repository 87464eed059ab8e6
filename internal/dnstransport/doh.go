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
	// dial context (the exchange context capped by DialTimeout) and must
	// honor its cancellation — a blackholed address must surface as a dial
	// error within the budget, not a stalled exchange.
	Dial func(ctx context.Context) (net.Conn, error)
	// DialTimeout caps connection establishment (dial, TLS handshake, HTTP
	// setup) independently of the exchange context. 0 means
	// DefaultDialTimeout; negative disables the cap.
	DialTimeout time.Duration
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
// ctx capped by DialTimeout.
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
	dctx, cancel := dialContext(ctx, c.DialTimeout)
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

// Exchange implements Resolver.
func (c *DoHClient) Exchange(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	start := time.Now()
	h2c, h1c, fresh, err := c.ensure(ctx)
	if err != nil {
		return nil, err
	}

	// RFC 8484 §4.1: DoH queries SHOULD use transaction ID 0 so caches see
	// identical bytes for identical questions.
	msg := cloneWithID(q, 0)

	var resp *dnswire.Message
	switch {
	case h2c != nil:
		resp, err = c.exchangeH2(ctx, h2c, msg)
	case h1c != nil:
		resp, err = c.exchangeH1(ctx, h1c, msg)
	default:
		return nil, ErrClosed
	}
	if err != nil {
		c.dropConn()
		return nil, err
	}
	c.finish(fresh, start)
	if !c.Persistent {
		c.dropConn()
	}
	return resp, nil
}

// buildH2 builds the HTTP/2 request for msg per the configured encoding.
// querySize is the query's size in its chosen representation — the POST
// body, the wireformat a GET carries base64url-encoded, or the JSON GET
// path — so telemetry byte accounting works for every encoding.
func (c *DoHClient) buildH2(msg *dnswire.Message) (req *h2.Request, querySize int, err error) {
	switch c.Encoding {
	case EncodingPOST:
		body, err := msg.Pack()
		if err != nil {
			return nil, 0, err
		}
		return &h2.Request{
			Method: "POST", Scheme: "https", Authority: c.authority(), Path: c.path(),
			Header: []hpack.HeaderField{
				{Name: "content-type", Value: dnsserver.ContentTypeWire},
				{Name: "accept", Value: dnsserver.ContentTypeWire},
			},
			Body: body,
		}, len(body), nil
	case EncodingGET:
		wire, err := msg.Pack()
		if err != nil {
			return nil, 0, err
		}
		return &h2.Request{
			Method: "GET", Scheme: "https", Authority: c.authority(),
			Path:   dnsserver.EncodeGETPath(c.path(), wire),
			Header: []hpack.HeaderField{{Name: "accept", Value: dnsserver.ContentTypeWire}},
		}, len(wire), nil
	case EncodingJSON:
		qq := msg.Question1()
		path := dnsserver.EncodeJSONGETPath(c.path(), qq.Name, qq.Type)
		return &h2.Request{
			Method: "GET", Scheme: "https", Authority: c.authority(),
			Path:   path,
			Header: []hpack.HeaderField{{Name: "accept", Value: dnsserver.ContentTypeJSON}},
		}, len(path), nil
	}
	return nil, 0, fmt.Errorf("dnstransport: unknown encoding %d", c.Encoding)
}

func (c *DoHClient) exchangeH2(ctx context.Context, h2c *h2.ClientConn, msg *dnswire.Message) (*dnswire.Message, error) {
	req, querySize, err := c.buildH2(msg)
	if err != nil {
		return nil, err
	}
	tx := telemetry.FromContext(ctx)
	tx.AddBytesSent(querySize)
	resp, err := h2c.RoundTrip(ctx, req)
	if err != nil {
		return nil, err
	}
	tx.AddBytesReceived(len(resp.Body))
	return c.parseResponse(msg, resp.Status, resp.HeaderValue("content-type"), resp.Body)
}

func (c *DoHClient) exchangeH1(ctx context.Context, h1c *h1.PipelineClient, msg *dnswire.Message) (*dnswire.Message, error) {
	var req *h1.Request
	var querySize int
	switch c.Encoding {
	case EncodingPOST:
		body, err := msg.Pack()
		if err != nil {
			return nil, err
		}
		req = &h1.Request{
			Method: "POST", Path: c.path(), Host: c.authority(),
			Header: h1.Header{
				{"Content-Type", dnsserver.ContentTypeWire},
				{"Accept", dnsserver.ContentTypeWire},
			},
			Body: body,
		}
		querySize = len(body)
	case EncodingGET:
		wire, err := msg.Pack()
		if err != nil {
			return nil, err
		}
		req = &h1.Request{
			Method: "GET", Path: dnsserver.EncodeGETPath(c.path(), wire), Host: c.authority(),
			Header: h1.Header{{"Accept", dnsserver.ContentTypeWire}},
		}
		querySize = len(wire)
	case EncodingJSON:
		qq := msg.Question1()
		req = &h1.Request{
			Method: "GET", Path: dnsserver.EncodeJSONGETPath(c.path(), qq.Name, qq.Type), Host: c.authority(),
			Header: h1.Header{{"Accept", dnsserver.ContentTypeJSON}},
		}
		querySize = len(req.Path)
	default:
		return nil, fmt.Errorf("dnstransport: unknown encoding %d", c.Encoding)
	}
	tx := telemetry.FromContext(ctx)
	tx.AddBytesSent(querySize)
	resp, err := h1c.Do(ctx, req)
	if err != nil {
		return nil, err
	}
	tx.AddBytesReceived(len(resp.Body))
	return c.parseResponse(msg, resp.Status, resp.Header.Get("Content-Type"), resp.Body)
}

// parseResponse decodes the HTTP payload back into a DNS message.
func (c *DoHClient) parseResponse(q *dnswire.Message, status int, contentType string, body []byte) (*dnswire.Message, error) {
	if status != 200 {
		return nil, fmt.Errorf("dnstransport: doh server returned HTTP %d", status)
	}
	switch contentType {
	case dnsserver.ContentTypeJSON:
		resp, err := dnsjson.Decode(body)
		if err != nil {
			return nil, err
		}
		return resp, nil
	default:
		resp := new(dnswire.Message)
		if err := resp.Unpack(body); err != nil {
			return nil, fmt.Errorf("dnstransport: bad doh body: %w", err)
		}
		if err := dnswire.ValidateResponse(q, resp); err != nil {
			return nil, err
		}
		return resp, nil
	}
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
