package dnsserver

import (
	"context"
	"encoding/base64"
	"net/url"
	"strconv"
	"strings"
	"time"

	"dohcost/internal/dnsjson"
	"dohcost/internal/dnswire"
	"dohcost/internal/guard"
	"dohcost/internal/h1"
	"dohcost/internal/h2"
	"dohcost/internal/hpack"
	"dohcost/internal/telemetry"
)

// MIME types a DoH endpoint may speak.
const (
	ContentTypeWire = "application/dns-message"
	ContentTypeJSON = dnsjson.ContentType
)

// Endpoint is one DoH URL path and the content types it accepts, modelling
// the per-provider diversity Table 1 documents (Google's /resolve speaks
// only JSON while /dns-query speaks only wireformat; Cloudflare serves both
// on one path; CleanBrowsing uses /doh/family-filter; and so on).
type Endpoint struct {
	Path string
	Wire bool // application/dns-message (RFC 8484)
	JSON bool // application/dns-json
}

// DefaultEndpoints is the RFC-style single wireformat endpoint.
var DefaultEndpoints = []Endpoint{{Path: "/dns-query", Wire: true}}

// DoH adapts a DNS Handler to HTTP: Bind derives the handlers this
// repository's HTTP/1.1 and HTTP/2 servers take, one pair per connection.
type DoH struct {
	Handler   Handler
	Endpoints []Endpoint
	// AltSvc, when non-empty, is attached to successful responses as an
	// Alt-Svc header; providers with HTTP/3 advertise QUIC this way, which
	// is what the landscape prober looks for.
	AltSvc string
	// Processing models the extra per-request latency of the HTTPS
	// frontend (TLS record handling, HTTP parsing, routing) relative to a
	// raw UDP socket — the "added overhead for encryption and transport"
	// the paper cites for DoH's slower resolution times. Zero for
	// controlled transport experiments.
	Processing time.Duration
	// Guard, when non-nil, rate-limits queries per client, keyed by the
	// identity the accept loop installed in the bound context (Bind);
	// over-limit queries get a DNS-level REFUSED in an HTTP 200, the way
	// RFC 8484 surfaces resolution errors. A context with no identity in
	// it is not limited.
	Guard *guard.Guard
	// Telemetry, when non-nil, receives one Transaction per decoded DNS
	// query (HTTP-level rejections — bad paths, bad encodings — are not
	// DNS transactions and are not counted).
	Telemetry *telemetry.Metrics
}

// Bind derives per-connection HTTP handlers whose DNS queries inherit ctx.
// Server accept loops bind once per connection, cancelling ctx when the
// connection closes, so every in-flight handler learns its client is gone.
// The HTTP/2 handler is an h2.InlineHandler: it offers the hit step to the
// connection's read loop.
func (d *DoH) Bind(ctx context.Context) (h2.Handler, h1.Handler) {
	b := &boundDoH{d: d, ctx: ctx, c: newCore(d.Handler, d.Telemetry, telemetry.ProtoDoH)}
	b.hit = h2.Response{Status: 200, Header: d.h2Header(200, ContentTypeWire)}
	return b, h1.HandlerFunc(b.serveH1)
}

// boundDoH is one connection's DoH: its HTTP/2 handler, and the core its
// HTTP/1.1 handler shares.
type boundDoH struct {
	d   *DoH
	ctx context.Context
	c   core
	// What the inline step reuses from hit to hit, read loop only: the view
	// (&q escapes into the WireResponder call) and the response, whose Body
	// is the scratch the next hit is appended into.
	q   dnswire.Query
	hit h2.Response
}

// ServeH2 implements h2.Handler.
func (b *boundDoH) ServeH2(req *h2.Request) *h2.Response {
	return b.d.h2Response(b.serve(req.Method, req.Path, h2ContentType(req), req.Body))
}

// ServeH2Inline implements h2.InlineHandler with the split out-of-order
// DoT has: a plain POST to a wire endpoint gets its guard verdict and the
// hit step on the read loop, which never block; a hit the wire path
// declines carries its transaction and the view the step parsed on to the
// slow step as next, so telemetry, trace and guard see one query.
// Anything else — GET, JSON, a path needing decoding, Processing to sleep
// through — is ServeH2's.
func (b *boundDoH) ServeH2Inline(req *h2.Request) (*h2.Response, func() *h2.Response) {
	d := b.d
	ep := d.endpoint(req.Path)
	if d.Processing > 0 || req.Method != "POST" || ep == nil || !ep.Wire ||
		strings.ContainsAny(req.Path, "?%#") || h2ContentType(req) != ContentTypeWire {
		return nil, nil
	}
	tGuard, key, refused := d.checkGuard(b.ctx)
	if refused {
		return d.h2Response(d.refuseWire(req.Body, key)), nil
	}
	out, tx, handled := b.c.hit(&b.q, req.Body, b.hit.Body[:0], tGuard)
	if handled {
		b.hit.Body = out
		return &b.hit, nil
	}
	q := b.q // the read loop reuses b.q; the view borrows req.Body, which is next's
	return nil, func() *h2.Response { return d.h2Response(b.answer(tx, &q)) }
}

func h2ContentType(req *h2.Request) (ct string) {
	for _, f := range req.Header {
		if f.Name == "content-type" {
			ct = f.Value
		}
	}
	return ct
}

func (d *DoH) h2Response(status int, respCT string, body []byte) *h2.Response {
	return &h2.Response{Status: status, Header: d.h2Header(status, respCT), Body: body}
}

// wireHeader is the header of the common answer, shared by every response
// that carries it: read, never appended to or written.
var wireHeader = []hpack.HeaderField{{Name: "content-type", Value: ContentTypeWire}}

func (d *DoH) h2Header(status int, respCT string) []hpack.HeaderField {
	altSvc := d.AltSvc != "" && status == 200
	if respCT == ContentTypeWire && !altSvc {
		return wireHeader
	}
	var hdr []hpack.HeaderField
	if respCT != "" {
		hdr = append(hdr, hpack.HeaderField{Name: "content-type", Value: respCT})
	}
	if altSvc {
		hdr = append(hdr, hpack.HeaderField{Name: "alt-svc", Value: d.AltSvc})
	}
	return hdr
}

func (b *boundDoH) serveH1(req *h1.Request) *h1.Response {
	d := b.d
	status, respCT, body := b.serve(req.Method, req.Path, req.Header.Get("Content-Type"), req.Body)
	resp := &h1.Response{Status: status, Body: body}
	if respCT != "" {
		resp.Header.Set("Content-Type", respCT)
	}
	if d.AltSvc != "" && status == 200 {
		resp.Header.Set("Alt-Svc", d.AltSvc)
	}
	return resp
}

// endpoint returns the endpoint served at exactly path, or nil.
func (d *DoH) endpoint(path string) *Endpoint {
	endpoints := d.Endpoints
	if endpoints == nil {
		endpoints = DefaultEndpoints
	}
	for i := range endpoints {
		if endpoints[i].Path == path {
			return &endpoints[i]
		}
	}
	return nil
}

// checkGuard charges one query to the client bound into ctx and reports
// whether it is over its limit; tGuard is when the check began (zero
// without a guard or a tracer). Unbound contexts are not limited.
func (d *DoH) checkGuard(ctx context.Context) (tGuard time.Time, key uint64, refused bool) {
	if d.Guard == nil {
		return
	}
	if d.Telemetry.Tracing() {
		tGuard = time.Now()
	}
	key, bound := guard.KeyFromContext(ctx)
	return tGuard, key, bound && d.Guard.CheckStream(key) == guard.ActionRefuse
}

// refuseWire answers an over-limit wireformat query.
func (d *DoH) refuseWire(rawQ []byte, key uint64) (status int, respCT string, respBody []byte) {
	if resp, ok := d.Guard.AppendLimited(nil, rawQ, key, guard.ActionRefuse); ok {
		return 200, ContentTypeWire, resp
	}
	return 400, "", nil
}

// serve is the transport-independent DoH core: it routes by path, decodes
// the query per RFC 8484 (POST body or GET ?dns= base64url) or the JSON
// convention (GET ?name=&type=), runs the handler, and encodes the answer
// in the same representation.
func (b *boundDoH) serve(method, rawPath, contentType string, body []byte) (status int, respCT string, respBody []byte) {
	d, ctx := b.d, b.ctx
	if d.Processing > 0 {
		if err := sleepCtx(ctx, d.Processing); err != nil {
			return 500, "", nil
		}
	}
	u, err := url.ParseRequestURI(rawPath)
	if err != nil {
		return 400, "", nil
	}
	ep := d.endpoint(u.Path)
	if ep == nil {
		return 404, "", nil
	}

	var rawQ []byte
	var q *dnswire.Message // a JSON query, which never was in wire form
	switch method {
	case "POST":
		if contentType != ContentTypeWire || !ep.Wire {
			return 415, "", nil
		}
		rawQ = body
	case "GET":
		values := u.Query()
		if dns := values.Get("dns"); dns != "" {
			if !ep.Wire {
				return 415, "", nil
			}
			raw, err := base64.RawURLEncoding.DecodeString(dns)
			if err != nil {
				return 400, "", nil
			}
			rawQ = raw
		} else if values.Get("name") != "" {
			if !ep.JSON {
				return 415, "", nil
			}
			q, err = dnsjson.ParseQuery(values)
			if err != nil {
				return 400, "", nil
			}
		} else {
			return 400, "", nil
		}
	default:
		return 405, "", nil
	}

	tGuard, key, refused := d.checkGuard(ctx)
	if refused {
		if rawQ != nil {
			return d.refuseWire(rawQ, key)
		}
		// JSON queries already parsed to a Message; refuse in kind.
		r := q.Reply()
		r.RCode = dnswire.RCodeRefused
		if out, err := dnsjson.Encode(r); err == nil {
			return 200, ContentTypeJSON, out
		}
		return 500, "", nil
	}

	// The transaction spans decode → handler → DNS-payload encode; the
	// HTTP framing and socket write below this layer are not included, so
	// DoH traces carry no write span (UDP and stream servers include their
	// single write syscall, a few microseconds of skew at most).
	if rawQ != nil {
		var fq dnswire.Query
		out, tx, handled := b.c.hit(&fq, rawQ, nil, tGuard)
		if handled {
			return 200, ContentTypeWire, out
		}
		return b.answer(tx, &fq)
	}
	// Neither step runs for a JSON query, which never was in wire form: the
	// adapter that decoded it begins its transaction and runs the Message
	// handler — the one place a reply Message is built outside
	// MessageAdapter.
	tx := d.Telemetry.Begin(telemetry.ProtoDoH)
	defer tx.Finish()
	traceQuestion(tx, q)
	out, err := dnsjson.Encode(Respond(telemetry.NewContext(ctx, tx), d.Handler, q))
	if err != nil {
		// The client sees HTTP 500, not the ok response Respond
		// recorded — correct the verdict to match its fate.
		tx.SetVerdict(telemetry.VerdictServFail)
		return 500, "", nil
	}
	return 200, ContentTypeJSON, out
}

// hit is the hit step for an HTTP body: a cache hit's packed bytes become
// the response body with no Message in between, appended to dst — nil for a
// slice of their own, when the body escapes into a response the caller
// hands on, or the caller's scratch, which a longer answer outgrows into a
// new one. handled=false leaves tx (nil if the fast parse declined) and the
// view for answer to carry on with.
func (c *core) hit(q *dnswire.Query, rawQ, dst []byte, tGuard time.Time) (out []byte, tx *telemetry.Transaction, handled bool) {
	tx, ok := c.parse(q, rawQ, tGuard)
	if ok {
		if out, handled = c.serveWire(tx, q, dst, dnswire.MaxMessageLen); handled {
			tx.Finish()
		}
	}
	return out, tx, handled
}

// answer carries on with a wireformat query the hit step declined: the slow
// step's reply becomes the response body. The body escapes into a response
// the HTTP server writes once this returns, so the step appends it to no
// buffer of the adapter's, and it runs under a context layer of its own:
// DoH's slow step has no slot to carry the query's. Handler failures surface
// as DNS-level SERVFAIL in an HTTP 200, the way RFC 8484 servers report
// resolution (not transport) errors.
func (b *boundDoH) answer(tx *telemetry.Transaction, q *dnswire.Query) (status int, respCT string, respBody []byte) {
	tx = b.c.begin(tx)
	out, err := b.c.answer(telemetry.NewContext(b.ctx, tx), tx, q, nil)
	if err != nil {
		return 400, "", nil
	}
	tx.Finish()
	return 200, ContentTypeWire, out
}

// EncodeGETPath renders the RFC 8484 GET form of a query for the given
// endpoint path.
func EncodeGETPath(path string, queryWire []byte) string {
	return path + "?dns=" + base64.RawURLEncoding.EncodeToString(queryWire)
}

// EncodeJSONGETPath renders the JSON GET form (?name=&type=).
func EncodeJSONGETPath(path string, name dnswire.Name, t dnswire.Type) string {
	v := url.Values{}
	v.Set("name", strings.TrimSuffix(string(name.Canonical()), "."))
	v.Set("type", strconv.Itoa(int(t)))
	return path + "?" + v.Encode()
}
