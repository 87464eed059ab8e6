package landscape

import (
	"context"
	"crypto/tls"
	"fmt"
	"net"
	"strings"
	"time"

	"dohcost/internal/dnsserver"
	"dohcost/internal/dnstransport"
	"dohcost/internal/dnswire"
	"dohcost/internal/h2"
	"dohcost/internal/hpack"
	"dohcost/internal/netsim"
	"dohcost/internal/tlsx"
)

// Features is one column of Table 2: everything the prober (re)discovered
// about one DoH service, plus the registry-sourced steering entry.
type Features struct {
	Marker string
	URL    string

	Wire bool // application/dns-message accepted
	JSON bool // application/dns-json accepted
	TLS  map[uint16]bool
	CT   bool // embedded SCTs in the served certificate
	CAA  bool // CAA records published for the provider host
	OCSP bool // OCSP must-staple demanded by the certificate
	QUIC bool // HTTP/3 advertised via Alt-Svc
	DoT  bool // an RFC 7858 service answers on :853

	Steering Steering
}

// Prober rediscovers provider features by exercising their deployments,
// mirroring the paper's methodology (§2).
type Prober struct {
	Deployment *Deployment
	// ClientHost names the vantage point on the simulated network.
	ClientHost string
	// Timeout bounds each individual probe.
	Timeout time.Duration
}

// NewProber returns a prober with sane defaults.
func NewProber(d *Deployment) *Prober {
	return &Prober{Deployment: d, ClientHost: "prober", Timeout: 5 * time.Second}
}

// ProbeAll surveys every service column of every provider, one Features per
// Table 2 column (Blahdns' three mirrors collapse into one column, as in
// the paper).
func (p *Prober) ProbeAll() ([]Features, error) {
	var out []Features
	seen := map[string]bool{}
	for pi := range p.Deployment.Providers {
		prov := &p.Deployment.Providers[pi]
		for _, svc := range prov.Services {
			if seen[svc.Marker] {
				continue
			}
			seen[svc.Marker] = true
			f, err := p.probeService(prov, svc)
			if err != nil {
				return nil, fmt.Errorf("landscape: probing %s: %w", svc.URL, err)
			}
			out = append(out, f)
		}
	}
	return out, nil
}

// probeService probes one service column.
func (p *Prober) probeService(prov *Provider, svc Service) (Features, error) {
	f := Features{
		Marker:   svc.Marker,
		URL:      svc.URL,
		TLS:      make(map[uint16]bool, len(tlsx.Versions)),
		Steering: prov.Steering, // registry metadata, not wire-probeable
	}
	chain := p.Deployment.Chain(svc.Host)
	if chain == nil {
		return f, fmt.Errorf("no deployed chain for %s", svc.Host)
	}
	ctx, cancel := context.WithTimeout(context.Background(), p.Timeout)
	defer cancel()

	dial443 := func() (net.Conn, error) { return p.Deployment.Net.Dial(p.ClientHost, svc.Host+":443") }

	// Content types: issue one query per encoding and see who answers.
	f.Wire = p.tryDoH(ctx, chain, svc, dnstransport.EncodingPOST)
	f.JSON = p.tryDoH(ctx, chain, svc, dnstransport.EncodingJSON)

	// TLS version support.
	versions, err := tlsx.ProbeVersions(dial443, chain.ClientConfig(svc.Host))
	if err != nil {
		return f, err
	}
	f.TLS = versions

	// Certificate attributes: CT (embedded SCTs) and OCSP must-staple.
	raw, err := dial443()
	if err != nil {
		return f, err
	}
	tc := tls.Client(raw, chain.ClientConfig(svc.Host))
	tc.SetDeadline(time.Now().Add(p.Timeout))
	if err := tc.Handshake(); err != nil {
		tc.Close()
		return f, fmt.Errorf("certificate probe handshake: %w", err)
	}
	if certs := tc.ConnectionState().PeerCertificates; len(certs) > 0 {
		f.CT = tlsx.HasExtension(certs[0], tlsx.OIDSignedCertificateTimestamps)
		f.OCSP = tlsx.HasExtension(certs[0], tlsx.OIDOCSPMustStaple)
	}
	tc.Close()

	// QUIC: look for an Alt-Svc advertisement on a wireformat exchange
	// (falling back to JSON-only services' GET form).
	altSvc, err := p.fetchAltSvc(ctx, chain, svc)
	if err == nil {
		f.QUIC = strings.Contains(altSvc, "h3") || strings.Contains(altSvc, "quic")
	}

	// CAA: ask the registry resolver about the provider's host.
	f.CAA, err = p.probeCAA(ctx, prov.Host)
	if err != nil {
		return f, err
	}

	// DoT: attempt a full resolution against :853.
	f.DoT = p.tryDoT(ctx, chain, svc.Host)
	return f, nil
}

// tryDoH reports whether a resolution in the given encoding succeeds.
func (p *Prober) tryDoH(ctx context.Context, chain *tlsx.Chain, svc Service, enc dnstransport.DoHEncoding) bool {
	c := &dnstransport.DoHClient{
		Dial: func(ctx context.Context) (net.Conn, error) {
			return p.Deployment.Net.DialContext(ctx, p.ClientHost, svc.Host+":443")
		},
		TLS:  chain.ClientConfig(svc.Host),
		Path: svc.Path, Encoding: enc,
	}
	defer c.Close()
	resp, err := c.Exchange(ctx, dnswire.NewQuery(0, "probe.example.com.", dnswire.TypeA))
	return err == nil && resp.RCode == dnswire.RCodeSuccess
}

// fetchAltSvc performs one raw HTTP/2 exchange and returns the alt-svc
// header value.
func (p *Prober) fetchAltSvc(ctx context.Context, chain *tlsx.Chain, svc Service) (string, error) {
	raw, err := p.Deployment.Net.Dial(p.ClientHost, svc.Host+":443")
	if err != nil {
		return "", err
	}
	cfg := chain.ClientConfig(svc.Host, "h2")
	tc := tls.Client(raw, cfg)
	if err := tc.Handshake(); err != nil {
		raw.Close()
		return "", err
	}
	cc, err := h2.NewClientConn(tc)
	if err != nil {
		tc.Close()
		return "", err
	}
	defer cc.Close()

	var req *h2.Request
	if svc.Wire {
		wire, err := dnswire.NewQuery(0, "probe.example.com.", dnswire.TypeA).Pack()
		if err != nil {
			return "", err
		}
		req = &h2.Request{
			Method: "POST", Scheme: "https", Authority: svc.Host, Path: svc.Path,
			Header: []hpack.HeaderField{{Name: "content-type", Value: dnsserver.ContentTypeWire}},
			Body:   wire,
		}
	} else {
		req = &h2.Request{
			Method: "GET", Scheme: "https", Authority: svc.Host,
			Path: dnsserver.EncodeJSONGETPath(svc.Path, "probe.example.com.", dnswire.TypeA),
		}
	}
	resp, err := cc.RoundTrip(ctx, req)
	if err != nil {
		return "", err
	}
	return resp.HeaderValue("alt-svc"), nil
}

// probeCAA queries the registry for CAA records on host.
func (p *Prober) probeCAA(ctx context.Context, host string) (bool, error) {
	pc, err := p.Deployment.Net.ListenPacket("")
	if err != nil {
		return false, err
	}
	c := dnstransport.NewUDPClient(pc, netsim.Addr(RegistryHost+":53"))
	defer c.Close()
	resp, err := c.Exchange(ctx, dnswire.NewQuery(0, dnswire.Name(host+"."), dnswire.TypeCAA))
	if err != nil {
		return false, err
	}
	for _, rr := range resp.Answers {
		if rr.Type() == dnswire.TypeCAA {
			return true, nil
		}
	}
	return false, nil
}

// tryDoT attempts a resolution over :853.
func (p *Prober) tryDoT(ctx context.Context, chain *tlsx.Chain, host string) bool {
	c := dnstransport.NewDoTClient(
		func(ctx context.Context) (net.Conn, error) {
			return p.Deployment.Net.DialContext(ctx, p.ClientHost, host+":853")
		},
		chain.ClientConfig(host),
	)
	defer c.Close()
	resp, err := c.Exchange(ctx, dnswire.NewQuery(0, "probe.example.com.", dnswire.TypeA))
	return err == nil && resp.RCode == dnswire.RCodeSuccess
}
