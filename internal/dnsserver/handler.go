// Package dnsserver provides the resolver side of every transport the study
// compares: classic UDP and TCP, DNS-over-TLS (RFC 7858, with selectable
// in-order or out-of-order reply scheduling), and DNS-over-HTTPS (RFC 8484,
// over this repository's HTTP/1.1 and HTTP/2 stacks, wireformat and JSON).
//
// Handlers compose as middleware. The experiment setup from the paper — a
// CoreDNS instance answering every name with the same address, with one in
// every 25 queries delayed by a second — is Static + DelayEvery.
package dnsserver

import (
	"context"
	"math/rand"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"dohcost/internal/dnswire"
	"dohcost/internal/telemetry"
)

// Handler answers DNS queries. Implementations must be safe for concurrent
// use; servers may dispatch queries from many connections at once.
//
// The context is derived from the lifetime of whatever carried the query —
// the stream connection, the HTTP request's connection, or the server
// itself for UDP — so handlers doing real work (forwarding upstream,
// recursing) can abandon queries whose client is gone. It is valid until
// ServeDNS returns: a server may hand the same context, carrying the next
// query's transaction, to the next query, so work that outlives the call
// runs under a context of its own. A handler returns either a response or
// an error; servers synthesize SERVFAIL from errors, so handlers never need
// to build failure responses themselves.
type Handler interface {
	ServeDNS(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error)
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error)

// ServeDNS implements Handler.
func (f HandlerFunc) ServeDNS(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	return f(ctx, q)
}

// ServFail synthesizes the SERVFAIL response servers send when a handler
// returns an error (or nil without an error).
func ServFail(q *dnswire.Message) *dnswire.Message {
	r := q.Reply()
	r.RCode = dnswire.RCodeServerFailure
	return r
}

// Respond runs h and folds any error into a SERVFAIL response, the way
// every server transport surfaces handler failures to clients. It is also
// the verdict point of the telemetry pipeline: the query's Transaction (if
// the server began one) learns here whether it ended ok, as a synthesized
// SERVFAIL, or canceled by its client.
func Respond(ctx context.Context, h Handler, q *dnswire.Message) *dnswire.Message {
	resp, err := h.ServeDNS(ctx, q)
	tx := telemetry.FromContext(ctx)
	if err != nil || resp == nil {
		failed(ctx, tx)
		return ServFail(q)
	}
	tx.SetVerdict(telemetry.VerdictOK)
	return resp
}

// failed records the fate of a query its handler could not answer: the
// reply is SERVFAIL, the verdict says whether the client gave up first.
func failed(ctx context.Context, tx *telemetry.Transaction) {
	if ctx.Err() != nil {
		tx.SetVerdict(telemetry.VerdictCanceled)
	} else {
		tx.SetVerdict(telemetry.VerdictServFail)
	}
}

// sleepCtx pauses for d unless the context ends first, in which case it
// reports the context's error. Delay middlewares use it so an abandoned
// query does not hold a serving goroutine hostage.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t, _ := sleepTimers.Get().(*time.Timer)
	if t == nil {
		t = time.NewTimer(d)
	} else {
		t.Reset(d)
	}
	// Since go 1.23 a stopped or reset timer's channel holds no stale
	// value, so a timer goes back to the pool without draining.
	defer func() { t.Stop(); sleepTimers.Put(t) }()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// sleepTimers recycles sleepCtx's timers: three objects a wait otherwise.
var sleepTimers sync.Pool // of *time.Timer

// Static answers every A/AAAA query with the same address and TTL,
// independent of the queried name — the paper's trick for isolating
// transport behaviour from resolution behaviour (§3: "we instruct our
// resolver to always return the same IP address").
func Static(addr netip.Addr, ttl uint32) Handler {
	return HandlerFunc(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		r := q.Reply()
		r.Authoritative = true
		qq := q.Question1()
		switch {
		case qq.Type == dnswire.TypeA && addr.Is4():
			r.Answers = append(r.Answers, dnswire.ResourceRecord{
				Name: qq.Name.Canonical(), Class: dnswire.ClassINET, TTL: ttl,
				Data: &dnswire.A{Addr: addr},
			})
		case qq.Type == dnswire.TypeAAAA && addr.Is6():
			r.Answers = append(r.Answers, dnswire.ResourceRecord{
				Name: qq.Name.Canonical(), Class: dnswire.ClassINET, TTL: ttl,
				Data: &dnswire.AAAA{Addr: addr},
			})
		}
		return r, nil
	})
}

// DelayEvery delays every nth query through it by d before passing it on.
// With n=25 and d=1s this is exactly the paper's Figure 2 fault injection.
func DelayEvery(n int, d time.Duration, next Handler) Handler {
	var counter atomic.Int64
	return HandlerFunc(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		if c := counter.Add(1); n > 0 && c%int64(n) == 0 {
			if err := sleepCtx(ctx, d); err != nil {
				return nil, err
			}
		}
		return next.ServeDNS(ctx, q)
	})
}

// Delay sleeps for a fixed duration on every query — the building block for
// emulating resolver-side processing latency.
func Delay(d time.Duration, next Handler) Handler {
	return HandlerFunc(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		if err := sleepCtx(ctx, d); err != nil {
			return nil, err
		}
		return next.ServeDNS(ctx, q)
	})
}

// CacheMissDelay models recursive-resolver behaviour: with probability
// missRate a query "misses the cache" and pays an upstream recursion delay
// drawn uniformly from [min, max]. The paper's local university resolver
// resolves misses itself, while the big cloud resolvers enjoy very hot
// shared caches — which is why §5 finds cloud UDP resolution *faster* than
// the local resolver.
func CacheMissDelay(seed int64, missRate float64, min, max time.Duration, next Handler) Handler {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(seed))
	return HandlerFunc(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		mu.Lock()
		miss := rng.Float64() < missRate
		var extra time.Duration
		if miss && max > min {
			extra = min + time.Duration(rng.Int63n(int64(max-min)))
		} else if miss {
			extra = min
		}
		mu.Unlock()
		if extra > 0 {
			if err := sleepCtx(ctx, extra); err != nil {
				return nil, err
			}
		}
		return next.ServeDNS(ctx, q)
	})
}

// EDNS0PaddingCode is the EDNS(0) option code for Padding (RFC 7830).
const EDNS0PaddingCode = 12

// PadResponses pads every response's wire form up to a multiple of
// blockSize using the EDNS(0) Padding option, per the RFC 8467 server
// policy. Google's DoH frontends do this (468-byte blocks), which is part
// of why the paper measures larger per-resolution payloads against Google
// than against Cloudflare even on persistent connections.
func PadResponses(blockSize int, next Handler) Handler {
	return HandlerFunc(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		r, err := next.ServeDNS(ctx, q)
		if err != nil || r == nil || blockSize <= 0 {
			return r, err
		}
		if r.EDNS == nil {
			r.EDNS = &dnswire.EDNS{UDPSize: 512}
		}
		wire, err := r.Pack()
		if err != nil {
			return r, nil
		}
		// A fresh padding option costs 4 octets of option header.
		unpadded := len(wire) + 4
		pad := (blockSize - unpadded%blockSize) % blockSize
		r.EDNS.Options = append(r.EDNS.Options, dnswire.EDNS0Option{
			Code: EDNS0PaddingCode, Data: make([]byte, pad),
		})
		return r, nil
	})
}
