package h2

// The response-storage contract: a Request owns the storage its response is
// received into, and its next round trip reuses it. Run under -race: a
// round trip that reused storage the read loop may still be filling shows
// as a data race as well as in the bodies.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"testing"

	"dohcost/internal/hpack"
)

// endlessPeer is a scripted server on conn. It answers every request with
// "echo:" and the request's body, except one whose body is "endless": that
// response never ends, a thousand DATA frames of "stale" on its stream,
// written beside the other answers. flowing is closed once the first of
// them has been written.
func endlessPeer(conn net.Conn, flowing chan struct{}) {
	fr := NewFramer(conn)
	if fr.ReadPreface() != nil || fr.WriteFrame(FrameSettings, 0, 0, nil) != nil {
		return
	}
	// :status 200 is in HPACK's static table: the same block every time.
	status := hpack.NewEncoder().AppendEncode(nil, []hpack.HeaderField{{Name: ":status", Value: "200"}})
	bodies := make(map[uint32][]byte)
	for {
		f, err := fr.ReadFrame()
		if err != nil {
			return
		}
		if f.Type != FrameData {
			continue
		}
		body := append(bodies[f.StreamID], f.Payload...)
		if bodies[f.StreamID] = body; f.Flags&FlagEndStream == 0 {
			continue
		}
		delete(bodies, f.StreamID)
		fr.Begin()
		fr.Add(FrameHeaders, FlagEndHeaders, f.StreamID, status)
		if string(body) != "endless" {
			fr.Add(FrameData, FlagEndStream, f.StreamID, append([]byte("echo:"), body...))
			fr.End()
			continue
		}
		fr.Add(FrameData, 0, f.StreamID, []byte("stale"))
		fr.End()
		close(flowing)
		go func(id uint32) {
			for i := 0; i < 1000 && fr.WriteFrame(FrameData, 0, id, []byte("stale")) == nil; i++ {
			}
		}(f.StreamID)
	}
}

// TestRequestOwnsItsResponse: a Request's round trips reuse one Response
// and its body. A cancelled round trip leaves its storage to the read loop
// that may still be filling it, a copied Request gets storage of its own,
// and a large body is not kept for the next response.
func TestRequestOwnsItsResponse(t *testing.T) {
	ctx := context.Background()

	t.Run("cancelled mid-body", func(t *testing.T) {
		c, s := tcpPair(t)
		flowing := make(chan struct{})
		go endlessPeer(s, flowing)
		cc, err := NewClientConn(c)
		if err != nil {
			t.Fatal(err)
		}
		defer cc.Close()

		req := &Request{Method: "POST", Scheme: "https", Authority: "h2.test", Path: "/dns-query", Body: []byte("first")}
		first, err := cc.RoundTrip(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		cctx, cancel := context.WithCancel(ctx)
		go func() { <-flowing; cancel() }()
		req.Body = []byte("endless")
		if _, err := cc.RoundTrip(cctx, req); !errors.Is(err, context.Canceled) {
			t.Fatalf("round trip cancelled mid-body: %v, want context.Canceled", err)
		}
		// first went to the cancelled stream, whose DATA is still arriving.
		var kept *Response
		for i := 0; i < 100; i++ {
			body := fmt.Sprintf("query %d", i)
			req.Body = []byte(body)
			resp, err := cc.RoundTrip(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if resp == first {
				t.Fatal("a round trip after a cancelled one reused the storage the read loop may still be filling")
			}
			if want := "echo:" + body; string(resp.Body) != want {
				t.Fatalf("round trip %d: body %q, want %q", i, resp.Body, want)
			}
			if kept == nil {
				kept = resp
			} else if resp != kept {
				t.Fatalf("round trip %d received into new storage", i)
			}
		}
	})

	t.Run("copy", func(t *testing.T) {
		cc := dialClient(t, startServer(t, HandlerFunc(echoHandler)))
		orig := &Request{Method: "POST", Scheme: "https", Authority: "h2.test", Path: "/", Body: []byte("original")}
		mine, err := cc.RoundTrip(ctx, orig)
		if err != nil {
			t.Fatal(err)
		}
		cp := *orig
		cp.Body = []byte("copy")
		theirs, err := cc.RoundTrip(ctx, &cp)
		if err != nil {
			t.Fatal(err)
		}
		if theirs == mine {
			t.Fatal("a copied Request received into the original's storage")
		}
		if string(mine.Body) != "echo:original" || string(theirs.Body) != "echo:copy" {
			t.Errorf("bodies %q and %q, want echo:original and echo:copy", mine.Body, theirs.Body)
		}
		if again, err := cc.RoundTrip(ctx, &cp); err != nil || again != theirs {
			t.Errorf("the copy's next round trip: %p, %v; want its own storage %p again", again, err, theirs)
		}
	})

	t.Run("large body", func(t *testing.T) {
		cc := dialClient(t, startServer(t, HandlerFunc(echoHandler)))
		req := &Request{Method: "POST", Scheme: "https", Authority: "h2.test", Path: "/", Body: bytes.Repeat([]byte("L"), 4*maxKeptBody)}
		resp, err := cc.RoundTrip(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Body) != len("echo:")+4*maxKeptBody {
			t.Fatalf("large round trip: %d octets", len(resp.Body))
		}
		req.Body = []byte("small")
		if resp, err = cc.RoundTrip(ctx, req); err != nil {
			t.Fatal(err)
		}
		if c := cap(resp.Body); c > maxKeptBody {
			t.Errorf("the body after a %d-octet one has capacity %d: the large storage was kept", 4*maxKeptBody, c)
		}
		small := &resp.Body[0]
		if resp, err = cc.RoundTrip(ctx, req); err != nil {
			t.Fatal(err)
		}
		if string(resp.Body) != "echo:small" || &resp.Body[0] != small {
			t.Errorf("a small body's storage was not reused, or holds %q, not echo:small", resp.Body)
		}
	})
}
