package h1

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// endlessConn plays prefix, then repeats fill for ever — well, until limit
// octets have been read, where a server that never gives up meets EOF — and
// counts what was read.
type endlessConn struct {
	net.Conn // nil: the server must need nothing but Read, Write and Close
	prefix   string
	fill     string
	limit    int
	read     int
}

func (c *endlessConn) Read(p []byte) (int, error) {
	if c.read >= c.limit {
		return 0, io.EOF
	}
	p = p[:min(len(p), c.limit-c.read)]
	for i := range p {
		if j := c.read + i; j < len(c.prefix) {
			p[i] = c.prefix[j]
		} else {
			p[i] = c.fill[(j-len(c.prefix))%len(c.fill)]
		}
	}
	c.read += len(p)
	return len(p), nil
}

func (c *endlessConn) Write(p []byte) (int, error) { return len(p), nil }
func (c *endlessConn) Close() error                { return nil }

// TestHeaderBlockBounded: a peer that never ends its header line, or never
// ends its header block, is cut off with ErrMalformed once the start line
// and header fields pass maxHeaderBlock — having been read no further than
// that plus one bufio buffer — on the server and on the pipelined client
// alike.
func TestHeaderBlockBounded(t *testing.T) {
	const limit = 16 * maxHeaderBlock
	bound := maxHeaderBlock + 4096 // bufio's default buffer
	for _, tc := range []struct{ name, prefix, fill string }{
		{"endless request line", "POST /dns-query", "a"},
		{"endless header line", "POST /dns-query HTTP/1.1\r\nX-Pad: ", "a"},
		{"endless header block", "POST /dns-query HTTP/1.1\r\n", "X-Pad: aaaaaaaa\r\n"},
		{"endless response header block", "HTTP/1.1 200 OK\r\n", "X-Pad: aaaaaaaa\r\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn := &endlessConn{prefix: tc.prefix, fill: tc.fill, limit: limit}
			var err error
			if strings.HasPrefix(tc.prefix, "HTTP/") {
				_, err = NewPipelineClient(conn).Do(context.Background(), &Request{Method: "GET", Path: "/"})
			} else {
				err = (&Server{Handler: HandlerFunc(echo)}).ServeConn(conn)
			}
			if !errors.Is(err, ErrMalformed) || conn.read > bound {
				t.Errorf("gave up after %d octets with %v, want ErrMalformed within %d", conn.read, err, bound)
			}
		})
	}
}

// scriptConn plays a fixed byte string to the server and records what the
// server writes back.
type scriptConn struct {
	net.Conn // nil: the server must need nothing but Read, Write and Close
	mu       sync.Mutex
	in       *bytes.Reader
	out      bytes.Buffer
}

func (c *scriptConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.in.Read(p)
}

func (c *scriptConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.out.Write(p)
}

func (c *scriptConn) Close() error { return nil }

// FuzzServeConn feeds arbitrary bytes to the server as requests and to the
// pipelined client's reader as responses. Whatever they are: no panic,
// ServeConn returns, the server answers no more requests than it read and
// every answer it wrote reads back as a response; and every response the
// client's reader accepts carries a body within maxBodyBytes and
// survives a write and re-read unchanged.
func FuzzServeConn(f *testing.F) {
	f.Add([]byte("POST /dns-query HTTP/1.1\r\nHost: h1.test\r\nContent-Length: 5\r\n\r\nhello" +
		"GET /dns-query?dns=AAAB HTTP/1.1\r\nHost: h1.test\r\n\r\n"))
	f.Add([]byte("POST /dns-query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n"))
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabcHTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n"))
	f.Add([]byte("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n"))
	f.Add([]byte("POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n"))
	f.Add([]byte("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nffffffffffffffff\r\n"))
	f.Add([]byte("POST / HTTP/1.1\r\nConnection: close\r\n\r\nPOST / HTTP/1.1\r\n\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var handled int
		srv := &Server{Handler: HandlerFunc(func(req *Request) *Response {
			handled++
			return echo(req)
		})}
		conn := &scriptConn{in: bytes.NewReader(data)}
		done := make(chan struct{})
		go func() { srv.ServeConn(conn); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("ServeConn did not return after its input ended")
		}
		if requests := bytes.Count(data, []byte("HTTP/1.")); handled > requests {
			t.Errorf("handler ran %d times for input naming HTTP/1.x %d times", handled, requests)
		}
		out := bufio.NewReader(&conn.out)
		for i := 0; i < handled; i++ {
			if _, err := readResponse(out); err != nil {
				t.Fatalf("response %d of %d the server wrote does not read back: %v", i+1, handled, err)
			}
		}

		in := bufio.NewReader(bytes.NewReader(data))
		for {
			resp, err := readResponse(in)
			if err != nil {
				break
			}
			if len(resp.Body) > maxBodyBytes {
				t.Fatalf("accepted a %d-octet body", len(resp.Body))
			}
			// The writer frames the body itself; the fields that framed it
			// on the way in would frame it twice.
			framed := *resp
			framed.Header = nil
			for _, kv := range resp.Header {
				if !strings.EqualFold(kv[0], "Content-Length") && !strings.EqualFold(kv[0], "Transfer-Encoding") {
					framed.Header = append(framed.Header, kv)
				}
			}
			var wire bytes.Buffer
			if err := writeResponse(&wire, &framed); err != nil {
				t.Fatal(err)
			}
			again, err := readResponse(bufio.NewReader(&wire))
			if err != nil || again.Status != resp.Status || !bytes.Equal(again.Body, resp.Body) {
				t.Fatalf("response %d %q re-read as %+v, %v", resp.Status, resp.Body, again, err)
			}
		}
	})
}
