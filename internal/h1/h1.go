// Package h1 implements the HTTP/1.1 subset the DoH cost study needs: a
// client that pipelines requests on one persistent connection — something
// net/http deliberately does not do — and a matching minimal server.
//
// RFC 7230 §6.3.2 requires a server to send pipelined responses in the
// order it received the requests. That in-order constraint is the whole
// point of including HTTP/1.1 in the study: one slow response blocks every
// response behind it (Figure 2's knock-on effect), which HTTP/2's stream
// multiplexing avoids. The server here processes requests sequentially,
// like the single-handler resolver the paper placed behind doh-proxy.
package h1

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
)

// Header is an ordered list of (name, value) pairs; names are matched
// case-insensitively.
type Header [][2]string

// Get returns the first value for name, or "".
func (h Header) Get(name string) string {
	for _, kv := range h {
		if strings.EqualFold(kv[0], name) {
			return kv[1]
		}
	}
	return ""
}

// Set appends or replaces the first field with the given name.
func (h *Header) Set(name, value string) {
	for i, kv := range *h {
		if strings.EqualFold(kv[0], name) {
			(*h)[i][1] = value
			return
		}
	}
	*h = append(*h, [2]string{name, value})
}

// Request is an HTTP/1.1 request.
type Request struct {
	Method string
	Path   string
	Host   string
	Header Header
	Body   []byte
}

// Response is a complete HTTP/1.1 response.
type Response struct {
	Status int
	Header Header
	Body   []byte
}

// Protocol errors.
var (
	ErrConnClosed  = errors.New("h1: connection closed")
	ErrMalformed   = errors.New("h1: malformed message")
	ErrBodyTooLong = errors.New("h1: body exceeds limit")
)

// maxBodyBytes bounds message bodies; DoH messages are ≤ 64 KB and the
// page-load simulator transfers object bytes analytically.
const maxBodyBytes = 8 << 20

// maxHeaderBlock bounds a message's start line and header fields together,
// as h2 bounds a header block: a peer that never ends a line, or never ends
// the block, is cut off here instead of being buffered without end. It
// bounds each chunk-size line of a chunked body too.
const maxHeaderBlock = 64 << 10

// writeRequest serializes req with a Content-Length body.
func writeRequest(w io.Writer, req *Request) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %s HTTP/1.1\r\n", req.Method, req.Path)
	fmt.Fprintf(&sb, "Host: %s\r\n", req.Host)
	for _, kv := range req.Header {
		fmt.Fprintf(&sb, "%s: %s\r\n", kv[0], kv[1])
	}
	if len(req.Body) > 0 || req.Method == "POST" || req.Method == "PUT" {
		fmt.Fprintf(&sb, "Content-Length: %d\r\n", len(req.Body))
	}
	sb.WriteString("\r\n")
	buf := append([]byte(sb.String()), req.Body...)
	_, err := w.Write(buf) // one flight per message
	return err
}

// writeResponse serializes resp.
func writeResponse(w io.Writer, resp *Response) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "HTTP/1.1 %d %s\r\n", resp.Status, statusText(resp.Status))
	for _, kv := range resp.Header {
		fmt.Fprintf(&sb, "%s: %s\r\n", kv[0], kv[1])
	}
	fmt.Fprintf(&sb, "Content-Length: %d\r\n\r\n", len(resp.Body))
	buf := append([]byte(sb.String()), resp.Body...)
	_, err := w.Write(buf)
	return err
}

func statusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 400:
		return "Bad Request"
	case 404:
		return "Not Found"
	case 415:
		return "Unsupported Media Type"
	case 500:
		return "Internal Server Error"
	}
	return "Status"
}

// readHeaderBlock parses the start-line and header fields, at most
// maxHeaderBlock octets of them.
func readHeaderBlock(br *bufio.Reader) (startLine string, header Header, err error) {
	budget := maxHeaderBlock
	startLine, err = readLine(br, &budget)
	if err != nil {
		return "", nil, err
	}
	for {
		line, err := readLine(br, &budget)
		if err != nil {
			return "", nil, err
		}
		if line == "" {
			return startLine, header, nil
		}
		name, value, ok := strings.Cut(line, ":")
		if !ok {
			return "", nil, fmt.Errorf("%w: header line %q", ErrMalformed, line)
		}
		header = append(header, [2]string{strings.TrimSpace(name), strings.TrimSpace(value)})
	}
}

// readLine reads one line and charges its octets to *budget; a line that
// would overdraw the budget is malformed, and is not read to its end.
func readLine(br *bufio.Reader, budget *int) (string, error) {
	var long []byte // the line so far, when it outgrows br's buffer
	for {
		frag, err := br.ReadSlice('\n')
		if len(long)+len(frag) > *budget {
			return "", fmt.Errorf("%w: header block over %d octets", ErrMalformed, maxHeaderBlock)
		}
		if err == bufio.ErrBufferFull {
			long = append(long, frag...)
			continue
		}
		if err != nil {
			return "", err
		}
		if long != nil {
			frag = append(long, frag...)
		}
		*budget -= len(frag)
		return strings.TrimRight(string(frag), "\r\n"), nil
	}
}

// readBody consumes the message body per Content-Length or chunked coding.
func readBody(br *bufio.Reader, header Header) ([]byte, error) {
	if strings.EqualFold(header.Get("Transfer-Encoding"), "chunked") {
		var body []byte
		for {
			budget := maxHeaderBlock
			line, err := readLine(br, &budget)
			if err != nil {
				return nil, err
			}
			n, err := strconv.ParseInt(strings.TrimSpace(line), 16, 64)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("%w: chunk size %q", ErrMalformed, line)
			}
			if n == 0 {
				_, err = readLine(br, &budget) // trailing CRLF after last chunk
				return body, err
			}
			if n > maxBodyBytes-int64(len(body)) {
				return nil, ErrBodyTooLong
			}
			chunk := make([]byte, n)
			if _, err := io.ReadFull(br, chunk); err != nil {
				return nil, err
			}
			body = append(body, chunk...)
			if _, err := readLine(br, &budget); err != nil { // chunk CRLF
				return nil, err
			}
		}
	}
	cl := header.Get("Content-Length")
	if cl == "" {
		return nil, nil
	}
	n, err := strconv.Atoi(cl)
	if err != nil || n < 0 {
		return nil, fmt.Errorf("%w: content-length %q", ErrMalformed, cl)
	}
	if n > maxBodyBytes {
		return nil, ErrBodyTooLong
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(br, body); err != nil {
		return nil, err
	}
	return body, nil
}

// Handler produces the response for one request.
type Handler interface {
	ServeH1(req *Request) *Response
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(req *Request) *Response

// ServeH1 implements Handler.
func (f HandlerFunc) ServeH1(req *Request) *Response { return f(req) }

// Server is a minimal HTTP/1.1 server with keep-alive.
type Server struct {
	Handler Handler
}

// ServeConn handles one connection until close. Requests are processed
// strictly in order: combined with pipelining clients, a slow request
// delays every response queued behind it — the HTTP/1.1 head-of-line
// blocking the study measures.
func (s *Server) ServeConn(conn net.Conn) error {
	defer conn.Close()
	br := bufio.NewReader(conn)
	for {
		startLine, header, err := readHeaderBlock(br)
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		parts := strings.SplitN(startLine, " ", 3)
		if len(parts) != 3 || !strings.HasPrefix(parts[2], "HTTP/1.") {
			return fmt.Errorf("%w: request line %q", ErrMalformed, startLine)
		}
		body, err := readBody(br, header)
		if err != nil {
			return err
		}
		req := &Request{
			Method: parts[0],
			Path:   parts[1],
			Host:   header.Get("Host"),
			Header: header,
			Body:   body,
		}
		resp := s.Handler.ServeH1(req)
		if resp == nil {
			resp = &Response{Status: 500}
		}
		if err := writeResponse(conn, resp); err != nil {
			return err
		}
		if strings.EqualFold(header.Get("Connection"), "close") {
			return nil
		}
	}
}

// pending is one in-flight pipelined request.
type pending struct {
	resp *Response
	err  error
	done chan struct{}
}

// PipelineClient issues requests on one persistent connection without
// waiting for earlier responses, and matches responses to requests in FIFO
// order as HTTP/1.1 requires. Safe for concurrent use.
type PipelineClient struct {
	conn net.Conn

	writeMu sync.Mutex
	mu      sync.Mutex
	queue   []*pending
	closed  error
}

// NewPipelineClient starts the response reader on conn.
func NewPipelineClient(conn net.Conn) *PipelineClient {
	c := &PipelineClient{conn: conn}
	go c.readLoop()
	return c
}

// Close shuts the connection down, failing outstanding requests.
func (c *PipelineClient) Close() error {
	c.fail(ErrConnClosed)
	return c.conn.Close()
}

func (c *PipelineClient) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed == nil {
		c.closed = err
	}
	for _, p := range c.queue {
		p.err = c.closed
		close(p.done)
	}
	c.queue = nil
}

// Do pipelines req and blocks until its response arrives or ctx expires.
// Calls made while earlier requests are outstanding go onto the wire
// immediately — that is the pipelining.
func (c *PipelineClient) Do(ctx context.Context, req *Request) (*Response, error) {
	p := &pending{done: make(chan struct{})}

	// Enqueue and write under writeMu so queue order matches wire order.
	c.writeMu.Lock()
	c.mu.Lock()
	if c.closed != nil {
		c.mu.Unlock()
		c.writeMu.Unlock()
		return nil, c.closed
	}
	c.queue = append(c.queue, p)
	c.mu.Unlock()
	err := writeRequest(c.conn, req)
	c.writeMu.Unlock()
	if err != nil {
		c.fail(fmt.Errorf("h1: write: %w", err))
		return nil, err
	}

	select {
	case <-p.done:
		return p.resp, p.err
	case <-ctx.Done():
		// A pipelined stream cannot skip a response; the connection is
		// unusable once we abandon one.
		c.Close()
		return nil, ctx.Err()
	}
}

func (c *PipelineClient) readLoop() {
	br := bufio.NewReader(c.conn)
	for {
		resp, err := readResponse(br)
		if err != nil {
			c.fail(err)
			return
		}
		c.mu.Lock()
		if len(c.queue) == 0 {
			c.mu.Unlock()
			c.fail(fmt.Errorf("%w: response without request", ErrMalformed))
			return
		}
		p := c.queue[0]
		c.queue = c.queue[1:]
		c.mu.Unlock()
		p.resp = resp
		close(p.done)
	}
}

// readResponse reads the next response off br.
func readResponse(br *bufio.Reader) (*Response, error) {
	startLine, header, err := readHeaderBlock(br)
	if err != nil {
		return nil, fmt.Errorf("h1: read: %w", err)
	}
	parts := strings.SplitN(startLine, " ", 3)
	if len(parts) < 2 || !strings.HasPrefix(parts[0], "HTTP/1.") {
		return nil, fmt.Errorf("%w: status line %q", ErrMalformed, startLine)
	}
	status, err := strconv.Atoi(parts[1])
	if err != nil {
		return nil, fmt.Errorf("%w: status %q", ErrMalformed, parts[1])
	}
	body, err := readBody(br, header)
	if err != nil {
		return nil, fmt.Errorf("h1: body: %w", err)
	}
	return &Response{Status: status, Header: header, Body: body}, nil
}
