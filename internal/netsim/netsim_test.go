package netsim

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// startEcho runs a listener that echoes everything back on each conn.
func startEcho(t *testing.T, n *Network, addr string) *Listener {
	t.Helper()
	l, err := n.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				buf := make([]byte, 4096)
				for {
					n, err := c.Read(buf)
					if n > 0 {
						if _, err := c.Write(buf[:n]); err != nil {
							return
						}
					}
					if err != nil {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() { l.Close() })
	return l
}

func TestDialEchoRoundTrip(t *testing.T) {
	n := New(1)
	startEcho(t, n, "server:80")
	c, err := n.Dial("client", "server:80")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	msg := []byte("hello across the simulated wire")
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("echo = %q, want %q", got, msg)
	}
}

func TestDialUnknownHostRefused(t *testing.T) {
	n := New(1)
	if _, err := n.Dial("client", "nobody:80"); err == nil {
		t.Fatal("dial to unbound address succeeded")
	}
}

func TestListenAddressInUse(t *testing.T) {
	n := New(1)
	if _, err := n.Listen("host:1"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("host:1"); err == nil {
		t.Fatal("double listen succeeded")
	}
}

func TestLatencyIsCharged(t *testing.T) {
	n := New(1)
	n.SetLink("client", "server", Link{Delay: 20 * time.Millisecond})
	startEcho(t, n, "server:80")

	start := time.Now()
	c, err := n.Dial("client", "server:80")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dialTime := time.Since(start)
	// Dial pays one RTT (SYN + SYN-ACK) = 40ms.
	if dialTime < 35*time.Millisecond {
		t.Errorf("dial took %v, want >= ~40ms handshake", dialTime)
	}

	start = time.Now()
	c.Write([]byte("ping"))
	buf := make([]byte, 4)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	rtt := time.Since(start)
	if rtt < 35*time.Millisecond || rtt > 200*time.Millisecond {
		t.Errorf("echo RTT = %v, want ~40ms", rtt)
	}
}

func TestCloseGivesPeerEOF(t *testing.T) {
	n := New(1)
	l, err := n.Listen("srv:1")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := l.Accept()
		accepted <- c
	}()
	c, err := n.Dial("cli", "srv:1")
	if err != nil {
		t.Fatal(err)
	}
	srv := <-accepted
	c.Write([]byte("bye"))
	c.Close()
	// Peer drains pending data first, then sees EOF.
	buf := make([]byte, 16)
	nn, err := srv.Read(buf)
	if err != nil || string(buf[:nn]) != "bye" {
		t.Fatalf("read = %q, %v", buf[:nn], err)
	}
	if _, err := srv.Read(buf); err != io.EOF {
		t.Errorf("after close err = %v, want EOF", err)
	}
	// Writing on the closed end fails.
	if _, err := c.Write([]byte("x")); !errors.Is(err, net.ErrClosed) {
		t.Errorf("write after close = %v, want ErrClosed", err)
	}
}

func TestReadDeadline(t *testing.T) {
	n := New(1)
	startEcho(t, n, "srv:1")
	c, err := n.Dial("cli", "srv:1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	start := time.Now()
	_, err = c.Read(make([]byte, 1))
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("err = %v, want timeout", err)
	}
	if d := time.Since(start); d < 25*time.Millisecond || d > 500*time.Millisecond {
		t.Errorf("deadline fired after %v, want ~30ms", d)
	}
	// Clearing the deadline makes reads block again (verify via data path).
	c.SetReadDeadline(time.Time{})
	c.Write([]byte("z"))
	buf := make([]byte, 1)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatalf("read after clearing deadline: %v", err)
	}
}

func TestWriteBoundariesPreserved(t *testing.T) {
	n := New(1)
	l, _ := n.Listen("srv:1")
	go func() {
		c, _ := l.Accept()
		c.Write([]byte("first"))
		c.Write([]byte("second"))
	}()
	c, err := n.Dial("cli", "srv:1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf := make([]byte, 64)
	nn, err := c.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	// A single Read must not cross a segment boundary.
	if string(buf[:nn]) != "first" {
		t.Errorf("first read = %q, want \"first\"", buf[:nn])
	}
	nn, err = c.Read(buf)
	if err != nil || string(buf[:nn]) != "second" {
		t.Errorf("second read = %q, %v", buf[:nn], err)
	}
}

func TestOrderingPreservedUnderJitter(t *testing.T) {
	n := New(7)
	n.SetLink("cli", "srv", Link{Delay: time.Millisecond, Jitter: 5 * time.Millisecond})
	l, _ := n.Listen("srv:1")
	done := make(chan []byte, 1)
	go func() {
		c, _ := l.Accept()
		var all []byte
		buf := make([]byte, 256)
		for len(all) < 100 {
			nn, err := c.Read(buf)
			all = append(all, buf[:nn]...)
			if err != nil {
				break
			}
		}
		done <- all
	}()
	c, err := n.Dial("cli", "srv:1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var want []byte
	for i := 0; i < 100; i++ {
		b := []byte{byte(i)}
		want = append(want, b...)
		c.Write(b)
	}
	got := <-done
	if !bytes.Equal(got, want) {
		t.Error("stream reordered under jitter")
	}
}

func TestBandwidthSerialization(t *testing.T) {
	n := New(1)
	// 1 MB/s: a 100 KB segment takes 100 ms to serialize.
	n.SetLink("cli", "srv", Link{Bandwidth: 1 << 20})
	l, _ := n.Listen("srv:1")
	go func() {
		c, _ := l.Accept()
		io.Copy(io.Discard, c)
	}()
	recv := make(chan time.Duration, 1)
	go func() {
		c, _ := l.Accept()
		_ = c
	}()
	c, err := n.Dial("cli", "srv:1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_ = recv
	start := time.Now()
	c.Write(make([]byte, 100<<10))
	// Write returns immediately (buffered)…
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Errorf("write blocked %v", d)
	}
}

func TestPacketConnRoundTrip(t *testing.T) {
	n := New(1)
	srv, err := n.ListenPacket("dns:53")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go func() {
		buf := make([]byte, 512)
		for {
			nn, from, err := srv.ReadFrom(buf)
			if err != nil {
				return
			}
			srv.WriteTo(buf[:nn], from)
		}
	}()
	cli, err := n.ListenPacket("")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.WriteTo([]byte("query"), Addr("dns:53")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	nn, from, err := cli.ReadFrom(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:nn]) != "query" || from.String() != "dns:53" {
		t.Errorf("got %q from %v", buf[:nn], from)
	}
}

func TestPacketLoss(t *testing.T) {
	n := New(99)
	n.SetLink("cli", "dns", Link{Loss: 1.0}) // drop everything
	srv, _ := n.ListenPacket("dns:53")
	defer srv.Close()
	cli, _ := n.ListenPacket("cli:1000")
	defer cli.Close()
	if _, err := cli.WriteTo([]byte("q"), Addr("dns:53")); err != nil {
		t.Fatal(err)
	}
	srv.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	if _, _, err := srv.ReadFrom(make([]byte, 64)); err == nil {
		t.Fatal("datagram survived 100% loss link")
	}
}

func TestPacketTruncation(t *testing.T) {
	n := New(1)
	srv, _ := n.ListenPacket("dns:53")
	defer srv.Close()
	cli, _ := n.ListenPacket("cli:1")
	defer cli.Close()
	cli.WriteTo([]byte("0123456789"), Addr("dns:53"))
	buf := make([]byte, 4)
	nn, _, err := srv.ReadFrom(buf)
	if err != nil {
		t.Fatal(err)
	}
	if nn != 4 || string(buf) != "0123" {
		t.Errorf("truncated read = %q (%d)", buf[:nn], nn)
	}
}

func TestPacketWriteToDeadHostIsSilent(t *testing.T) {
	n := New(1)
	cli, _ := n.ListenPacket("cli:1")
	defer cli.Close()
	if _, err := cli.WriteTo([]byte("x"), Addr("gone:53")); err != nil {
		t.Errorf("fire-and-forget write errored: %v", err)
	}
}

func TestListenerCloseUnblocksAccept(t *testing.T) {
	n := New(1)
	l, _ := n.Listen("srv:1")
	done := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	l.Close()
	select {
	case err := <-done:
		if !errors.Is(err, net.ErrClosed) {
			t.Errorf("Accept after close = %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Accept did not unblock")
	}
	// Address is released: relisten succeeds.
	if _, err := n.Listen("srv:1"); err != nil {
		t.Errorf("relisten after close: %v", err)
	}
}

func TestConcurrentConnections(t *testing.T) {
	n := New(1)
	startEcho(t, n, "srv:1")
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := n.Dial("cli", "srv:1")
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			msg := bytes.Repeat([]byte{byte(i)}, 100)
			c.Write(msg)
			got := make([]byte, 100)
			if _, err := io.ReadFull(c, got); err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(got, msg) {
				t.Errorf("conn %d echoed wrong data", i)
			}
		}(i)
	}
	wg.Wait()
}

func TestStreamDeliveryProperty(t *testing.T) {
	// Any sequence of writes is received as the identical concatenated byte
	// stream, regardless of chunk sizes.
	f := func(chunks [][]byte) bool {
		n := New(3)
		l, err := n.Listen("s:1")
		if err != nil {
			return false
		}
		defer l.Close()
		var want []byte
		for _, c := range chunks {
			want = append(want, c...)
		}
		got := make(chan []byte, 1)
		go func() {
			c, err := l.Accept()
			if err != nil {
				got <- nil
				return
			}
			all, _ := io.ReadAll(c)
			got <- all
		}()
		c, err := n.Dial("c", "s:1")
		if err != nil {
			return false
		}
		for _, chunk := range chunks {
			if len(chunk) == 0 {
				continue
			}
			if _, err := c.Write(chunk); err != nil {
				return false
			}
		}
		c.Close()
		return bytes.Equal(<-got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAddrHost(t *testing.T) {
	if Addr("host:443").host() != "host" {
		t.Error("host with port")
	}
	if Addr("bare").host() != "bare" {
		t.Error("bare host")
	}
	if Addr("x:1").Network() != "sim" {
		t.Error("network name")
	}
}

func TestConnStats(t *testing.T) {
	n := New(1)
	n.SetLink("cli", "srv", Link{MTU: 50}) // MSS 10
	l, _ := n.Listen("srv:1")
	serverDone := make(chan ConnStats, 1)
	go func() {
		c, _ := l.Accept()
		buf := make([]byte, 64)
		io.ReadFull(c, buf[:25])
		c.Write([]byte("pong"))
		sc := c.(*Conn)
		serverDone <- sc.Stats()
	}()
	c, err := n.Dial("cli", "srv:1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cc := c.(*Conn)
	cc.Write(make([]byte, 25)) // 25 bytes at MSS 10 → 3 packets, 1 segment
	buf := make([]byte, 4)
	io.ReadFull(cc, buf)
	got := cc.Stats()
	if got.OutBytes != 25 || got.OutSegments != 1 || got.OutPackets != 3 {
		t.Errorf("out stats = %+v", got)
	}
	if got.InBytes != 4 || got.InSegments != 1 || got.InPackets != 1 {
		t.Errorf("in stats = %+v", got)
	}
	srv := <-serverDone
	// The server's view mirrors the client's.
	if srv.OutBytes != got.InBytes || srv.InBytes != got.OutBytes {
		t.Errorf("server stats = %+v, client = %+v", srv, got)
	}
	if got.Total() != 29 {
		t.Errorf("Total = %d", got.Total())
	}
	delta := got.Sub(ConnStats{OutBytes: 20, OutPackets: 2, OutSegments: 1})
	if delta.OutBytes != 5 || delta.OutPackets != 1 || delta.OutSegments != 0 {
		t.Errorf("Sub = %+v", delta)
	}
}
