package udpio

import (
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"
)

// echoBatch runs a batch server over conn: every received datagram is
// echoed back with a one-byte "ok:" prefix via WriteBatch.
func echoBatch(t *testing.T, conn BatchConn, done chan struct{}) {
	t.Helper()
	ms := make([]Message, MaxBatch)
	for i := range ms {
		ms[i].Buf = make([]byte, 2048)
	}
	out := make([]Message, MaxBatch)
	for i := range out {
		out[i].Buf = make([]byte, 2048)
	}
	go func() {
		defer close(done)
		for {
			n, err := conn.ReadBatch(ms)
			if err != nil {
				return
			}
			for i := 0; i < n; i++ {
				out[i].N = ms[i].N + 1
				out[i].Buf[0] = '+'
				copy(out[i].Buf[1:], ms[i].Buf[:ms[i].N])
				out[i].Addr = ms[i].Addr
			}
			if _, err := conn.WriteBatch(out[:n]); err != nil {
				t.Errorf("WriteBatch: %v", err)
				return
			}
		}
	}()
}

// runEcho drives k datagrams through a batch echo server on conn and
// verifies every payload comes back intact and prefixed.
func runEcho(t *testing.T, conn BatchConn, k int) {
	t.Helper()
	done := make(chan struct{})
	echoBatch(t, conn, done)

	client, err := net.Dial("udp", conn.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	want := map[string]bool{}
	for i := 0; i < k; i++ {
		msg := fmt.Sprintf("datagram-%03d", i)
		if _, err := client.Write([]byte(msg)); err != nil {
			t.Fatal(err)
		}
		want["+"+msg] = true
	}
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 2048)
	for len(want) > 0 {
		n, err := client.Read(buf)
		if err != nil {
			t.Fatalf("echo read with %d replies outstanding: %v", len(want), err)
		}
		got := string(buf[:n])
		if !want[got] {
			t.Fatalf("unexpected or duplicate reply %q", got)
		}
		delete(want, got)
	}
	conn.Close()
	<-done
}

func TestWrapKernelBatchRoundTrip(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn := Wrap(pc)
	if runtime.GOOS == "linux" && (runtime.GOARCH == "amd64" || runtime.GOARCH == "arm64") && !conn.Batched() {
		t.Fatal("Wrap of a *net.UDPConn on linux should be kernel-batched")
	}
	runEcho(t, conn, 100)
}

func TestFallbackRoundTrip(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn := BatchConn(&fallbackConn{pc: pc})
	if conn.Batched() {
		t.Fatal("fallbackConn claims to be batched")
	}
	runEcho(t, conn, 100)
}

func TestReadBatchCollectsMultiple(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn := Wrap(pc)
	defer conn.Close()
	if !conn.Batched() {
		t.Skip("no kernel batch support on this platform")
	}
	client, err := net.Dial("udp", conn.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	const k = 16
	for i := 0; i < k; i++ {
		if _, err := client.Write([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	ms := make([]Message, MaxBatch)
	for i := range ms {
		ms[i].Buf = make([]byte, 64)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	got := 0
	reads := 0
	seen := map[byte]bool{}
	for got < k {
		n, err := conn.ReadBatch(ms)
		if err != nil {
			t.Fatalf("ReadBatch after %d datagrams: %v", got, err)
		}
		reads++
		for i := 0; i < n; i++ {
			if ms[i].N != 1 {
				t.Fatalf("datagram length = %d, want 1", ms[i].N)
			}
			if seen[ms[i].Buf[0]] {
				t.Fatalf("duplicate datagram %d", ms[i].Buf[0])
			}
			seen[ms[i].Buf[0]] = true
			if ua, ok := ms[i].Addr.(*net.UDPAddr); !ok || ua.Port == 0 {
				t.Fatalf("source address not a usable UDPAddr: %v", ms[i].Addr)
			}
		}
		got += n
	}
	// The datagrams were all queued before the first read; recvmmsg should
	// have needed far fewer wakeups than datagrams.
	if reads == k {
		t.Logf("note: %d reads for %d datagrams (no batching observed; scheduling-dependent)", reads, k)
	}
}

// TestBatchSyscallsAllocNothing pins the vector syscalls themselves: a warm
// ReadBatch and WriteBatch — four datagrams in over loopback, the same four
// echoed back — allocate nothing. The func values RawConn.Read and Write
// are handed, and what they share with their callers, live in the conn.
func TestBatchSyscallsAllocNothing(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn := Wrap(pc)
	defer conn.Close()
	if !conn.Batched() {
		t.Skip("no kernel batch support on this platform")
	}
	client, err := net.Dial("udp", conn.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	const k = 4
	ms := make([]Message, k)
	for i := range ms {
		ms[i].Buf = make([]byte, 64)
	}
	payload, echo := []byte("ping"), make([]byte, 64)
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	client.SetReadDeadline(time.Now().Add(10 * time.Second))
	round := func() {
		for i := 0; i < k; i++ {
			if _, err := client.Write(payload); err != nil {
				t.Fatal(err)
			}
		}
		for got := 0; got < k; {
			n, err := conn.ReadBatch(ms)
			if err != nil {
				t.Fatal(err)
			}
			if sent, err := conn.WriteBatch(ms[:n]); err != nil || sent != n {
				t.Fatalf("WriteBatch sent %d of %d: %v", sent, n, err)
			}
			got += n
		}
		for i := 0; i < k; i++ {
			if n, err := client.Read(echo); err != nil || string(echo[:n]) != "ping" {
				t.Fatalf("echo %d: %q, %v", i, echo[:n], err)
			}
		}
	}
	round() // sizes the vectors, makes the read vector's addresses
	if got := testing.AllocsPerRun(100, round); got != 0 {
		t.Errorf("a warm ReadBatch + WriteBatch round allocates %.1f times, want 0", got)
	}
}

func TestCloneAddrDetachesFromReadVector(t *testing.T) {
	orig := &net.UDPAddr{IP: net.IPv4(192, 0, 2, 1).To4(), Port: 1234}
	clone := CloneAddr(orig).(*net.UDPAddr)
	orig.IP[0] = 99
	orig.Port = 4321
	if clone.Port != 1234 || clone.IP.String() != "192.0.2.1" {
		t.Fatalf("clone mutated with original: %v", clone)
	}
}

func TestListenShards(t *testing.T) {
	conns, err := ListenShards("udp", "127.0.0.1:0", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	if reusePortSupported {
		if len(conns) != 4 {
			t.Fatalf("got %d shards, want 4", len(conns))
		}
	} else if len(conns) != 1 {
		t.Fatalf("got %d shards, want 1 without SO_REUSEPORT", len(conns))
	}
	port := conns[0].LocalAddr().(*net.UDPAddr).Port
	for i, c := range conns {
		if p := c.LocalAddr().(*net.UDPAddr).Port; p != port {
			t.Fatalf("shard %d bound port %d, shard 0 bound %d", i, p, port)
		}
	}

	// Every datagram sent to the shared port must arrive at exactly one
	// shard: drain all shards and count.
	const sent = 200
	for i := 0; i < sent; i++ {
		// Distinct source sockets spread flows across the reuseport hash.
		c, err := net.Dial("udp", conns[0].LocalAddr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	got := 0
	deadline := time.Now().Add(5 * time.Second)
	ms := make([]Message, MaxBatch)
	for i := range ms {
		ms[i].Buf = make([]byte, 64)
	}
	for got < sent && time.Now().Before(deadline) {
		for _, c := range conns {
			c.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
			n, err := c.ReadBatch(ms)
			if err != nil {
				continue // deadline: this shard is drained for now
			}
			got += n
		}
	}
	if got != sent {
		t.Fatalf("shards received %d datagrams, sent %d", got, sent)
	}
}

// CloneAddr returns a copy of addr safe to retain after the Message slot
// it came from is reused by a later ReadBatch. Address types other than
// *net.UDPAddr are returned as-is: only the kernel batch implementation
// rewrites addresses in place, and it always produces *net.UDPAddr.
func CloneAddr(addr net.Addr) net.Addr {
	ua, ok := addr.(*net.UDPAddr)
	if !ok {
		return addr
	}
	// One allocation holds the address and the bytes its IP slices.
	c := &struct {
		net.UDPAddr
		ip [net.IPv6len]byte
	}{UDPAddr: net.UDPAddr{Port: ua.Port, Zone: ua.Zone}}
	c.IP = c.ip[:copy(c.ip[:], ua.IP)]
	return &c.UDPAddr
}
