package netsim

import (
	"fmt"
	"io"
	"reflect"
	"sort"
	"testing"
	"time"
)

// driveProfile runs one deterministic traffic pattern over a fresh network
// with the profile installed between client and server: a stream connection
// carrying a fixed write schedule, and a datagram flow whose arrivals are
// recorded as a loss schedule. It returns the stream's ConnStats and the
// per-datagram delivered/lost bitmap.
func driveProfile(t *testing.T, seed int64, p Profile, datagrams int) (ConnStats, []bool) {
	t.Helper()
	n := New(seed)
	n.ApplyProfile("cli", "srv", p)

	// Stream leg: fixed write schedule from both ends, stats snapshotted
	// after all pushes (push-side counters update synchronously, so no
	// waiting on simulated delivery times is needed).
	l, err := n.Listen("srv:1")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	serverUp := make(chan io.Closer, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		for i := 0; i < 10; i++ {
			c.Write(make([]byte, 700+i*211))
		}
		serverUp <- c
	}()
	c, err := n.Dial("cli", "srv:1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if _, err := c.Write(make([]byte, 80+i*137)); err != nil {
			t.Fatal(err)
		}
	}
	sc := <-serverUp
	stats := c.(*Conn).Stats()
	sc.Close()
	c.Close()

	// Datagram leg: fixed-size sends, sequence number in the payload; the
	// delivered-set is the link's loss schedule. The reader waits past the
	// worst-case delivery time (delay + jitter + reorder hold).
	srv, err := n.ListenPacket("srv:53")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := n.ListenPacket("cli:53")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for i := 0; i < datagrams; i++ {
		pkt := make([]byte, 64)
		pkt[0], pkt[1] = byte(i>>8), byte(i)
		if _, err := cli.WriteTo(pkt, Addr("srv:53")); err != nil {
			t.Fatal(err)
		}
	}
	worst := p.Link.Delay + p.Link.Jitter + p.Link.ReorderDelay + p.Link.Delay/2 + 250*time.Millisecond
	srv.SetReadDeadline(time.Now().Add(worst))
	delivered := make([]bool, datagrams)
	buf := make([]byte, 64)
	for {
		nn, _, err := srv.ReadFrom(buf)
		if err != nil {
			break
		}
		if nn >= 2 {
			delivered[int(buf[0])<<8|int(buf[1])] = true
		}
	}
	return stats, delivered
}

// TestProfileDeterminism is the impairment contract: the same seed and
// profile reproduce byte-identical stream ConnStats (bytes, segments,
// packets, retransmissions) and the identical datagram loss schedule, for
// every built-in profile.
func TestProfileDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second impairment sweep under -short")
	}
	for _, p := range Profiles() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			const seed, datagrams = 1234, 120
			stats1, sched1 := driveProfile(t, seed, p, datagrams)
			stats2, sched2 := driveProfile(t, seed, p, datagrams)
			if stats1 != stats2 {
				t.Errorf("ConnStats differ across runs:\n  run1 %+v\n  run2 %+v", stats1, stats2)
			}
			if !reflect.DeepEqual(sched1, sched2) {
				t.Errorf("datagram loss schedule differs across runs:\n  run1 %v\n  run2 %v", bitmapString(sched1), bitmapString(sched2))
			}
			if p.Link.Loss > 0.01 && countTrue(sched1) == datagrams {
				t.Errorf("profile %s (loss %.1f%%) delivered all %d datagrams", p.Name, p.Link.Loss*100, datagrams)
			}
			if countTrue(sched1) == 0 {
				t.Errorf("profile %s delivered no datagrams", p.Name)
			}
		})
	}
}

func countTrue(b []bool) int {
	n := 0
	for _, v := range b {
		if v {
			n++
		}
	}
	return n
}

func bitmapString(b []bool) string {
	out := make([]byte, len(b))
	for i, v := range b {
		if v {
			out[i] = '1'
		} else {
			out[i] = '0'
		}
	}
	return string(out)
}

// TestStreamLossRetransmission checks the stream half of loss semantics:
// on a lossy link data still arrives intact (TCP reliability), the
// retransmissions are counted in ConnStats, and delivery is delayed by at
// least one RTO relative to the nominal path.
func TestStreamLossRetransmission(t *testing.T) {
	n := New(11)
	rto := 40 * time.Millisecond
	n.SetLink("cli", "srv", Link{Loss: 0.5, RTO: rto})
	l, err := n.Listen("srv:1")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	received := make(chan []byte, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		all, _ := io.ReadAll(c)
		received <- all
	}()
	c, err := n.Dial("cli", "srv:1")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	const writes = 20
	for i := 0; i < writes; i++ {
		c.Write([]byte{byte(i)})
	}
	stats := c.(*Conn).Stats()
	if stats.OutRetrans == 0 {
		t.Fatalf("no retransmissions recorded at 50%% loss over %d packets: %+v", writes, stats)
	}
	if stats.OutPackets != writes {
		t.Errorf("OutPackets = %d, want %d (retransmissions must not inflate the packet count)", stats.OutPackets, writes)
	}
	c.Close()
	got := <-received
	if len(got) != writes {
		t.Fatalf("received %d bytes, want %d — loss must not lose stream data", len(got), writes)
	}
	for i, b := range got {
		if b != byte(i) {
			t.Fatalf("byte %d = %d, want %d — loss must not reorder stream data", i, b, i)
		}
	}
	// Penalties on back-to-back writes overlap (the delivery horizon is a
	// running max), so the guaranteed floor is one RTO, not the sum.
	if elapsed := time.Since(start); elapsed < rto {
		t.Errorf("delivery took %v, want >= one RTO (%v) of retransmission delay", elapsed, rto)
	}
}

// TestMTUDropsOversizedDatagrams checks DF-style blackholing: datagrams
// whose payload+28 exceeds the link MTU never arrive, smaller ones do.
func TestMTUDropsOversizedDatagrams(t *testing.T) {
	n := New(1)
	n.SetLink("cli", "srv", Link{MTU: 512})
	srv, _ := n.ListenPacket("srv:53")
	defer srv.Close()
	cli, _ := n.ListenPacket("cli:53")
	defer cli.Close()
	if _, err := cli.WriteTo(make([]byte, 600), Addr("srv:53")); err != nil {
		t.Fatalf("oversized write must be fire-and-forget, got %v", err)
	}
	if _, err := cli.WriteTo(make([]byte, 484), Addr("srv:53")); err != nil {
		t.Fatal(err)
	}
	srv.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	buf := make([]byte, 1024)
	nn, _, err := srv.ReadFrom(buf)
	if err != nil {
		t.Fatalf("within-MTU datagram lost: %v", err)
	}
	if nn != 484 {
		t.Errorf("delivered %d bytes, want the 484-byte datagram (600-byte one must be dropped)", nn)
	}
	srv.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if _, _, err := srv.ReadFrom(buf); err == nil {
		t.Error("oversized datagram survived an MTU-512 link")
	}
}

// TestDatagramReordering checks that a reorder-held datagram is overtaken
// by one sent after it.
func TestDatagramReordering(t *testing.T) {
	n := New(1)
	n.SetLink("cli", "srv", Link{Reorder: 1.0, ReorderDelay: 80 * time.Millisecond})
	srv, _ := n.ListenPacket("srv:53")
	defer srv.Close()
	cli, _ := n.ListenPacket("cli:53")
	defer cli.Close()
	cli.WriteTo([]byte{0}, Addr("srv:53"))
	// Clear the reorder hold for the second datagram only.
	n.SetLink("cli", "srv", Link{})
	cli.WriteTo([]byte{1}, Addr("srv:53"))
	srv.SetReadDeadline(time.Now().Add(time.Second))
	var order []byte
	buf := make([]byte, 8)
	for len(order) < 2 {
		nn, _, err := srv.ReadFrom(buf)
		if err != nil {
			t.Fatal(err)
		}
		if nn > 0 {
			order = append(order, buf[0])
		}
	}
	if order[0] != 1 || order[1] != 0 {
		t.Errorf("delivery order = %v, want the held datagram overtaken ([1 0])", order)
	}
}

// TestLinkMSS checks the MTU cap on stream packetization.
func TestLinkMSS(t *testing.T) {
	cases := []struct {
		link Link
		want int
	}{
		{Link{}, DefaultMSS},
		{Link{MTU: 1500}, 1460},
		{Link{MTU: 576}, 536},
	}
	for _, c := range cases {
		if got := c.link.mss(); got != c.want {
			t.Errorf("Link{MTU:%d}.mss() = %d, want %d", c.link.MTU, got, c.want)
		}
	}
}

// TestProfileRegistry checks the profile registry's invariants: five named
// profiles, stable lookups, and WithExtraDelay layering.
func TestProfileRegistry(t *testing.T) {
	names := ProfileNames()
	want := []string{"3g", "4g", "broadband", "lossy-wifi", "satellite"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("ProfileNames() = %v, want %v", names, want)
	}
	if len(Profiles()) != len(want) {
		t.Fatalf("Profiles() returned %d entries, want %d", len(Profiles()), len(want))
	}
	for _, name := range names {
		p, ok := LookupProfile(name)
		if !ok || p.Name != name {
			t.Errorf("LookupProfile(%q) = %+v, %v", name, p, ok)
		}
		if p.Description == "" {
			t.Errorf("profile %s has no description", name)
		}
		if p.Link.Delay <= 0 || p.Link.Bandwidth <= 0 || p.Link.MTU <= 0 {
			t.Errorf("profile %s has unset core parameters: %+v", name, p.Link)
		}
	}
	if _, ok := LookupProfile("5g"); ok {
		t.Error("LookupProfile invented a profile")
	}
	if sat, _ := LookupProfile("satellite"); sat.Link.Delay < 100*time.Millisecond {
		t.Errorf("satellite delay = %v, want the geostationary regime (≥100ms one way)", sat.Link.Delay)
	}
	base, _ := LookupProfile("3g")
	layered := base.WithExtraDelay(30 * time.Millisecond)
	if layered.Link.Delay != base.Link.Delay+30*time.Millisecond {
		t.Errorf("WithExtraDelay delay = %v", layered.Link.Delay)
	}
	if layered.Link.Loss != base.Link.Loss {
		t.Error("WithExtraDelay must not touch loss")
	}
	if s := layered.String(); s == "" || s == base.String() {
		t.Errorf("String() = %q, want delay-reflecting form", s)
	}
	// fmt.Stringer sanity for docs/CLIs.
	if got := fmt.Sprintf("%v", base); got != base.String() {
		t.Errorf("Sprintf(%%v) = %q", got)
	}
}

// Profiles returns the built-in impairment profiles sorted by name.
func Profiles() []Profile {
	out := make([]Profile, 0, len(profiles))
	for _, p := range profiles {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
