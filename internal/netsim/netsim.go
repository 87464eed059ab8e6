// Package netsim provides an in-memory network for the DoH cost study: named
// hosts, stream connections with TCP-like reliable ordered delivery, and
// datagram endpoints with UDP-like loss. Links carry configurable one-way
// delay, jitter, loss, reordering, MTU and bandwidth, so experiments that the
// paper ran across a university network, two cloud resolvers, and PlanetLab
// can run hermetically and deterministically — including the degraded-network
// regimes (lossy 3G/4G, satellite) where the paper's follow-ups found the
// transport ranking inverts. Named impairment Profiles bundle the settings.
//
// Every link draws its random decisions (jitter, loss, reordering, stream
// retransmissions) from its own RNG, seeded from the network seed and the
// directed host pair. Traffic on one link therefore sees the same schedule
// on every run with the same seed, no matter how goroutines on other links
// interleave.
//
// Conns preserve write boundaries: each Write becomes one timed segment on
// the link, which is what lets the metering layer (internal/meter) translate
// observed flights into TCP segment and packet counts.
//
// All connection types implement the corresponding net interfaces, so
// crypto/tls, and this repository's HTTP/1.1 and HTTP/2 stacks, run over
// them unmodified.
package netsim

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Link describes one direction of a path between two hosts.
type Link struct {
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// Jitter adds a uniform random extra delay in [0, Jitter).
	Jitter time.Duration
	// Loss is the per-packet loss probability in [0,1]. A lost datagram is
	// dropped outright (the receiver never sees it; clients observe a
	// timeout). A lost stream packet is retransmitted by the simulated TCP:
	// the segment still arrives, but its delivery is delayed by one RTO per
	// retransmission and the retransmission is counted in ConnStats.
	Loss float64
	// Bandwidth, when non-zero, is the link rate in bytes/second;
	// transmission time len/Bandwidth is added per segment.
	Bandwidth int64
	// Reorder is the probability in [0,1] that a datagram is held back an
	// extra ReorderDelay, letting datagrams sent after it overtake. Stream
	// conns are immune: TCP resequences, so reordering there surfaces (like
	// loss) only as delay, which the Jitter knob already models.
	Reorder float64
	// ReorderDelay is the extra hold applied to reordered datagrams; zero
	// derives Delay/2 + Jitter.
	ReorderDelay time.Duration
	// MTU, when non-zero, is the maximum on-wire packet size in bytes
	// including network/transport headers. Datagrams whose payload plus the
	// 28-byte IP+UDP header exceed it are dropped (DF-style blackholing —
	// the failure mode RFC 7766 §5's TCP fallback exists for), and stream
	// segments packetize at min(DefaultMSS, MTU-40).
	MTU int
	// RTO is the retransmission timeout charged per lost stream packet;
	// zero derives max(2*(Delay+Jitter), 50ms).
	RTO time.Duration
}

// transmission returns the serialization time for n bytes.
func (l Link) transmission(n int) time.Duration {
	if l.Bandwidth <= 0 {
		return 0
	}
	return time.Duration(float64(n) / float64(l.Bandwidth) * float64(time.Second))
}

// rto returns the retransmission timeout for lost stream packets.
func (l Link) rto() time.Duration {
	if l.RTO > 0 {
		return l.RTO
	}
	if d := 2 * (l.Delay + l.Jitter); d > 50*time.Millisecond {
		return d
	}
	return 50 * time.Millisecond
}

// DatagramHeaderBytes is the IP+UDP header cost counted against a link MTU
// (20 bytes IPv4 + 8 bytes UDP, matching internal/meter's accounting).
// A datagram fits a link when payload + DatagramHeaderBytes <= MTU; anyone
// sizing payloads to a path (e.g. a resolver's max-udp-size clamp) should
// derive the cap from this constant rather than re-guessing the header.
const DatagramHeaderBytes = 28

// mss returns the stream packetization size for this link: DefaultMSS
// capped by the link MTU minus 40 bytes of IP+TCP headers.
func (l Link) mss() int {
	if l.MTU > 40 && l.MTU-40 < DefaultMSS {
		return l.MTU - 40
	}
	return DefaultMSS
}

// Addr is a netsim endpoint address. Its network is "sim" and its string
// form is the host name given to Listen/Dial, e.g. "resolver.example:443".
type Addr string

// Network implements net.Addr.
func (Addr) Network() string { return "sim" }

// String implements net.Addr.
func (a Addr) String() string { return string(a) }

// host strips an optional ":port" suffix: link profiles attach to hosts.
func (a Addr) host() string {
	if i := strings.LastIndexByte(string(a), ':'); i >= 0 {
		return string(a)[:i]
	}
	return string(a)
}

type linkKey struct{ from, to string }

// DefaultMSS is the TCP maximum segment size assumed for packet accounting,
// matching a 1500-byte Ethernet MTU minus 40 bytes of IP+TCP headers.
const DefaultMSS = 1460

// Network is a simulated network: a namespace of listeners and packet
// endpoints joined by configurable links. The zero value is not usable;
// construct with New.
type Network struct {
	mu        sync.Mutex
	seed      int64
	links     map[linkKey]Link
	states    map[linkKey]*linkState
	listeners map[Addr]*Listener
	packets   map[Addr]*PacketConn
	nextEphem int

	// faults holds per-host dial faults and link-flap schedules (see
	// dialfault.go). faultsActive counts installed fault states so the
	// per-write flap check stays lock-free on un-faulted networks.
	faults       map[string]*hostFault
	faultsActive atomic.Int32
}

// New returns an empty network whose links default to zero delay. seed
// drives jitter, loss, reordering and retransmission decisions so runs are
// reproducible.
func New(seed int64) *Network {
	return &Network{
		seed:      seed,
		links:     make(map[linkKey]Link),
		states:    make(map[linkKey]*linkState),
		listeners: make(map[Addr]*Listener),
		packets:   make(map[Addr]*PacketConn),
	}
}

// SetLink installs a symmetric link profile between two hosts (both
// directions). Installing a profile resets the pair's random schedule, so
// configure links before traffic flows for reproducible runs.
func (n *Network) SetLink(a, b string, l Link) {
	n.mu.Lock()
	defer n.mu.Unlock()
	ab := linkKey{Addr(a).host(), Addr(b).host()}
	ba := linkKey{Addr(b).host(), Addr(a).host()}
	n.links[ab] = l
	n.links[ba] = l
	delete(n.states, ab)
	delete(n.states, ba)
}

// linkState joins a directed link's profile with its private RNG. One state
// exists per directed host pair; all random decisions for traffic on that
// direction draw from it in operation order, which is what makes per-link
// schedules independent of unrelated goroutine interleaving.
type linkState struct {
	Link

	mu  sync.Mutex
	rng *rand.Rand
}

// stateFor returns (creating if needed) the directed link state from → to.
func (n *Network) stateFor(from, to Addr) *linkState {
	key := linkKey{from.host(), to.host()}
	n.mu.Lock()
	defer n.mu.Unlock()
	if ls, ok := n.states[key]; ok {
		return ls
	}
	l := n.links[key] // a pair without a profile gets the zero Link
	ls := &linkState{Link: l, rng: rand.New(rand.NewSource(n.seed ^ linkSeed(key)))}
	n.states[key] = ls
	return ls
}

// linkSeed derives a stable per-directed-link seed component from the host
// pair (FNV-1a over "from\x00to").
func linkSeed(k linkKey) int64 {
	h := fnv.New64a()
	io.WriteString(h, k.from)
	h.Write([]byte{0})
	io.WriteString(h, k.to)
	return int64(h.Sum64())
}

// delay samples one propagation + jitter delay.
func (ls *linkState) delay() time.Duration {
	d := ls.Delay
	if ls.Jitter > 0 {
		ls.mu.Lock()
		d += time.Duration(ls.rng.Int63n(int64(ls.Jitter)))
		ls.mu.Unlock()
	}
	return d
}

// dropDatagram samples the loss decision for one datagram.
func (ls *linkState) dropDatagram() bool {
	if ls.Loss <= 0 {
		return false
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.rng.Float64() < ls.Loss
}

// reorderExtra samples the reordering decision for one datagram: zero, or
// the extra hold that lets later datagrams overtake this one.
func (ls *linkState) reorderExtra() time.Duration {
	if ls.Reorder <= 0 {
		return 0
	}
	ls.mu.Lock()
	hit := ls.rng.Float64() < ls.Reorder
	ls.mu.Unlock()
	if !hit {
		return 0
	}
	if ls.ReorderDelay > 0 {
		return ls.ReorderDelay
	}
	return ls.Delay/2 + ls.Jitter
}

// maxStreamRetransmits caps per-packet retransmission attempts; the
// simulated TCP never aborts the connection, it just stops re-rolling.
const maxStreamRetransmits = 8

// streamRetransmits samples how many retransmissions a flight of packets
// suffers: each packet is re-sent (and re-rolled) until it survives the
// per-packet loss probability, up to maxStreamRetransmits.
func (ls *linkState) streamRetransmits(packets int64) int64 {
	if ls.Loss <= 0 || packets <= 0 {
		return 0
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	var lost int64
	for i := int64(0); i < packets; i++ {
		for tries := 0; tries < maxStreamRetransmits && ls.rng.Float64() < ls.Loss; tries++ {
			lost++
		}
	}
	return lost
}

// ephemeral mints a unique client address for dialers that don't name one.
func (n *Network) ephemeral(host string) Addr {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nextEphem++
	return Addr(fmt.Sprintf("%s:%d", host, 49152+n.nextEphem))
}

// Listen opens a stream listener on addr. It fails if addr is taken.
func (n *Network) Listen(addr string) (*Listener, error) {
	a := Addr(addr)
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.listeners[a]; ok {
		return nil, fmt.Errorf("netsim: listen %s: address in use", addr)
	}
	l := &Listener{
		addr:    a,
		net:     n,
		backlog: make(chan *Conn, 64),
		done:    make(chan struct{}),
	}
	n.listeners[a] = l
	return l, nil
}

// Dial opens a stream connection from the named client host to a listener.
// It charges one round-trip time up front, modelling the TCP SYN/SYN-ACK
// exchange, so connection setup latency is visible to the experiments.
// Dial cannot be interrupted and blocks indefinitely on blackholed
// destinations; fault-injected experiments should use DialContext with a
// deadline.
func (n *Network) Dial(from, to string) (net.Conn, error) {
	return n.DialContext(context.Background(), from, to)
}

// Listener accepts stream connections on one address.
type Listener struct {
	addr    Addr
	net     *Network
	backlog chan *Conn
	done    chan struct{}
	once    sync.Once
}

// Accept waits for the next inbound connection.
func (l *Listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Close releases the address and unblocks Accept.
func (l *Listener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.net.mu.Lock()
		delete(l.net.listeners, l.addr)
		l.net.mu.Unlock()
	})
	return nil
}

// Addr implements net.Listener.
func (l *Listener) Addr() net.Addr { return l.addr }

// timeoutError satisfies net.Error for deadline expiry.
type timeoutError struct{ op string }

func (e *timeoutError) Error() string   { return "netsim: " + e.op + " deadline exceeded" }
func (e *timeoutError) Timeout() bool   { return true }
func (e *timeoutError) Temporary() bool { return true }
