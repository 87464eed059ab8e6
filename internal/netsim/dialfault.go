package netsim

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"sort"
	"strings"
	"time"
)

// DialFault is a connection-setup impairment attached to a destination host.
// It models the failure modes that motivate Happy-Eyeballs dialing (RFC 8305
// §1): paths where one address family silently blackholes SYNs, where
// middleboxes slow or reset handshakes, while established connections (and
// the other family) still work. Faults act at dial time only; use link-flap
// windows (SetLinkFlap) for outages that also sever established traffic.
type DialFault struct {
	// Blackhole silently discards connection attempts: DialContext blocks
	// until the caller's context is cancelled, exactly like a SYN into a
	// null route. Dials with no context deadline block forever, so always
	// pair fault injection with DialContext and a deadline.
	Blackhole bool
	// ConnectDelay is added before the handshake, modelling slow-path
	// middleboxes or overloaded accept queues. It is interruptible by the
	// dial context.
	ConnectDelay time.Duration
	// ResetProb is the probability in [0,1] that the attempt is reset
	// (connection refused) after ConnectDelay — the flaky reset-on-connect
	// regime. 1 resets every attempt. Draws come from a per-host seeded RNG
	// so fault schedules are reproducible.
	ResetProb float64
}

// active reports whether the fault impairs anything.
func (f DialFault) active() bool {
	return f.Blackhole || f.ConnectDelay > 0 || f.ResetProb > 0
}

// FlapWindow is one outage interval of a link-flap schedule, expressed as
// offsets from the moment SetLinkFlap was called.
type FlapWindow struct {
	// Start is when the outage begins, relative to SetLinkFlap.
	Start time.Duration
	// End is when the outage ends (exclusive), relative to SetLinkFlap.
	End time.Duration
}

// hostFault is the per-host fault state: the dial fault, its private RNG
// (seeded from the network seed and the host name, so reset schedules are
// deterministic), and any link-flap schedule.
type hostFault struct {
	fault DialFault
	rng   *rand.Rand

	flapBase    time.Time
	flapWindows []FlapWindow
}

// faultSeed derives the per-host RNG seed component (FNV-1a over
// "dialfault\x00host", disjoint from linkSeed's keyspace).
func faultSeed(host string) int64 {
	h := fnv.New64a()
	io.WriteString(h, "dialfault")
	h.Write([]byte{0})
	io.WriteString(h, host)
	return int64(h.Sum64())
}

// faultFor returns the fault state for a host, or nil. The faultsActive
// fast path lets un-faulted networks skip the lock entirely on hot paths
// (every Conn.Write consults the flap schedule).
func (n *Network) faultFor(host string) *hostFault {
	if n.faultsActive.Load() == 0 {
		return nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.faults[host]
}

// ensureFault returns (creating if needed) the fault state for host.
// Caller must hold n.mu.
func (n *Network) ensureFault(host string) *hostFault {
	if n.faults == nil {
		n.faults = make(map[string]*hostFault)
	}
	hf, ok := n.faults[host]
	if !ok {
		hf = &hostFault{rng: rand.New(rand.NewSource(n.seed ^ faultSeed(host)))}
		n.faults[host] = hf
		n.faultsActive.Add(1)
	}
	return hf
}

// SetDialFault installs (or replaces) the dial fault for connections dialed
// to host. Like SetLink, configure before traffic flows: installing resets
// the host's fault RNG schedule.
func (n *Network) SetDialFault(host string, f DialFault) {
	h := Addr(host).host()
	n.mu.Lock()
	defer n.mu.Unlock()
	hf := n.ensureFault(h)
	hf.fault = f
	hf.rng = rand.New(rand.NewSource(n.seed ^ faultSeed(h)))
}

// SetLinkFlap installs a link-flap schedule for host: during each window
// (measured from the moment of this call) the host is unreachable — new
// dials to it are refused, and writes on established connections touching
// it fail with a reset, severing them mid-run. This is the "network change"
// event the dialer's recovery path is tested against: flap the winning
// address's host and a resilient proxy must re-converge without
// client-visible failures.
func (n *Network) SetLinkFlap(host string, windows ...FlapWindow) {
	h := Addr(host).host()
	n.mu.Lock()
	defer n.mu.Unlock()
	hf := n.ensureFault(h)
	hf.flapBase = time.Now()
	hf.flapWindows = append([]FlapWindow(nil), windows...)
}

// linkDown reports whether host is inside one of its flap outage windows.
func (n *Network) linkDown(host string) bool {
	hf := n.faultFor(host)
	if hf == nil || len(hf.flapWindows) == 0 {
		return false
	}
	off := time.Since(hf.flapBase)
	for _, w := range hf.flapWindows {
		if off >= w.Start && off < w.End {
			return true
		}
	}
	return false
}

// connSevered reports whether either endpoint of a connection is currently
// flapped; Conn.Write consults it so outages sever established streams.
func (n *Network) connSevered(a, b Addr) bool {
	if n.faultsActive.Load() == 0 {
		return false
	}
	return n.linkDown(a.host()) || n.linkDown(b.host())
}

// errLinkDown marks flap-window failures; callers can match on the message.
func errLinkDown(op, target string) error {
	return fmt.Errorf("netsim: %s %s: connection reset (link down)", op, target)
}

// sleepCtx sleeps for d or until ctx is cancelled, returning ctx.Err() on
// cancellation.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// DialContext is Dial with context cancellation and fault injection: the
// handshake round trip (and any injected connect delay) is interruptible,
// blackholed destinations block until the context ends, and flapped or
// reset-faulted destinations refuse the attempt. Every dial path that can
// face an impaired network should come through here with a deadline.
func (n *Network) DialContext(ctx context.Context, from, to string) (net.Conn, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("netsim: dial %s: %w", to, err)
	}
	local := Addr(from)
	if !strings.Contains(from, ":") {
		local = n.ephemeral(from)
	}
	remote := Addr(to)

	if hf := n.faultFor(remote.host()); hf != nil && hf.fault.active() {
		f := hf.fault
		if f.Blackhole {
			// A SYN into a null route: nothing ever comes back. The caller's
			// deadline is the only way out, exactly the stall Happy Eyeballs
			// exists to race against.
			<-ctx.Done()
			return nil, fmt.Errorf("netsim: dial %s: blackholed: %w", to, ctx.Err())
		}
		if f.ConnectDelay > 0 {
			if err := sleepCtx(ctx, f.ConnectDelay); err != nil {
				return nil, fmt.Errorf("netsim: dial %s: %w", to, err)
			}
		}
		if f.ResetProb > 0 {
			n.mu.Lock()
			hit := hf.rng.Float64() < f.ResetProb
			n.mu.Unlock()
			if hit {
				return nil, fmt.Errorf("netsim: dial %s: connection reset during handshake", to)
			}
		}
	}
	if n.connSevered(local, remote) {
		return nil, errLinkDown("dial", to)
	}

	n.mu.Lock()
	l, ok := n.listeners[remote]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("netsim: dial %s: connection refused", to)
	}

	c2s := newHalf()
	s2c := newHalf()
	fwd := n.stateFor(local, remote)
	rev := n.stateFor(remote, local)
	client := &Conn{local: local, remote: remote, in: s2c, out: c2s, link: fwd, net: n}
	server := &Conn{local: remote, remote: local, in: c2s, out: s2c, link: rev, net: n}

	// SYN / SYN-ACK round trip before the connection is usable.
	if handshake := fwd.delay() + rev.delay(); handshake > 0 {
		if err := sleepCtx(ctx, handshake); err != nil {
			return nil, fmt.Errorf("netsim: dial %s: %w", to, err)
		}
	}
	select {
	case l.backlog <- server:
	case <-l.done:
		return nil, fmt.Errorf("netsim: dial %s: connection refused (listener closed)", to)
	case <-ctx.Done():
		return nil, fmt.Errorf("netsim: dial %s: %w", to, ctx.Err())
	}
	return client, nil
}

// DialProfile is a named bundle of per-family dial faults, the dial-time
// analogue of Profile: apply one to an upstream's IPv4/IPv6 host pair to
// replay a connectivity pathology.
type DialProfile struct {
	// Name is the stable lookup key ("broken-v6", "flaky-dial").
	Name string
	// Description says which connectivity pathology the profile models.
	Description string
	// V4 is the fault applied to the upstream's IPv4 host.
	V4 DialFault
	// V6 is the fault applied to the upstream's IPv6 host.
	V6 DialFault
}

// String implements fmt.Stringer.
func (p DialProfile) String() string {
	return fmt.Sprintf("%s (v4: blackhole=%v delay=%v reset=%.0f%%; v6: blackhole=%v delay=%v reset=%.0f%%)",
		p.Name, p.V4.Blackhole, p.V4.ConnectDelay, p.V4.ResetProb*100,
		p.V6.Blackhole, p.V6.ConnectDelay, p.V6.ResetProb*100)
}

// The built-in dial-fault profiles.
var dialProfiles = map[string]DialProfile{
	"broken-v6": {
		Name:        "broken-v6",
		Description: "IPv6 SYNs blackholed while IPv4 works — the asymmetric-connectivity case RFC 8305 was written for; without Happy Eyeballs every cold dial stalls a full dial timeout",
		V6:          DialFault{Blackhole: true},
	},
	"flaky-dial": {
		Name:        "flaky-dial",
		Description: "both families slow and flaky at connection setup: 40ms extra handshake latency and a 25% chance each attempt is reset, the regime where staggered racing and winner stickiness pay off",
		V4:          DialFault{ConnectDelay: 40 * time.Millisecond, ResetProb: 0.25},
		V6:          DialFault{ConnectDelay: 40 * time.Millisecond, ResetProb: 0.25},
	},
}

// DialProfileNames returns the built-in dial-fault profile names, sorted.
func DialProfileNames() []string {
	names := make([]string, 0, len(dialProfiles))
	for name := range dialProfiles {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// LookupDialProfile returns the named built-in dial-fault profile.
func LookupDialProfile(name string) (DialProfile, bool) {
	p, ok := dialProfiles[name]
	return p, ok
}

// ApplyDialProfile installs the profile's per-family faults on an upstream's
// IPv4 and IPv6 hosts.
func (n *Network) ApplyDialProfile(v4Host, v6Host string, p DialProfile) {
	n.SetDialFault(v4Host, p.V4)
	n.SetDialFault(v6Host, p.V6)
}
