package netsim

import (
	"fmt"
	"sort"
	"time"
)

// Profile is a named access-network impairment: the per-direction link
// settings of one of the degraded regimes the DoH cost literature sweeps.
// The paper's own testbed is the "broadband" case; Hounsel et al.
// ("Comparing the Effects of DNS, DoT, and DoH on Web Performance") emulate
// the cellular regimes where the transport ranking inverts, and Kosek et
// al. ("DNS Privacy with Speed?") run the same impairment-sweep methodology
// for DoQ. Apply one with Network.ApplyProfile, or layer extra propagation
// delay per destination first with WithExtraDelay.
type Profile struct {
	// Name is the stable lookup key ("broadband", "4g", …).
	Name string
	// Description says which network regime the profile models.
	Description string
	// Link carries the per-direction impairment parameters.
	Link Link
}

// WithExtraDelay returns a copy of the profile with d added to the one-way
// propagation delay — for layering a per-destination base RTT under the
// access-network impairment.
func (p Profile) WithExtraDelay(d time.Duration) Profile {
	p.Link.Delay += d
	return p
}

// String implements fmt.Stringer.
func (p Profile) String() string {
	return fmt.Sprintf("%s (delay=%v jitter=%v loss=%.1f%% reorder=%.1f%% bw=%dB/s mtu=%d)",
		p.Name, p.Link.Delay, p.Link.Jitter, p.Link.Loss*100, p.Link.Reorder*100,
		p.Link.Bandwidth, p.Link.MTU)
}

// The built-in impairment profiles. Delays are one-way; loss and reorder
// are per-packet probabilities; bandwidth is bytes/second per direction.
var profiles = map[string]Profile{
	"broadband": {
		Name:        "broadband",
		Description: "wired access network, the paper's own measurement regime (§3): low fixed delay, negligible jitter, no loss",
		Link:        Link{Delay: 10 * time.Millisecond, Jitter: time.Millisecond, Bandwidth: 12_500_000, MTU: 1500},
	},
	"4g": {
		Name:        "4g",
		Description: "emulated LTE access link (Hounsel et al. §4): moderate delay and jitter, sporadic loss",
		Link:        Link{Delay: 25 * time.Millisecond, Jitter: 8 * time.Millisecond, Loss: 0.005, Reorder: 0.005, Bandwidth: 1_500_000, MTU: 1428},
	},
	"3g": {
		Name:        "3g",
		Description: "emulated 3G access link (Hounsel et al. §4), the regime where connection setup and loss recovery dominate and the Do53-vs-DoH ranking inverts",
		Link:        Link{Delay: 75 * time.Millisecond, Jitter: 20 * time.Millisecond, Loss: 0.02, Reorder: 0.01, Bandwidth: 250_000, MTU: 1400},
	},
	"lossy-wifi": {
		Name:        "lossy-wifi",
		Description: "congested 802.11 link: short paths but heavy random loss and reordering, the head-of-line stressor for stream transports",
		Link:        Link{Delay: 15 * time.Millisecond, Jitter: 10 * time.Millisecond, Loss: 0.08, Reorder: 0.03, Bandwidth: 3_000_000, MTU: 1500},
	},
	"satellite": {
		Name:        "satellite",
		Description: "GEO satellite access: extreme propagation delay, where every handshake round trip the paper counts (§5) costs ~600ms",
		Link:        Link{Delay: 300 * time.Millisecond, Jitter: 15 * time.Millisecond, Loss: 0.01, Bandwidth: 1_250_000, MTU: 1500},
	},
}

// ProfileNames returns the built-in profile names, sorted.
func ProfileNames() []string {
	names := make([]string, 0, len(profiles))
	for name := range profiles {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// LookupProfile returns the named built-in profile.
func LookupProfile(name string) (Profile, bool) {
	p, ok := profiles[name]
	return p, ok
}

// ApplyProfile installs the profile's link symmetrically between two hosts,
// like SetLink. Configure before traffic flows: installing resets the
// pair's random schedule.
func (n *Network) ApplyProfile(a, b string, p Profile) {
	n.SetLink(a, b, p.Link)
}
