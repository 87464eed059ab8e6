//go:build race

package dnsserver

// raceEnabled makes allocation and footprint pins skip: the detector
// allocates on its own, and its sync.Pool drops a quarter of what is put
// back.
const raceEnabled = true
