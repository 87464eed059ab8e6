//go:build race

package dnstransport

// raceEnabled makes allocation pins skip: the detector allocates on its
// own, and its sync.Pool drops a quarter of what is put back.
const raceEnabled = true
