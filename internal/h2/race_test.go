//go:build race

package h2

// raceEnabled keeps allocation counts from being read: the detector
// allocates on its own, and its sync.Pool drops a quarter of what is put
// back.
const raceEnabled = true
