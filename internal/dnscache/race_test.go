//go:build race

package dnscache

// raceEnabled makes allocation pins skip: the detector allocates on its own.
const raceEnabled = true
