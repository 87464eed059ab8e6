//go:build race

package hpack

// raceEnabled makes allocation pins skip: the detector allocates on its
// own.
const raceEnabled = true
