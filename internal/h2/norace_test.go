//go:build !race

package h2

const raceEnabled = false
