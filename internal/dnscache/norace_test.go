//go:build !race

package dnscache

const raceEnabled = false
