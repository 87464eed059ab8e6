//go:build !race

package hpack

const raceEnabled = false
