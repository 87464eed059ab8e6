//go:build !race

package dnstransport

const raceEnabled = false
