//go:build !race

package proxy

const raceSlack = 0
