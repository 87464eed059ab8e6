//go:build !race

package dnsserver

const raceSlack = 0
