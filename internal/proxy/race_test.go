//go:build race

package proxy

// raceSlack is what an allocation budget gives way by under the race
// detector, whose sync.Pool drops a quarter of what is put back.
const raceSlack = 2
