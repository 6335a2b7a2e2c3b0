//go:build race

package transport

// raceEnabled reports a -race build: the race detector makes sync.Pool
// drop a share of Puts at random, so pooled paths allocate more.
const raceEnabled = true
