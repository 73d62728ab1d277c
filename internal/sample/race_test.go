//go:build race

package sample

// raceEnabled is set when the race detector is on. Its sync.Pool drops
// items at random, so pooled scratch shows up as allocations.
const raceEnabled = true
