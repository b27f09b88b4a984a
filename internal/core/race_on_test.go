//go:build race

package core

// raceEnabled reports that the race detector is active; allocation
// gates are skipped under it (instrumentation and randomized
// sync.Pool behavior add allocations).
const raceEnabled = true
