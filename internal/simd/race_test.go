//go:build race

package simd

// raceEnabled reports that the race detector is on (tests too slow under it skip).
const raceEnabled = true
