//go:build race

package engine_test

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
