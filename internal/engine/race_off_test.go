//go:build !race

package engine_test

// raceEnabled reports whether the race detector is compiled in. Timing
// assertions are skipped under -race: the detector's per-access overhead
// distorts the obs-on/obs-off ratio far past any honest budget.
const raceEnabled = false
