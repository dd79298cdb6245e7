//go:build race

package apps

// raceEnabled reports whether the race detector instruments this build;
// allocation-budget tests skip under it (instrumentation allocates).
const raceEnabled = true
