//go:build race

package solver_test

// raceEnabled reports a race-detector build, under which sync.Pool drops
// a random share of what is put back.
const raceEnabled = true
