//go:build race

package window

// raceEnabled reports a race-detector build, under which sync.Pool drops
// a random share of what is put back.
const raceEnabled = true
