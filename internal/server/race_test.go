//go:build race

package server

// raceEnabled reports a race-detector build; allocation bounds are
// measured without it.
const raceEnabled = true
