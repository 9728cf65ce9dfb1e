package solver_test

import (
	"context"
	"runtime/debug"
	"testing"

	"sherlock/internal/apps"
	"sherlock/internal/core"
	"sherlock/internal/lp"
	"sherlock/internal/solver"
	"sherlock/internal/window"
)

// encoderSolveAllocs bounds the allocations of one NewEncoder plus three
// Solve rounds (two of them warm) over App-1's first three round
// snapshots: the count measured with Go 1.24, with no margin, so an
// encoder or solve that rebuilt a pooled buffer fails it. It is the
// host-independent companion of the campaign CPU figures: allocation
// counts do not depend on the machine, so a regression in the per-solve
// buffer layout fails here deterministically.
const encoderSolveAllocs = 1457

// TestEncoderSolveAllocs replays App-1's first three rounds through one
// shell accumulator, as BenchmarkSolveWarm does, and checks the
// allocations per replay. The pools must keep what is put back, so GC is
// paused and a race-detector build, whose pools drop puts at random,
// skips it.
func TestEncoderSolveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop pooled state at random")
	}
	app, err := apps.ByName("App-1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Rounds = 3
	var snaps []*window.Observations
	cfg.Observer = core.ObserverFuncs{OnRound: func(_ core.RoundSnapshot, obs *window.Observations) {
		snaps = append(snaps, obs.Clone())
	}}
	if _, err := core.Infer(context.Background(), app, cfg); err != nil {
		t.Fatal(err)
	}
	scfg := cfg.Solver
	scfg.KeepRacyWindows = !cfg.RemoveRacyMP
	scfg.Parallelism = 1 // worker goroutines would add allocations per CPU

	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a GC would empty the pools
	shell := &window.Observations{}
	warm := 0
	allocs := testing.AllocsPerRun(5, func() {
		enc := solver.NewEncoder(scfg)
		var basis *lp.Basis
		warm = 0
		for _, snap := range snaps {
			*shell = *snap
			res, bs, err := enc.Solve(shell, basis)
			if err != nil {
				t.Fatal(err)
			}
			if res.WarmStarted {
				warm++
			}
			basis = bs
		}
	})
	if len(snaps) != 3 || warm != 2 {
		t.Fatalf("got %d snapshots with %d warm solves, want 3 with 2", len(snaps), warm)
	}
	if allocs > encoderSolveAllocs {
		t.Fatalf("%.0f allocations per encoder and three solves, bound %d", allocs, encoderSolveAllocs)
	}
}
