package solver_test

import (
	"context"
	"math"
	"reflect"
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
const encoderSolveAllocs = 801

// TestEncoderSolveAllocs replays App-1's first three rounds through one
// shell accumulator, as BenchmarkSolveWarm does, and checks the
// allocations per replay. The pools must keep what is put back, so GC is
// paused and a race-detector build, whose pools drop puts at random,
// skips it.
func TestEncoderSolveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop pooled state at random")
	}
	snaps, scfg := app1Rounds(t, 3)

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

// app1Rounds runs an App-1 campaign of the given number of rounds and
// returns a clone of the accumulator after each round, with the solver
// configuration the engine used (sequential).
func app1Rounds(t *testing.T, rounds int) ([]*window.Observations, solver.Config) {
	t.Helper()
	app, err := apps.ByName("App-1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Rounds = rounds
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
	return snaps, scfg
}

// TestShellReplayMatchesFreshSolve: one encoder fed every round's
// snapshot through one shell accumulator (*shell = *snap, as the solver
// benchmarks replay them) keeps its cache across the copies, because the
// snapshots share one accumulator's key IDs, and must infer exactly what
// a fresh one-shot solve of each snapshot infers.
func TestShellReplayMatchesFreshSolve(t *testing.T) {
	snaps, scfg := app1Rounds(t, 4)
	enc := solver.NewEncoder(scfg)
	shell := &window.Observations{}
	var basis *lp.Basis
	for i, snap := range snaps {
		*shell = *snap
		got, bs, err := enc.Solve(shell, basis)
		if err != nil {
			t.Fatal(err)
		}
		basis = bs
		want, err := solver.Solve(snap, scfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.AcquireSet, want.AcquireSet) || !reflect.DeepEqual(got.ReleaseSet, want.ReleaseSet) ||
			got.Vars != want.Vars || got.Constraints != want.Constraints || math.Abs(got.Objective-want.Objective) > 1e-9 {
			t.Fatalf("round %d: shell replay inferred %v/%v (%d vars, objective %v), fresh solve %v/%v (%d vars, objective %v)",
				i+1, got.AcquireSet, got.ReleaseSet, got.Vars, got.Objective, want.AcquireSet, want.ReleaseSet, want.Vars, want.Objective)
		}
	}
	if len(snaps) != 4 {
		t.Fatalf("got %d snapshots, want 4", len(snaps))
	}
}
