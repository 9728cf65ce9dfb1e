// Timing benchmarks of the inference engine: whole campaigns and the
// per-round LP solve. The paper's evaluation itself is printed by
// `sherlock eval` and pinned by internal/exper's golden test.
package sherlock

import (
	"context"
	"testing"

	"sherlock/internal/apps"
	"sherlock/internal/core"
	"sherlock/internal/gen"
	"sherlock/internal/lp"
	"sherlock/internal/prog"
	"sherlock/internal/solver"
	"sherlock/internal/window"
)

// BenchmarkInferOneApp measures the cost of a single default inference
// campaign (instrumentation + windows + 3 LP solves) on the largest app.
func BenchmarkInferOneApp(b *testing.B) {
	app, err := AppByName("App-1")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Infer(context.Background(), app, core.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInferParallel measures one App-1 campaign (20 tests × 3 rounds)
// at Parallelism 1 versus the host's full GOMAXPROCS pool. The two
// sub-benchmarks produce identical inference results — only the wall clock
// differs — so their ratio is the engine's parallel speedup.
func BenchmarkInferParallel(b *testing.B) {
	app, err := AppByName("App-1")
	if err != nil {
		b.Fatal(err)
	}
	for _, bench := range []struct {
		name    string
		workers int
	}{
		{"Parallelism=1", 1},
		{"Parallelism=GOMAXPROCS", 0},
	} {
		b.Run(bench.name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Parallelism = bench.workers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Infer(context.Background(), app, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInferMix runs one default campaign per app of the end-to-end
// benchmark's campaign mix (the eight built-ins, then gen:1..4 for every
// profile at sizes 4 and 16) at seed 1 per op. Its B/op and allocs/op are
// the host-independent measure of a mix cycle's memory traffic.
func BenchmarkInferMix(b *testing.B) {
	names := apps.Names()
	for _, profile := range gen.Profiles {
		for _, size := range []int{4, 16} {
			for k := 1; k <= 4; k++ {
				names = append(names, gen.Spec{Seed: int64(k), Profile: profile, Size: size}.Name())
			}
		}
	}
	progs := make([]*prog.Program, len(names))
	for i, name := range names {
		p, err := apps.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		progs[i] = p
	}
	cfg := core.DefaultConfig()
	cfg.Seed = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			if _, err := core.Infer(context.Background(), p, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// solverCampaign runs a 6-round App-1 campaign once and returns each
// round's accumulated observations, plus the solver configuration the
// engine used. The snapshots let the Solve benchmarks measure exactly the
// per-round encode+solve cost, without re-running the scheduler.
func solverCampaign(b *testing.B) ([]*window.Observations, solver.Config) {
	b.Helper()
	app, err := AppByName("App-1")
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Rounds = 6
	var snaps []*window.Observations
	cfg.Observer = core.ObserverFuncs{OnRound: func(_ core.RoundSnapshot, obs *window.Observations) {
		snaps = append(snaps, obs.Clone())
	}}
	if _, err := core.Infer(context.Background(), app, cfg); err != nil {
		b.Fatal(err)
	}
	scfg := cfg.Solver
	scfg.KeepRacyWindows = !cfg.RemoveRacyMP
	return snaps, scfg
}

// BenchmarkSolveCold solves each round of the App-1 campaign from scratch:
// a fresh encoding and a cold simplex basis per round, the pre-reuse
// engine's cost.
func BenchmarkSolveCold(b *testing.B) {
	snaps, scfg := solverCampaign(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, obs := range snaps {
			if _, err := solver.Solve(obs, scfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSolveWarm solves the same campaign with cross-round reuse: one
// Encoder incrementally extends its cached encoding and each round's solve
// starts from the previous round's basis. Same results as BenchmarkSolveCold
// (the equivalence tests enforce it); the ratio of the two benchmarks is the
// warm-starting speedup.
func BenchmarkSolveWarm(b *testing.B) {
	snaps, scfg := solverCampaign(b)
	// The Encoder caches by accumulator identity; replay the snapshots
	// through one shell object so they look like the engine's single
	// growing accumulator.
	shell := &window.Observations{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := solver.NewEncoder(scfg)
		var basis *lp.Basis
		warmed := false
		for _, snap := range snaps {
			*shell = *snap
			sr, bs, err := enc.Solve(shell, basis)
			if err != nil {
				b.Fatal(err)
			}
			basis = bs
			warmed = warmed || sr.WarmStarted
		}
		if !warmed {
			b.Fatal("no round reused the previous basis; warm path is inert")
		}
	}
}
