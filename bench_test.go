// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (Section 5). Each benchmark regenerates its experiment and, on
// the first iteration, prints the rendered table so a `go test -bench=.`
// run reproduces the full evaluation output (see EXPERIMENTS.md for the
// paper-vs-measured record).
package sherlock

import (
	"context"
	"fmt"
	"os"
	"testing"

	"sherlock/internal/apps"
	"sherlock/internal/core"
	"sherlock/internal/exper"
	"sherlock/internal/gen"
	"sherlock/internal/lp"
	"sherlock/internal/prog"
	"sherlock/internal/report"
	"sherlock/internal/solver"
	"sherlock/internal/window"
)

// printOnce renders a table on the first benchmark iteration only.
func printOnce(i int, render func()) {
	if i == 0 {
		fmt.Fprintln(os.Stdout)
		render()
	}
}

func BenchmarkTable1AppInventory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		apps := Apps()
		if len(apps) != 8 {
			b.Fatal("inventory incomplete")
		}
		printOnce(i, func() { report.Table1(os.Stdout) })
	}
}

func BenchmarkTable2InferredResults(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, runs, err := exper.Table2(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		printOnce(i, func() { report.Table2(os.Stdout, rows, exper.UniqueCorrect(runs)) })
	}
}

func BenchmarkTable3RaceDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cmps, err := exper.Table3(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		// Shape assertion from the paper: SherLock_dr finds at least as
		// many true races and strictly fewer false races than Manual_dr.
		var mt, st, mf, sf int
		for _, c := range cmps {
			mt += c.ManualTrue
			st += c.SherTrue
			mf += c.ManualFalse
			sf += c.SherFalse
		}
		if st < mt || sf >= mf {
			b.Fatalf("Table 3 shape violated: manual %d/%d vs sherlock %d/%d (true/false)", mt, mf, st, sf)
		}
		printOnce(i, func() { report.Table3(os.Stdout, cmps) })
	}
}

func BenchmarkTable4Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, runs, err := exper.Table2(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		cmps, err := exper.Table3(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		rows := exper.Table4(runs, cmps)
		printOnce(i, func() { report.Table4(os.Stdout, rows) })
	}
}

func BenchmarkTable5HypothesisAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exper.Table5(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		// Paper shape: removing Mostly-Protected infers nothing; removing
		// Synchronizations-are-Rare hurts precision most among the rest.
		if rows[1].Total != 0 {
			b.Fatalf("w/o Mostly-Protected should infer nothing, got %d", rows[1].Total)
		}
		if rows[2].Precision >= rows[0].Precision {
			b.Fatalf("w/o Syncs-are-Rare should lose precision: %.2f vs %.2f",
				rows[2].Precision, rows[0].Precision)
		}
		printOnce(i, func() { report.Table5(os.Stdout, rows) })
	}
}

func BenchmarkFigure4PerturberFeedback(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := exper.Figure4(context.Background(), 5)
		if err != nil {
			b.Fatal(err)
		}
		// Paper shape: the full system's correct count is non-decreasing
		// and at least matches every ablated setting by the final round.
		full := series[0]
		last := len(full.Correct) - 1
		for _, s := range series[1:] {
			if full.Correct[last] < s.Correct[last] {
				b.Fatalf("full SherLock (%d) beaten by %q (%d) at round %d",
					full.Correct[last], s.Name, s.Correct[last], last+1)
			}
		}
		printOnce(i, func() { report.Figure4(os.Stdout, series) })
	}
}

func BenchmarkTable6LambdaSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exper.Table6(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		// Paper shape: extreme λ suppresses inference.
		if rows[len(rows)-1].Total >= rows[1].Total {
			b.Fatalf("λ=100 should infer far less than λ=0.2: %d vs %d",
				rows[len(rows)-1].Total, rows[1].Total)
		}
		printOnce(i, func() { report.Sweep(os.Stdout, "Table 6: sensitivity of lambda", "lambda", rows) })
	}
}

func BenchmarkTable7NearSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exper.Table7(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		// Paper shape: the tiny window misses most syncs; the default wins.
		if rows[0].Correct >= rows[1].Correct {
			b.Fatalf("0.01x Near should find fewer syncs: %d vs %d", rows[0].Correct, rows[1].Correct)
		}
		printOnce(i, func() { report.Sweep(os.Stdout, "Table 7: sensitivity of Near (x default)", "near", rows) })
	}
}

func BenchmarkTable8and9SyncListings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, runs, err := exper.Table2(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		ls := exper.Listings(runs)
		printOnce(i, func() { report.Listings(os.Stdout, ls) })
	}
}

func BenchmarkTSVDEnhancement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exper.TSVDEnhancement(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		// Paper shape: SherLock proves at least as many pairs synchronized.
		var t, s int
		for _, r := range rows {
			t += r.TSVDSynced
			s += r.SherSynced
		}
		if s < t {
			b.Fatalf("SherLock enhancement (%d) weaker than TSVD (%d)", s, t)
		}
		printOnce(i, func() { report.TSVD(os.Stdout, rows) })
	}
}

func BenchmarkOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exper.Overhead(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		printOnce(i, func() { report.Overhead(os.Stdout, rows) })
	}
}

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

// BenchmarkExtensionSoftSingleRole runs the Section 5.5 future-work
// variant — Single-Role as a soft constraint — and checks it recovers a
// double-role API that the hard constraint forfeits: App-5's Barrier, whose
// arrival releases and whose return acquires.
func BenchmarkExtensionSoftSingleRole(b *testing.B) {
	const barrier = "System.Threading.Barrier::SignalAndWait"
	for i := 0; i < b.N; i++ {
		app, err := AppByName("App-5")
		if err != nil {
			b.Fatal(err)
		}
		hardRes, err := Infer(context.Background(), app, DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		hard := hardRes.SyncKeys()
		_, hardAcq := hard["begin:"+barrier]
		_, hardRel := hard["end:"+barrier]
		if hardAcq && hardRel {
			b.Fatal("hard Single-Role should forfeit one barrier role")
		}

		cfg := DefaultConfig()
		cfg.Solver.SoftSingleRole = true
		softRes, err := Infer(context.Background(), app, cfg)
		if err != nil {
			b.Fatal(err)
		}
		soft := softRes.SyncKeys()
		_, softAcq := soft["begin:"+barrier]
		_, softRel := soft["end:"+barrier]
		if !softAcq || !softRel {
			b.Fatalf("soft Single-Role failed to recover the barrier: acquire=%v release=%v", softAcq, softRel)
		}
		printOnce(i, func() {
			fmt.Printf("Extension (soft Single-Role) on App-5 Barrier: hard=(acq %v, rel %v) soft=(acq %v, rel %v)\n",
				hardAcq, hardRel, softAcq, softRel)
		})
	}
}

// BenchmarkExtensionProbabilisticDelay reproduces the paper's footnote-1
// observation: injecting each delay with probability 0.5 yields results
// close to deterministic injection.
func BenchmarkExtensionProbabilisticDelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		det, err := exper.RunAll(context.Background(), core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.DelayProbability = 0.5
		prob, err := exper.RunAll(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		d, p := exper.UniqueCorrect(det), exper.UniqueCorrect(prob)
		if diff := d - p; diff < -4 || diff > 4 {
			b.Fatalf("probabilistic injection diverged: %d vs %d correct", p, d)
		}
		printOnce(i, func() {
			fmt.Printf("Extension (probabilistic delays, p=0.5): %d unique correct vs %d deterministic\n", p, d)
		})
	}
}
