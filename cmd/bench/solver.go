// Solver benchmark: the LP solver's cross-round warm-starting against the
// cold-start path. Every registered application's campaign produces
// per-round observation snapshots; each round is encoded and solved cold
// (fresh encoding, cold basis) and warm (incremental encoder, starting
// from the previous round's basis). Both paths produce
// identical inference results; only the cost differs.
package main

import (
	"context"
	"fmt"
	"time"

	"sherlock/internal/apps"
	"sherlock/internal/core"
	"sherlock/internal/lp"
	"sherlock/internal/solver"
	"sherlock/internal/window"
)

const (
	solverRounds = 6 // campaign rounds per app
	solverReps   = 3 // repetitions; the best is reported
)

// appResult is one application's row in the solver benchmark file. Times
// are the best-of-reps wall clock for one full campaign's worth of solves,
// in nanoseconds; PivotsPerSec is the cold-path pivot throughput over that
// best rep (total simplex pivots / cold seconds). The presolve ratios are
// the fraction of constraint rows / variables eliminated before any
// pivoting, summed over the campaign's rounds.
type appResult struct {
	App          string  `json:"app"`
	ColdNs       int64   `json:"cold_ns"`
	WarmNs       int64   `json:"warm_ns"`
	Speedup      float64 `json:"speedup"`
	ColdIters    int     `json:"cold_iters"`
	WarmIters    int     `json:"warm_iters"`
	WarmRounds   int     `json:"warm_rounds"`
	PivotsPerSec float64 `json:"pivots_per_sec"`

	PresolveRowRatio float64 `json:"presolve_row_ratio"`
	PresolveColRatio float64 `json:"presolve_col_ratio"`
}

// aggregate sums the per-app campaigns: total wall clock, overall speedup,
// and pivot throughput across the whole 8-app sweep.
type aggregate struct {
	ColdNs           int64   `json:"cold_ns"`
	WarmNs           int64   `json:"warm_ns"`
	Speedup          float64 `json:"speedup"`
	ColdIters        int     `json:"cold_iters"`
	WarmIters        int     `json:"warm_iters"`
	PivotsPerSec     float64 `json:"pivots_per_sec"`
	PresolveRowRatio float64 `json:"presolve_row_ratio"`
	PresolveColRatio float64 `json:"presolve_col_ratio"`
}

// result is the BENCH_solver.json schema: the all-app sweep plus its
// aggregate.
type result struct {
	Rounds    int         `json:"rounds"`
	Reps      int         `json:"reps"`
	Apps      []appResult `json:"apps"`
	Aggregate aggregate   `json:"aggregate"`
}

func (r result) gate() error {
	if r.Aggregate.PivotsPerSec < minPivotRate {
		return fmt.Errorf("aggregate cold pivot rate %.0f/s below the %d/s gate",
			r.Aggregate.PivotsPerSec, minPivotRate)
	}
	return nil
}

// benchSolver sweeps every registered application cold and warm and
// aggregates the per-app numbers.
func benchSolver() (result, error) {
	res := result{Rounds: solverRounds, Reps: solverReps}
	for _, appName := range apps.Names() {
		ar, err := benchSolverApp(appName)
		if err != nil {
			return res, fmt.Errorf("%s: %w", appName, err)
		}
		res.Apps = append(res.Apps, ar)
		res.Aggregate.ColdNs += ar.ColdNs
		res.Aggregate.WarmNs += ar.WarmNs
		res.Aggregate.ColdIters += ar.ColdIters
		res.Aggregate.WarmIters += ar.WarmIters
	}
	res.Aggregate.Speedup = float64(res.Aggregate.ColdNs) / float64(res.Aggregate.WarmNs)
	res.Aggregate.PivotsPerSec = float64(res.Aggregate.ColdIters) / (float64(res.Aggregate.ColdNs) / 1e9)
	// Size-weighted presolve ratios: weight each app by its cold pivots so
	// the aggregate reflects where the solve time actually goes.
	var rowSum, colSum, wSum float64
	for _, ar := range res.Apps {
		w := float64(ar.ColdIters)
		if w == 0 {
			w = 1
		}
		rowSum += w * ar.PresolveRowRatio
		colSum += w * ar.PresolveColRatio
		wSum += w
	}
	res.Aggregate.PresolveRowRatio = rowSum / wSum
	res.Aggregate.PresolveColRatio = colSum / wSum

	for _, ar := range res.Apps {
		fmt.Printf("solver: %s cold %.1fms (%d pivots, %.0f pivots/s) vs warm %.1fms (%d pivots, %d/%d rounds warm): %.2fx; presolve -%.0f%% rows -%.0f%% cols\n",
			ar.App, float64(ar.ColdNs)/1e6, ar.ColdIters, ar.PivotsPerSec,
			float64(ar.WarmNs)/1e6, ar.WarmIters, ar.WarmRounds, solverRounds, ar.Speedup,
			100*ar.PresolveRowRatio, 100*ar.PresolveColRatio)
	}
	fmt.Printf("solver: aggregate cold %.1fms vs warm %.1fms: %.2fx, %.0f pivots/s cold\n",
		float64(res.Aggregate.ColdNs)/1e6, float64(res.Aggregate.WarmNs)/1e6,
		res.Aggregate.Speedup, res.Aggregate.PivotsPerSec)
	return res, nil
}

// benchSolverApp measures one application's campaign cold and warm.
func benchSolverApp(appName string) (appResult, error) {
	ar := appResult{App: appName}
	app, err := apps.ByName(appName)
	if err != nil {
		return ar, err
	}
	cfg := core.DefaultConfig()
	cfg.Rounds = solverRounds
	var snaps []*window.Observations
	cfg.Observer = core.ObserverFuncs{OnRound: func(_ core.RoundSnapshot, obs *window.Observations) {
		snaps = append(snaps, obs.Clone())
	}}
	if _, err := core.Infer(context.Background(), app, cfg); err != nil {
		return ar, err
	}
	scfg := cfg.Solver
	scfg.KeepRacyWindows = !cfg.RemoveRacyMP

	for rep := 0; rep < solverReps; rep++ {
		iters, presRows, presCols, rows, cols := 0, 0, 0, 0, 0
		t0 := time.Now()
		for _, obs := range snaps {
			sr, err := solver.Solve(obs, scfg)
			if err != nil {
				return ar, err
			}
			iters += sr.Iters
			presRows += sr.RowsPresolved
			presCols += sr.ColsPresolved
			rows += sr.Constraints
			cols += sr.Vars
		}
		keepMin(&ar.ColdNs, time.Since(t0))
		ar.ColdIters = iters
		if rows > 0 {
			ar.PresolveRowRatio = float64(presRows) / float64(rows)
		}
		if cols > 0 {
			ar.PresolveColRatio = float64(presCols) / float64(cols)
		}
	}
	shell := &window.Observations{}
	for rep := 0; rep < solverReps; rep++ {
		iters, warmRounds := 0, 0
		enc := solver.NewEncoder(scfg)
		var basis *lp.Basis
		t0 := time.Now()
		for _, snap := range snaps {
			*shell = *snap
			sr, bs, err := enc.Solve(shell, basis)
			if err != nil {
				return ar, err
			}
			basis = bs
			iters += sr.Iters
			if sr.WarmStarted {
				warmRounds++
			}
		}
		keepMin(&ar.WarmNs, time.Since(t0))
		ar.WarmIters, ar.WarmRounds = iters, warmRounds
	}
	ar.Speedup = float64(ar.ColdNs) / float64(ar.WarmNs)
	ar.PivotsPerSec = float64(ar.ColdIters) / (float64(ar.ColdNs) / 1e9)
	return ar, nil
}
