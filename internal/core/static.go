// Static inference entrypoint: run-free constraint derivation
// (internal/static) solved through the same LP as dynamic campaigns. No
// execution at all: the abstract walk's synthetic windows go straight to
// the solver, and the result is a prior-quality report (every key
// statically reachable, probabilities from structure alone), bit-identical
// across runs of the same program.
package core

import (
	"context"
	"fmt"
	"time"

	"sherlock/internal/obs"
	"sherlock/internal/prog"
	"sherlock/internal/solver"
	"sherlock/internal/static"
	"sherlock/internal/trace"
)

// InferStatic analyzes app without executing it and solves the resulting
// constraint system. Only cfg.Window, cfg.Solver, cfg.RemoveRacyMP and the
// observability fields apply; rounds, seeds and delays are meaningless
// without runs. The acquisition-time hypothesis is disabled — a run-free
// analysis has no durations to rank — and Overhead.Events is zero by
// construction. The returned analysis carries the program hash the serving
// layer uses for content addressing.
func InferStatic(ctx context.Context, app *prog.Program, cfg Config) (*Result, *static.Analysis, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	scfg := cfg.solverConfig()
	scfg.Hyp.AcqTimeVaries = false // no durations without execution

	tr := cfg.tracer()
	root := tr.Root("static", app.Name)
	defer root.End()

	sc := static.DefaultConfig()
	sc.Window = cfg.Window
	an, err := static.AnalyzeSpan(app, sc, root)
	if err != nil {
		return nil, nil, fmt.Errorf("core: static analysis of %s: %w", app.Name, err)
	}

	t0 := time.Now()
	sr, _, err := solver.NewEncoder(scfg).SolveSpan(an.Obs, nil, root)
	if err != nil {
		return nil, nil, fmt.Errorf("core: static solve of %s: %w", app.Name, err)
	}

	res := &Result{App: app.Name}
	res.Overhead.SolveWall = time.Since(t0)
	res.setFinal(sr, len(an.Obs.Windows))
	res.Overhead.Objective = sr.Objective
	res.Rounds = []RoundSnapshot{{
		Round:    1,
		Acquires: append([]trace.Key(nil), sr.AcquireSet...),
		Releases: append([]trace.Key(nil), sr.ReleaseSet...),
		Windows:  len(an.Obs.Windows),
		LPIters:  sr.Iters,
	}}
	root.Annotate(
		obs.Int("windows", res.Overhead.Windows),
		obs.Int("vars", res.Overhead.Vars),
		obs.Int("constraints", res.Overhead.Constraints),
		obs.Int("inferred", len(res.Inferred)))
	cfg.notifyRound(res.Rounds[0], an.Obs)
	return res, an, nil
}
