// Package core is SherLock's orchestrator (paper Figure 1): it runs every
// unit test of an application for a configured number of rounds, feeding
// traces through window extraction (Observer), accumulating observations,
// solving the linear system (Solver), and planning delay injections for the
// next round (Perturber). It also scores inference results against an
// application's ground truth, reproducing the paper's manual-inspection
// classification.
//
// The engine is split along the loop's phases:
//
//   - config.go  — Config, defaults, Validate
//   - planner.go — derive every (round, test) execution spec up front
//   - runner.go  — execute a round's specs on a bounded worker pool
//   - merger.go  — fold per-run outputs into Observations, in test order
//   - engine.go  — the round loop: plan → run → merge → solve → perturb
//   - batch.go   — InferAll, the multi-application entrypoint
//
// Within a round the executions are embarrassingly parallel (each has its
// own derived seed and its own trace); the round barrier is inherent —
// the Perturber's plan for round k+1 comes from round k's solve. Results
// are bit-identical for every Config.Parallelism value because merging
// replays the sequential engine's exact accumulation order.
package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"sherlock/internal/lp"
	"sherlock/internal/obs"
	"sherlock/internal/perturb"
	"sherlock/internal/prog"
	"sherlock/internal/solver"
	"sherlock/internal/trace"
	"sherlock/internal/window"
)

// InferredSync is one reported synchronization operation.
type InferredSync struct {
	Key  trace.Key
	Role trace.Role
	Prob float64
}

// RoundSnapshot captures inference state after each round (Figure 4 data).
type RoundSnapshot struct {
	Round    int // 1-based
	Acquires []trace.Key
	Releases []trace.Key
	Windows  int // accumulated windows so far

	// LPIters counts the round's simplex pivots; Warm reports whether the
	// solve reused the previous round's basis. Together they make the
	// warm-starting payoff visible per round.
	LPIters int
	Warm    bool
}

// Overhead aggregates the cost accounting of Section 5.6.
type Overhead struct {
	// RunWall is the summed per-run wall time inside the scheduler — the
	// aggregate execution cost. Under Parallelism > 1 it exceeds elapsed
	// time, exactly as per-test instrumentation cost would.
	RunWall      time.Duration
	SolveWall    time.Duration // wall time in the LP solver
	Events       int           // log entries recorded
	Windows      int           // windows accumulated
	Vars         int           // final LP size
	Constraints  int
	Objective    float64 // final LP optimum
	DelayVirtual int64   // total injected virtual delay
	// WarmRounds counts rounds whose LP solve reused the previous round's
	// basis (0 under Config.ColdStart or when reuse never applied).
	WarmRounds int
}

// Result is the outcome of one inference campaign on one application.
type Result struct {
	App      string
	Inferred []InferredSync
	// Acquires/Releases expose final per-key probabilities.
	Acquires map[trace.Key]float64
	Releases map[trace.Key]float64
	Rounds   []RoundSnapshot
	Overhead Overhead
	// Deadlocks counts test executions that deadlocked (should stay 0 for
	// the benchmark apps).
	Deadlocks int
}

// SyncKeys returns the inferred synchronizations as a typed role set.
func (r *Result) SyncKeys() trace.SyncSet {
	out := make(trace.SyncSet, len(r.Inferred))
	for _, s := range r.Inferred {
		out[s.Key] = s.Role
	}
	return out
}

// setFinal fills res from the solve that ends an inference: the per-key
// probabilities, the LP size, the number of solved windows, and the
// inferred set sorted by key.
func (r *Result) setFinal(sr *solver.Result, windows int) {
	r.Acquires = sr.Acquires
	r.Releases = sr.Releases
	r.Overhead.Windows = windows
	r.Overhead.Vars = sr.Vars
	r.Overhead.Constraints = sr.Constraints
	for _, k := range sr.AcquireSet {
		r.Inferred = append(r.Inferred, InferredSync{Key: k, Role: trace.RoleAcquire, Prob: sr.Acquires[k]})
	}
	for _, k := range sr.ReleaseSet {
		r.Inferred = append(r.Inferred, InferredSync{Key: k, Role: trace.RoleRelease, Prob: sr.Releases[k]})
	}
	sort.Slice(r.Inferred, func(i, j int) bool { return r.Inferred[i].Key < r.Inferred[j].Key })
}

// Infer runs the full SherLock loop on app. Each round's per-test
// executions are dispatched across a worker pool of cfg.Parallelism
// goroutines; ctx cancels the campaign between executions (a run already
// on a worker finishes, queued runs do not start) and the returned error
// then matches errors.Is(err, ctx.Err()).
func Infer(ctx context.Context, app *prog.Program, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid config: %w", err)
	}
	if err := app.Finalize(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res := &Result{App: app.Name}
	acc := window.NewObservations(cfg.Window)
	var plan perturb.Plan
	var last *solver.Result

	// The campaign span roots the whole trace; every attribute recorded
	// below is deterministic (derived from config and the seeded runs),
	// never from wall clock or scheduling — see internal/obs.
	tr := cfg.tracer()
	campaign := tr.Root("campaign", app.Name,
		obs.Int("rounds", cfg.Rounds),
		obs.Int("tests", len(app.Tests)),
		obs.Int64("seed", cfg.Seed))
	defer campaign.End()

	// The solver state threaded across rounds: the Encoder caches the
	// per-window encoding work, and basis carries each round's optimal LP
	// basis into the next round's solve (the problems differ only by the
	// round's appended windows, so the warm solve re-optimizes in a few
	// pivots). Both reset whenever the accumulator does.
	enc := solver.NewEncoder(cfg.solverConfig())
	var basis *lp.Basis

	for round := 0; round < cfg.Rounds; round++ {
		if !cfg.Accumulate {
			// Figure 4's "no accumulation" line: every round stands alone.
			acc = window.NewObservations(cfg.Window)
			enc.Reset()
			basis = nil
		}
		rspan := campaign.Childf("round:%02d", round+1)
		specs := planRound(app, cfg, round, plan)
		exec := rspan.Child("execute", obs.Int("runs", len(specs)))
		outs := executeRound(ctx, app, specs, cfg, acc.FullPairs(), exec)
		exec.End()
		tr.Count("runs", int64(len(specs)))
		prevWindows := len(acc.Windows)
		if err := mergeRound(app, specs, outs, res, acc); err != nil {
			rspan.End()
			return nil, err
		}
		tr.Count("windows", int64(len(acc.Windows)-prevWindows))

		t0 := time.Now()
		if cfg.ColdStart {
			enc.Reset()
			basis = nil
		}
		sr, b, err := enc.SolveSpan(acc, basis, rspan)
		basis = b
		res.Overhead.SolveWall += time.Since(t0)
		if err != nil {
			rspan.End()
			return nil, fmt.Errorf("core: %s round %d solve: %w", app.Name, round+1, err)
		}
		tr.Count("lp.pivots", int64(sr.Iters))
		last = sr
		if sr.WarmStarted {
			res.Overhead.WarmRounds++
		}
		snap := RoundSnapshot{
			Round:    round + 1,
			Acquires: append([]trace.Key(nil), sr.AcquireSet...),
			Releases: append([]trace.Key(nil), sr.ReleaseSet...),
			Windows:  len(acc.Windows),
			LPIters:  sr.Iters,
			Warm:     sr.WarmStarted,
		}
		res.Rounds = append(res.Rounds, snap)
		plan = perturb.BuildPlanObs(rspan, sr.ReleaseSet, cfg.Delay)
		rspan.Annotate(
			obs.Int("windows", len(acc.Windows)),
			obs.Int("lp_iters", sr.Iters),
			obs.Bool("warm", sr.WarmStarted),
			obs.Int("acquires", len(sr.AcquireSet)),
			obs.Int("releases", len(sr.ReleaseSet)))
		rspan.End()
		cfg.notifyRound(snap, acc)
	}

	res.setFinal(last, len(acc.Windows))
	res.Overhead.Objective = last.Objective
	campaign.Annotate(
		obs.Int("windows", res.Overhead.Windows),
		obs.Int("vars", res.Overhead.Vars),
		obs.Int("constraints", res.Overhead.Constraints),
		obs.Int("inferred", len(res.Inferred)),
		obs.Int("deadlocks", res.Deadlocks),
		obs.Int("warm_rounds", res.Overhead.WarmRounds))
	campaign.End()
	return res, nil
}
