// Parallel run execution: dispatch a round's planned executions across a
// bounded worker pool. Every run is independent — its own seeded scheduler,
// its own trace, its own window extraction — so workers share nothing but
// the finalized (immutable) program and the read-only delay plan. A run's
// trace ends in its worker: the worker reduces it to windows and trace
// statistics and recycles the event buffer before the round barrier.
// Outputs land in a slice indexed by spec position; the merger consumes
// them in test order, making results bit-identical to a sequential loop
// for any worker count.
package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sherlock/internal/obs"
	"sherlock/internal/perturb"
	"sherlock/internal/prog"
	"sherlock/internal/sched"
	"sherlock/internal/window"
)

// runOutput is everything one execution contributes to the round.
type runOutput struct {
	windows   []window.Window // refined acquire/release windows
	stats     window.Stats    // duration samples and library APIs by name ID
	events    int             // trace length
	delay     int64           // total injected virtual delay
	wall      time.Duration   // wall time inside sched.Run (summed into Overhead.RunWall)
	err       error           // execution failure
	deadlock  bool            // the run deadlocked (contributes nothing else)
	canceled  bool            // context expired before this run started
	cancelErr error
}

// executeRound runs every spec, at most cfg.workers() concurrently, and
// returns the outputs indexed like specs. full holds the static pairs at
// the per-pair cap when the round began (Observations.FullPairs); their
// windows are not built. The context is checked between executions: once
// it expires, remaining runs are marked canceled instead of executed, so
// a mid-campaign abort returns promptly without waiting for work that
// hasn't started.
func executeRound(ctx context.Context, app *prog.Program, specs []runSpec, cfg Config, full map[window.PairID]bool, span *obs.Span) []runOutput {
	outs := make([]runOutput, len(specs))
	forEach(len(specs), cfg.workers(), func(i int) {
		if err := ctx.Err(); err != nil {
			outs[i] = runOutput{canceled: true, cancelErr: err}
			return
		}
		outs[i] = executeOne(ctx, app, specs[i], cfg.Window, full, span)
	})
	return outs
}

// forEach calls fn(i) for every i in [0, n) on at most workers goroutines
// and returns once every call has returned. Indices are handed out in
// ascending order to whichever worker is free next, so fn must write its
// output by index for the result to be independent of the worker count.
func forEach(n, workers int, fn func(i int)) {
	workers = max(min(workers, n), 1)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// executeOne performs one scheduler run plus its Observer post-processing
// (conflict pairing, window extraction, Perturber refinement, trace
// statistics), then recycles the run's event buffer: nothing downstream
// reads the trace itself. Extraction reads the run's event names by ID in
// the program's table (sched.Result.NameIDs), so it hashes no name. The
// conflicts of pairs in full are dropped before their windows are built:
// the merge's AddWindows would drop every one of them, since a pair's
// admitted count only grows. The heavy per-run work all happens here,
// inside the worker — including the run's span, whose ID is keyed by test
// index (not worker or completion order), so the span tree is identical
// at every parallelism level.
func executeOne(ctx context.Context, app *prog.Program, spec runSpec, wcfg window.Config, full map[window.PairID]bool, parent *obs.Span) runOutput {
	rs := parent.Child(fmt.Sprintf("run:%02d", spec.testIdx),
		obs.Str("test", spec.test.Name),
		obs.Int64("seed", spec.opt.Seed))
	defer rs.End()
	opt := spec.opt
	opt.Span = rs
	t0 := time.Now()
	run, err := sched.RunContext(ctx, app, spec.test, opt)
	defer run.Recycle()
	out := runOutput{wall: time.Since(t0), err: err}
	if err != nil {
		return out
	}
	if run.Deadlocked {
		out.deadlock = true
		return out
	}
	es := rs.Child("extract")
	conflicts := window.FindConflicts(run.Trace, wcfg)
	found := len(conflicts)
	if len(full) > 0 {
		conflicts = slices.DeleteFunc(conflicts, func(c window.Conflict) bool {
			return full[window.PairID{First: c.A.Site, Second: c.B.Site}]
		})
	}
	names := app.EventNames()
	ws := window.BuildWindowsByID(run.Trace, names, run.NameIDs, conflicts)
	out.windows = perturb.Refine(ws, run.Delays)
	out.stats = window.TraceStatsByID(run.Trace, names, run.NameIDs)
	out.events = run.Trace.Len()
	for _, d := range run.Delays {
		out.delay += d.End - d.Start
	}
	es.Annotate(
		obs.Int("conflicts", found),
		obs.Int("windows", len(ws)),
		obs.Int("capped", found-len(ws)),
		obs.Int("refined", len(out.windows)))
	es.End()
	return out
}
