// Deterministic result merging: fold a round's per-run outputs into the
// shared Observations in test-index order. Window accumulation is
// order-sensitive (the cross-run per-pair cap admits the first 15 windows
// of a static pair) and so are the floating-point duration statistics, so
// the merge always walks outputs in the order the planner emitted them —
// the exact order the sequential engine used — regardless of which worker
// finished first.
package core

import (
	"errors"
	"fmt"

	"sherlock/internal/prog"
	"sherlock/internal/window"
)

// mergeRound folds outs (indexed like the round's specs) into res and obs.
// It aggregates every run error of the round with errors.Join rather than
// stopping at the first, and surfaces context cancellation as the
// context's own error so callers can match errors.Is(err, context.Canceled).
func mergeRound(app *prog.Program, specs []runSpec, outs []runOutput, res *Result, obs *window.Observations) error {
	var errs []error
	for i, out := range outs {
		spec := specs[i]
		if out.canceled {
			errs = append(errs, fmt.Errorf("core: %s/%s round %d: %w",
				app.Name, spec.test.Name, spec.round+1, out.cancelErr))
			continue
		}
		res.Overhead.RunWall += out.wall
		if out.err != nil {
			errs = append(errs, fmt.Errorf("core: %s/%s round %d: %w",
				app.Name, spec.test.Name, spec.round+1, out.err))
			continue
		}
		if out.deadlock {
			res.Deadlocks++
			continue
		}
		res.Overhead.DelayVirtual += out.delay
		res.Overhead.Events += out.events
		obs.AddWindows(out.windows)
		obs.AddStatsByID(out.stats)
	}
	return errors.Join(errs...)
}
