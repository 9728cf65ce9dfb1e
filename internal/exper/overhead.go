// Overhead accounting (paper Section 5.6): wall-clock cost of tracing,
// window extraction + solving, and delay injection, against an
// uninstrumented baseline of the same test executions.
package exper

import (
	"context"
	"slices"
	"time"

	"sherlock/internal/apps"
	"sherlock/internal/core"
	"sherlock/internal/prog"
	"sherlock/internal/sched"
)

// overheadReps is how many interleaved (baseline, campaign) pairs time
// each app. One campaign takes about a millisecond, so a single sample
// is mostly host noise; each reported time is the median of its reps.
const overheadReps = 9

// OverheadRow is one application's cost breakdown. The three times are
// each the median over overheadReps interleaved reps.
type OverheadRow struct {
	App          string
	Baseline     time.Duration // 3 uninstrumented runs of every test
	Tracing      time.Duration // instrumented executions inside the engine
	Solving      time.Duration // window extraction is folded into Tracing; LP solve time
	Events       int
	Windows      int
	DelayVirtual int64 // injected virtual delay (ns)
	// OverheadPct is (Tracing+Solving)/Baseline − 1, in percent.
	OverheadPct float64
}

// Overhead measures every app. Wall-clock results depend on the host; the
// paper reports 24%–800% per test with a 278% average.
func Overhead(ctx context.Context) ([]OverheadRow, error) {
	// The overhead experiment times the engine's serial cost model, so
	// it pins Parallelism to 1: RunWall vs Baseline stays apples to
	// apples regardless of the host's core count.
	cfg := core.DefaultConfig()
	cfg.Parallelism = 1
	rows := make([]OverheadRow, 0, 8)
	for _, app := range apps.All() {
		var baseline, tracing, solving [overheadReps]time.Duration
		var res *core.Result
		for rep := range overheadReps {
			var err error
			if baseline[rep], err = baselineWall(ctx, app); err != nil {
				return nil, err
			}
			// Every rep runs the same deterministic campaign; only its
			// wall times differ.
			if res, err = core.Infer(ctx, app, cfg); err != nil {
				return nil, err
			}
			tracing[rep], solving[rep] = res.Overhead.RunWall, res.Overhead.SolveWall
		}
		row := OverheadRow{
			App:          app.Name,
			Baseline:     median(baseline[:]),
			Tracing:      median(tracing[:]),
			Solving:      median(solving[:]),
			Events:       res.Overhead.Events,
			Windows:      res.Overhead.Windows,
			DelayVirtual: res.Overhead.DelayVirtual,
		}
		if row.Baseline > 0 {
			row.OverheadPct = 100 * (float64(row.Tracing+row.Solving)/float64(row.Baseline) - 1)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// baselineWall times the same number of executions as a campaign's,
// uninstrumented.
func baselineWall(ctx context.Context, app *prog.Program) (time.Duration, error) {
	start := time.Now()
	for round := 0; round < 3; round++ {
		for ti, test := range app.Tests {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			_, err := sched.Run(app, test, sched.Options{
				Seed:           int64(1 + round*7919 + ti*127),
				DisableTracing: true,
			})
			if err != nil {
				return 0, err
			}
		}
	}
	return time.Since(start), nil
}

// median returns the middle value of an odd-length sample; it sorts ds.
func median(ds []time.Duration) time.Duration {
	slices.Sort(ds)
	return ds[len(ds)/2]
}
