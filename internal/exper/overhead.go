// Overhead accounting (paper Section 5.6): wall-clock cost of tracing,
// window extraction + solving, and delay injection, against an
// uninstrumented baseline of the same test executions.
package exper

import (
	"context"
	"time"

	"sherlock/internal/apps"
	"sherlock/internal/core"
	"sherlock/internal/sched"
)

// OverheadRow is one application's cost breakdown.
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
	rows := make([]OverheadRow, 0, 8)
	for _, app := range apps.All() {
		// Baseline: the same number of executions, uninstrumented.
		start := time.Now()
		for round := 0; round < 3; round++ {
			for ti, test := range app.Tests {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				_, err := sched.Run(app, test, sched.Options{
					Seed:           int64(1 + round*7919 + ti*127),
					DisableTracing: true,
				})
				if err != nil {
					return nil, err
				}
			}
		}
		baseline := time.Since(start)

		// The overhead experiment times the engine's serial cost model, so
		// it pins Parallelism to 1: RunWall vs Baseline stays apples to
		// apples regardless of the host's core count.
		cfg := core.DefaultConfig()
		cfg.Parallelism = 1
		res, err := core.Infer(ctx, app, cfg)
		if err != nil {
			return nil, err
		}
		row := OverheadRow{
			App:          app.Name,
			Baseline:     baseline,
			Tracing:      res.Overhead.RunWall,
			Solving:      res.Overhead.SolveWall,
			Events:       res.Overhead.Events,
			Windows:      res.Overhead.Windows,
			DelayVirtual: res.Overhead.DelayVirtual,
		}
		if baseline > 0 {
			row.OverheadPct = 100 * (float64(row.Tracing+row.Solving)/float64(baseline) - 1)
		}
		rows = append(rows, row)
	}
	return rows, nil
}
