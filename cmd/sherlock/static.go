// `sherlock static` — run-free inference.
package main

import (
	"context"
	"fmt"

	"sherlock/internal/apps"
	"sherlock/internal/core"
	"sherlock/internal/trace"
)

// runStaticLocal analyzes one app without executing it and prints the
// report scored against ground truth.
func runStaticLocal(ctx context.Context, appName string, lambda float64, near int64, verbose bool) error {
	app, err := apps.ByName(appName)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	cfg.Solver.Lambda = lambda
	cfg.Window.Near = near
	res, an, err := core.InferStatic(ctx, app, cfg)
	if err != nil {
		return err
	}
	score := core.ScoreResult(app, res)
	fmt.Printf("%s (%s): static-only — %d inferred, %d correct, precision %.0f%%, recall %.0f%%\n",
		app.Name, app.Title, score.Total(), len(score.Correct), 100*score.Precision(), 100*recall(score))
	fmt.Printf("program %s  %d threads, %d abstract ops, %d windows (no executions)\n\n",
		an.ProgramHash[:12], an.Threads, an.Ops, an.Windows)
	fmt.Println("Releasing sites:")
	for _, s := range res.Inferred {
		if s.Role == trace.RoleRelease {
			fmt.Printf("  %-70s %s\n", s.Key.Display(), classify(app, s))
		}
	}
	fmt.Println("Acquire sites:")
	for _, s := range res.Inferred {
		if s.Role == trace.RoleAcquire {
			fmt.Printf("  %-70s %s\n", s.Key.Display(), classify(app, s))
		}
	}
	if len(score.Missed) > 0 {
		fmt.Println("Missed (ground truth):")
		for _, k := range score.Missed {
			fmt.Printf("  %-70s [%s]\n", k.Display(), app.Truth.Category[k])
		}
	}
	if verbose {
		fmt.Printf("\nOverhead: solve %v, LP %dx%d, objective %.4f\n",
			res.Overhead.SolveWall, res.Overhead.Vars, res.Overhead.Constraints, res.Overhead.Objective)
	}
	return nil
}

// runStaticAll prints the static-only precision/recall sweep over every
// program apps.RegistryNames lists — the eight built-ins plus the
// generator's per-profile samples.
// The run-free analogue of Table 2.
func runStaticAll(ctx context.Context) error {
	fmt.Printf("%-22s %-34s %9s %9s %11s %8s\n", "App", "Title", "#Inferred", "#Correct", "Precision", "Recall")
	for _, name := range apps.RegistryNames() {
		if err := ctx.Err(); err != nil {
			return err
		}
		app, err := apps.ByName(name)
		if err != nil {
			return err
		}
		res, _, err := core.InferStatic(ctx, app, core.DefaultConfig())
		if err != nil {
			return err
		}
		score := core.ScoreResult(app, res)
		title := app.Title
		if len(title) > 34 {
			title = title[:31] + "..."
		}
		fmt.Printf("%-22s %-34s %9d %9d %10.0f%% %7.0f%%\n",
			app.Name, title, score.Total(), len(score.Correct),
			100*score.Precision(), 100*recall(score))
	}
	return nil
}

// recall = correct / (correct + missed) against ground truth.
func recall(s *core.Score) float64 {
	denom := len(s.Correct) + len(s.Missed)
	if denom == 0 {
		return 0
	}
	return float64(len(s.Correct)) / float64(denom)
}
