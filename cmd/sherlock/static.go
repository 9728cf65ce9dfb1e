// `sherlock static` — run-free inference — plus the refine campaign
// helper behind `sherlock infer -refine`.
package main

import (
	"context"
	"fmt"
	"os"

	"sherlock/internal/apps"
	"sherlock/internal/core"
	"sherlock/internal/prog"
	"sherlock/internal/store"
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

// refineCampaign runs `sherlock infer -app X -refine -corpus DIR`: the
// campaign warm-starts from the posterior checkpoint a previous refine
// run stored in the corpus, and persists its own posterior for the next
// one. The first run is cold (no checkpoint yet) but still saves one.
func refineCampaign(ctx context.Context, app *prog.Program, corpusDir string, cfg core.Config, verbose bool) error {
	c, err := store.Open(corpusDir)
	if err != nil {
		return err
	}
	name := core.CheckpointName("posterior", app.Name)
	warm := false
	if data, err := c.LoadCheckpoint(name); err == nil {
		post, derr := core.DecodePosterior(data)
		if derr != nil {
			fmt.Fprintf(os.Stderr, "sherlock: ignoring stored posterior %s: %v\n", name, derr)
		} else if pri, perr := post.Priors(cfg); perr != nil {
			fmt.Fprintf(os.Stderr, "sherlock: ignoring stored posterior %s: %v\n", name, perr)
		} else {
			cfg.StaticPriors = pri
			warm = true
			fmt.Printf("warm-starting from posterior %s (%d rounds of evidence)\n", name, post.Rounds)
		}
	}
	res, err := core.Infer(ctx, app, cfg)
	if err != nil {
		return err
	}
	data, err := core.EncodePosterior(core.PosteriorFromResult(res, cfg))
	if err != nil {
		return err
	}
	if err := c.SaveCheckpoint(name, data); err != nil {
		return fmt.Errorf("save posterior: %w", err)
	}
	mode := "cold (posterior saved for the next run)"
	if warm {
		mode = fmt.Sprintf("warm, converged in %d/%d rounds", res.RoundsToConverge(), len(res.Rounds))
	}
	fmt.Printf("refine campaign: %s\n\n", mode)
	printResult(app, res, verbose)
	return nil
}
