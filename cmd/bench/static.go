// Static & refine inference benchmark: what does run-free analysis buy,
// and what does posterior seeding buy? For every registered application it
// records (a) static-only quality — precision/recall of core.InferStatic
// against ground truth, plus a bit-identical reproducibility check across
// two independent analyses — and (b) campaign economics: rounds-to-converge
// for the pure-dynamic campaign and for a refine campaign warm-started from
// the dynamic campaign's posterior, with the equal-final-set invariant
// checked. Saved runs are (dynamic − refine) convergence rounds × the app's
// per-round execution count. The numbers land in BENCH_static.json;
// -static-gate turns the hard invariants (static analysis bit-identical,
// refine finals identical, refine rounds never worse) into a CI gate.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"sherlock/internal/apps"
	"sherlock/internal/core"
)

// staticAppResult is one application's row in BENCH_static.json.
type staticAppResult struct {
	App string `json:"app"`

	// Static-only quality vs ground truth (no executions at all).
	StaticInferred  int     `json:"static_inferred"`
	StaticCorrect   int     `json:"static_correct"`
	StaticPrecision float64 `json:"static_precision"`
	StaticRecall    float64 `json:"static_recall"`
	// BitIdentical: two independent static analyses serialize identically.
	BitIdentical bool   `json:"bit_identical"`
	ProgramHash  string `json:"program_hash"`

	// Campaign economics. *Rounds are rounds-to-converge (first round
	// already holding the final inferred set); RunsPerRound is the app's
	// execution count per round.
	DynamicRounds int  `json:"dynamic_rounds"`
	RefineRounds  int  `json:"refine_rounds"`
	RunsPerRound  int  `json:"runs_per_round"`
	RefineEqual   bool `json:"refine_equal_final"` // refine final set == dynamic final set
	// RunsSavedRefine counts executions a convergence-stopping campaign
	// would skip relative to pure dynamic.
	RunsSavedRefine int `json:"runs_saved_refine"`
}

// staticResult is the BENCH_static.json schema.
type staticResult struct {
	Rounds int               `json:"rounds"`
	Apps   []staticAppResult `json:"apps"`
}

// benchStatic runs the sweep and writes the result file. With gate set,
// any app whose static analysis is not reproducible, or whose refine
// campaign diverges from dynamic (different final set) or converges
// slower, is an error (exit 1 in main).
func benchStatic(outFile string, rounds int, gate bool) error {
	ctx := context.Background()
	res := staticResult{Rounds: rounds}
	for _, appName := range apps.Names() {
		ar, err := benchStaticApp(ctx, appName, rounds)
		if err != nil {
			return fmt.Errorf("%s: %w", appName, err)
		}
		res.Apps = append(res.Apps, ar)
	}

	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(outFile, buf, 0o644); err != nil {
		return err
	}
	for _, ar := range res.Apps {
		fmt.Printf("%s: %s static %.0f%%P/%.0f%%R (repro=%t); rounds dyn %d, refine %d (equal=%t, saves %d runs)\n",
			outFile, ar.App, 100*ar.StaticPrecision, 100*ar.StaticRecall, ar.BitIdentical,
			ar.DynamicRounds, ar.RefineRounds, ar.RefineEqual, ar.RunsSavedRefine)
	}
	if gate {
		for _, ar := range res.Apps {
			if !ar.BitIdentical {
				return fmt.Errorf("%s: static analysis not bit-identical across runs", ar.App)
			}
			if !ar.RefineEqual {
				return fmt.Errorf("%s: refine final inferred set diverges from pure dynamic", ar.App)
			}
			if ar.RefineRounds > ar.DynamicRounds {
				return fmt.Errorf("%s: refine needs %d rounds to converge vs dynamic %d",
					ar.App, ar.RefineRounds, ar.DynamicRounds)
			}
		}
	}
	return nil
}

// benchStaticApp measures one application.
func benchStaticApp(ctx context.Context, appName string, rounds int) (staticAppResult, error) {
	ar := staticAppResult{App: appName}
	app, err := apps.ByName(appName)
	if err != nil {
		return ar, err
	}
	cfg := core.DefaultConfig()
	cfg.Rounds = rounds

	// Static-only quality + reproducibility.
	sres, an, err := core.InferStatic(ctx, app, cfg)
	if err != nil {
		return ar, err
	}
	sres2, _, err := core.InferStatic(ctx, app, cfg)
	if err != nil {
		return ar, err
	}
	b1, _ := json.Marshal(sres.Inferred)
	b2, _ := json.Marshal(sres2.Inferred)
	ar.BitIdentical = string(b1) == string(b2)
	ar.ProgramHash = an.ProgramHash
	score := core.ScoreResult(app, sres)
	ar.StaticInferred = score.Total()
	ar.StaticCorrect = len(score.Correct)
	ar.StaticPrecision = score.Precision()
	if denom := len(score.Correct) + len(score.Missed); denom > 0 {
		ar.StaticRecall = float64(len(score.Correct)) / float64(denom)
	}
	ar.RunsPerRound = len(app.Tests)

	// Pure-dynamic baseline.
	dyn, err := core.Infer(ctx, app, cfg)
	if err != nil {
		return ar, err
	}
	ar.DynamicRounds = dyn.RoundsToConverge()
	dynFinal, _ := json.Marshal(dyn.Inferred)

	// Refine: warm-start from the dynamic campaign's own posterior, the
	// steady state of a checkpointed campaign series.
	rcfg := cfg
	post := core.PosteriorFromResult(dyn, cfg)
	if rcfg.StaticPriors, err = post.Priors(cfg); err != nil {
		return ar, err
	}
	ref, err := core.Infer(ctx, app, rcfg)
	if err != nil {
		return ar, err
	}
	ar.RefineRounds = ref.RoundsToConverge()
	refFinal, _ := json.Marshal(ref.Inferred)
	ar.RefineEqual = string(refFinal) == string(dynFinal)
	ar.RunsSavedRefine = (ar.DynamicRounds - ar.RefineRounds) * ar.RunsPerRound
	return ar, nil
}
