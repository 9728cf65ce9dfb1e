// Static & refine inference benchmark: what does run-free analysis buy,
// and what does posterior seeding buy? For every registered application it
// records (a) static-only quality — precision/recall of core.InferStatic
// against ground truth, plus a bit-identical reproducibility check across
// two independent analyses — and (b) campaign economics: rounds-to-converge
// for the pure-dynamic campaign and for a refine campaign warm-started from
// the dynamic campaign's posterior, with the equal-final-set invariant
// checked. Saved runs are (dynamic − refine) convergence rounds × the app's
// per-round execution count. -gate asserts the hard invariants: static
// analysis bit-identical, refine finals identical, refine rounds never
// worse.
package main

import (
	"context"
	"encoding/json"
	"fmt"

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

const staticRounds = 3 // campaign rounds per app

func (r staticResult) gate() error {
	for _, ar := range r.Apps {
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
	return nil
}

// benchStatic runs the sweep over every registered application.
func benchStatic() (staticResult, error) {
	ctx := context.Background()
	res := staticResult{Rounds: staticRounds}
	for _, appName := range apps.Names() {
		ar, err := benchStaticApp(ctx, appName)
		if err != nil {
			return res, fmt.Errorf("%s: %w", appName, err)
		}
		res.Apps = append(res.Apps, ar)
		fmt.Printf("static: %s static %.0f%%P/%.0f%%R (repro=%t); rounds dyn %d, refine %d (equal=%t, saves %d runs)\n",
			ar.App, 100*ar.StaticPrecision, 100*ar.StaticRecall, ar.BitIdentical,
			ar.DynamicRounds, ar.RefineRounds, ar.RefineEqual, ar.RunsSavedRefine)
	}
	return res, nil
}

// benchStaticApp measures one application.
func benchStaticApp(ctx context.Context, appName string) (staticAppResult, error) {
	ar := staticAppResult{App: appName}
	app, err := apps.ByName(appName)
	if err != nil {
		return ar, err
	}
	cfg := core.DefaultConfig()
	cfg.Rounds = staticRounds

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
