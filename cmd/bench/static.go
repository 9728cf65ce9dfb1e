// Static inference benchmark: what does run-free analysis buy? For every
// registered application it records the static-only quality —
// precision/recall of core.InferStatic against ground truth — plus a
// bit-identical reproducibility check across two independent analyses.
// -gate asserts that every analysis is bit-identical.
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
}

// staticResult is the BENCH_static.json schema.
type staticResult struct {
	Apps []staticAppResult `json:"apps"`
}

func (r staticResult) gate() error {
	for _, ar := range r.Apps {
		if !ar.BitIdentical {
			return fmt.Errorf("%s: static analysis not bit-identical across runs", ar.App)
		}
	}
	return nil
}

// benchStatic runs the sweep over every registered application.
func benchStatic() (staticResult, error) {
	ctx := context.Background()
	var res staticResult
	for _, appName := range apps.Names() {
		ar, err := benchStaticApp(ctx, appName)
		if err != nil {
			return res, fmt.Errorf("%s: %w", appName, err)
		}
		res.Apps = append(res.Apps, ar)
		fmt.Printf("static: %s static %.0f%%P/%.0f%%R (repro=%t)\n",
			ar.App, 100*ar.StaticPrecision, 100*ar.StaticRecall, ar.BitIdentical)
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
	return ar, nil
}
