// Generated-app benchmark: score the full inference pipeline against the
// procedural generator's machine-readable ground truth at a scale the
// eight hand-built apps cannot provide. The sweep campaigns N distinct
// generated programs (seeds round-robined across the generator's
// profiles), scores each against its truth, and writes per-app rows plus
// aggregates to BENCH_gen.json. Two aggregate quality figures drive the
// -gate floors:
//
//   - non-race precision: correct / (correct + not-sync). True-race and
//     instrumentation-error inferences are the paper's expected,
//     separately bucketed outcomes — the gate guards against unexplained
//     false positives, which is what a generator/inference regression
//     produces.
//   - recall vs unbucketed truth: correct / (correct + missed-other),
//     where category-bucketed misses (dispose timing, static-ctor
//     alternates, ...) are the paper's known-hard cases and excluded
//     from the floor.
package main

import (
	"context"
	"fmt"

	"sherlock/internal/apps"
	"sherlock/internal/core"
	"sherlock/internal/gen"
	"sherlock/internal/prog"
)

// genAppResult is one generated application's row in BENCH_gen.json.
type genAppResult struct {
	App     string `json:"app"`
	Profile string `json:"profile"`

	Inferred    int     `json:"inferred"`
	Correct     int     `json:"correct"`
	DataRacy    int     `json:"data_racy"`
	InstrErrors int     `json:"instr_errors"`
	NotSync     int     `json:"not_sync"`
	Missed      int     `json:"missed"`
	MissedOther int     `json:"missed_other"` // misses outside the known-hard category buckets
	Precision   float64 `json:"precision"`
}

// genAggregate sums the sweep and carries the two gated quality figures.
type genAggregate struct {
	Apps        int `json:"apps"`
	Inferred    int `json:"inferred"`
	Correct     int `json:"correct"`
	DataRacy    int `json:"data_racy"`
	InstrErrors int `json:"instr_errors"`
	NotSync     int `json:"not_sync"`
	Missed      int `json:"missed"`
	MissedOther int `json:"missed_other"`

	NonRacePrecision float64 `json:"non_race_precision"` // correct / (correct + not_sync)
	Recall           float64 `json:"recall"`             // correct / (correct + missed_other)
}

// genResult is the BENCH_gen.json schema.
type genResult struct {
	GeneratorVersion string         `json:"generator_version"`
	N                int            `json:"n"`
	Rounds           int            `json:"rounds"`
	Apps             []genAppResult `json:"apps"`
	Aggregate        genAggregate   `json:"aggregate"`
}

const (
	genN      = 100 // distinct generated applications swept
	genRounds = 3   // campaign rounds per app
)

func (r genResult) gate() error {
	a := r.Aggregate
	if a.NonRacePrecision < genGateMinPrecision {
		return fmt.Errorf("aggregate non-race precision %.3f below the gate floor %.2f",
			a.NonRacePrecision, genGateMinPrecision)
	}
	if a.Recall < genGateMinRecall {
		return fmt.Errorf("aggregate recall %.3f below the gate floor %.2f",
			a.Recall, genGateMinRecall)
	}
	return nil
}

// benchGen sweeps genN generated applications.
func benchGen() (genResult, error) {
	ctx := context.Background()
	res := genResult{GeneratorVersion: gen.Version, N: genN, Rounds: genRounds}
	for i := 0; i < genN; i++ {
		spec := gen.Spec{
			Seed:    int64(i + 1),
			Profile: gen.Profiles[i%len(gen.Profiles)],
			Size:    gen.DefaultSize,
		}
		// Resolve through apps.ByName — the same path the
		// CLI and server take — so the sweep also exercises name routing.
		app, err := apps.ByName(spec.Name())
		if err != nil {
			return res, fmt.Errorf("%s: %w", spec.Name(), err)
		}
		cfg := core.DefaultConfig()
		cfg.Rounds = genRounds
		r, err := core.Infer(ctx, app, cfg)
		if err != nil {
			return res, fmt.Errorf("%s: %w", spec.Name(), err)
		}
		score := core.ScoreResult(app, r)
		row := genAppResult{
			App:         spec.Name(),
			Profile:     spec.Profile,
			Inferred:    score.Total(),
			Correct:     len(score.Correct),
			DataRacy:    len(score.DataRacy),
			InstrErrors: len(score.InstrErrors),
			NotSync:     len(score.NotSync),
			Missed:      len(score.Missed),
			MissedOther: score.MissByCategory[prog.CatOther],
			Precision:   score.Precision(),
		}
		res.Apps = append(res.Apps, row)
		res.Aggregate.Inferred += row.Inferred
		res.Aggregate.Correct += row.Correct
		res.Aggregate.DataRacy += row.DataRacy
		res.Aggregate.InstrErrors += row.InstrErrors
		res.Aggregate.NotSync += row.NotSync
		res.Aggregate.Missed += row.Missed
		res.Aggregate.MissedOther += row.MissedOther
	}
	res.Aggregate.Apps = len(res.Apps)
	if d := res.Aggregate.Correct + res.Aggregate.NotSync; d > 0 {
		res.Aggregate.NonRacePrecision = float64(res.Aggregate.Correct) / float64(d)
	}
	if d := res.Aggregate.Correct + res.Aggregate.MissedOther; d > 0 {
		res.Aggregate.Recall = float64(res.Aggregate.Correct) / float64(d)
	}

	a := res.Aggregate
	fmt.Printf("gen: %d generated apps (%s, rounds=%d): %d inferred, %d correct, %d racy, %d instr, %d not-sync, %d missed (%d unbucketed)\n",
		a.Apps, gen.Version, genRounds, a.Inferred, a.Correct, a.DataRacy, a.InstrErrors, a.NotSync, a.Missed, a.MissedOther)
	fmt.Printf("gen: non-race precision %.3f (gate ≥ %.2f), recall %.3f (gate ≥ %.2f)\n",
		a.NonRacePrecision, genGateMinPrecision, a.Recall, genGateMinRecall)
	return res, nil
}
