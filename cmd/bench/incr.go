// Incremental-inference benchmark: how much cheaper is extending a
// checkpointed corpus solve by a few traces than re-solving from scratch?
// For each appended-trace count the from-scratch path re-runs the full
// offline solve over base+k traces, while the incremental path folds just
// the k new traces into the base checkpoint, warm-starting the LP from the
// stored basis. The checkpoint is the in-memory one the base solve
// returned, built outside the timed region: a live daemon holds exactly
// that between uploads, so the steady-state per-upload cost is the honest
// comparison. -gate asserts the +1-trace speedup and the fold cost's
// independence of the base size.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"sherlock/internal/apps"
	"sherlock/internal/core"
	"sherlock/internal/sched"
	"sherlock/internal/store"
	"sherlock/internal/trace"
)

// incrPoint is one appended-trace measurement.
type incrPoint struct {
	Appended  int     `json:"appended"`
	ScratchNs int64   `json:"scratch_ns"`
	IncrNs    int64   `json:"incr_ns"`
	Speedup   float64 `json:"speedup"`
}

// foldPoint measures the cost of folding the SAME one trace into
// checkpointed bases of increasing size — the sublinearity claim: the
// per-upload fold cost must be governed by the new trace, not by how much
// corpus the checkpoint already holds.
type foldPoint struct {
	BaseTraces int   `json:"base_traces"`
	IncrNs     int64 `json:"incr_ns"`
}

// incrResult is the BENCH_incremental.json schema.
type incrResult struct {
	App        string      `json:"app"`
	BaseTraces int         `json:"base_traces"`
	Reps       int         `json:"reps"`
	Points     []incrPoint `json:"points"`
	// Fold holds the +1-trace fold cost at quarter, half, and full base;
	// FoldGrowth is full-base cost over quarter-base cost.
	Fold       []foldPoint `json:"fold"`
	FoldGrowth float64     `json:"fold_growth"`
}

const (
	incrApp        = "App-1"
	incrBaseTraces = 160 // checkpointed base corpus size
	incrReps       = 5   // repetitions per point; the best is reported
)

func (r incrResult) gate() error {
	if r.Points[0].Speedup < incrMinSpeedup {
		return fmt.Errorf("+1-trace incremental speedup %.2fx below the %dx gate", r.Points[0].Speedup, incrMinSpeedup)
	}
	if r.FoldGrowth > incrMaxFoldGrowth {
		return fmt.Errorf("+1-trace fold cost grows %.2fx from %d- to %d-trace base (gate %dx): fold is not base-size independent",
			r.FoldGrowth, r.Fold[0].BaseTraces, r.BaseTraces, incrMaxFoldGrowth)
	}
	return nil
}

// benchIncr runs the incremental-vs-from-scratch measurement.
func benchIncr() (incrResult, error) {
	res := incrResult{App: incrApp, BaseTraces: incrBaseTraces, Reps: incrReps}
	app, err := apps.ByName(incrApp)
	if err != nil {
		return res, err
	}
	cfg := core.DefaultConfig()
	appends := []int{1, 4, 16}
	need := incrBaseTraces + appends[len(appends)-1]

	// Capture distinct traces (tests x seeds, deduped by content address).
	var kts []core.KeyedTrace
	seen := map[string]bool{}
	for seed := int64(1); len(kts) < need; seed++ {
		for _, tc := range app.Tests {
			run, err := sched.Run(app, tc, sched.Options{Seed: seed})
			if err != nil {
				return res, err
			}
			key, err := store.Key(run.Trace)
			if err != nil {
				return res, err
			}
			if seen[key] {
				continue
			}
			seen[key] = true
			kts = append(kts, core.KeyedTrace{Key: key, Trace: run.Trace})
			if len(kts) == need {
				break
			}
		}
	}

	// Build the base checkpoint once; a daemon holds this in-memory state.
	ctx := context.Background()
	_, ck, err := core.InferIncremental(ctx, nil, core.KeyedSlice(kts[:incrBaseTraces]), cfg)
	if err != nil {
		return res, err
	}

	for _, k := range appends {
		full := kts[:incrBaseTraces+k]
		sorted := append([]core.KeyedTrace(nil), full...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
		var traces []*trace.Trace
		for _, kt := range sorted {
			traces = append(traces, kt.Trace)
		}

		pt := incrPoint{Appended: k}
		var scratchRes, incrRes *core.Result
		for rep := 0; rep < incrReps; rep++ {
			t0 := time.Now()
			sr, err := core.InferFromSource(ctx, core.SliceSource(traces), cfg)
			if err != nil {
				return res, err
			}
			keepMin(&pt.ScratchNs, time.Since(t0))
			scratchRes = sr

			t0 = time.Now()
			ir, _, err := core.InferIncremental(ctx, ck, core.KeyedSlice(kts[incrBaseTraces:incrBaseTraces+k]), cfg)
			if err != nil {
				return res, err
			}
			keepMin(&pt.IncrNs, time.Since(t0))
			incrRes = ir
		}
		if err := sameInference(scratchRes, incrRes); err != nil {
			return res, fmt.Errorf("+%d traces: %w", k, err)
		}
		pt.Speedup = float64(pt.ScratchNs) / float64(pt.IncrNs)
		res.Points = append(res.Points, pt)
	}

	// Fold-growth: fold the same held-out trace (kts[incrBaseTraces], in no
	// base) into in-memory checkpoints of a quarter, half, and the full
	// base. Only the fold is timed.
	extra := core.KeyedSlice(kts[incrBaseTraces : incrBaseTraces+1])
	for _, b := range []int{incrBaseTraces / 4, incrBaseTraces / 2, incrBaseTraces} {
		_, fck, err := core.InferIncremental(ctx, nil, core.KeyedSlice(kts[:b]), cfg)
		if err != nil {
			return res, err
		}
		fp := foldPoint{BaseTraces: b}
		for rep := 0; rep < incrReps; rep++ {
			t0 := time.Now()
			if _, _, err := core.InferIncremental(ctx, fck, extra, cfg); err != nil {
				return res, err
			}
			keepMin(&fp.IncrNs, time.Since(t0))
		}
		res.Fold = append(res.Fold, fp)
	}
	res.FoldGrowth = float64(res.Fold[len(res.Fold)-1].IncrNs) / float64(res.Fold[0].IncrNs)

	for _, pt := range res.Points {
		fmt.Printf("incremental: +%d traces on %d-trace base: scratch %.1fms vs incremental %.1fms: %.2fx\n",
			pt.Appended, res.BaseTraces, float64(pt.ScratchNs)/1e6, float64(pt.IncrNs)/1e6, pt.Speedup)
	}
	for _, fp := range res.Fold {
		fmt.Printf("incremental: +1-trace fold on %d-trace base: %.1fms\n", fp.BaseTraces, float64(fp.IncrNs)/1e6)
	}
	fmt.Printf("incremental: fold growth %dx base -> %.2fx cost\n", incrBaseTraces/(incrBaseTraces/4), res.FoldGrowth)
	return res, nil
}

// sameInference checks the benchmark's sanity invariant: both paths must
// infer the identical operation set with identical posteriors.
func sameInference(a, b *core.Result) error {
	ca, cb := *a, *b
	ca.Overhead.RunWall, ca.Overhead.SolveWall = 0, 0
	cb.Overhead.RunWall, cb.Overhead.SolveWall = 0, 0
	ba, err := json.Marshal(&ca)
	if err != nil {
		return err
	}
	bb, err := json.Marshal(&cb)
	if err != nil {
		return err
	}
	if string(ba) != string(bb) {
		return fmt.Errorf("incremental result differs from from-scratch solve")
	}
	return nil
}
