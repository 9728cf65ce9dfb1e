// Tracing-overhead benchmark: the observability layer's acceptance gate.
// The engine always builds spans unless Config.DisableTracing is set, so
// the cost that matters is "tracing on, no sink attached" (the library
// default) against the DisableTracing baseline. Both modes run identical
// campaigns; the best-of-reps wall clocks bound the scheduler-noise floor,
// and -gate asserts the relative overhead stays under obsMaxPct.
package main

import (
	"context"
	"fmt"
	"time"

	"sherlock/internal/apps"
	"sherlock/internal/core"
)

// obsResult is the BENCH_obs.json schema. Times are best-of-reps wall
// clock for one full campaign, in nanoseconds.
type obsResult struct {
	App         string  `json:"app"`
	Rounds      int     `json:"rounds"`
	Reps        int     `json:"reps"`
	BaselineNs  int64   `json:"baseline_ns"`
	TracedNs    int64   `json:"traced_ns"`
	OverheadPct float64 `json:"overhead_pct"`
	MaxPct      float64 `json:"max_pct,omitempty"`
}

const (
	obsApp    = "App-1"
	obsRounds = 6
	obsReps   = 9 // campaigns per tracing mode; the best is reported
)

func (r obsResult) gate() error {
	if r.OverheadPct > obsMaxPct {
		return fmt.Errorf("tracing overhead %.2f%% exceeds the %d%% budget", r.OverheadPct, obsMaxPct)
	}
	return nil
}

// benchObs measures no-sink tracing overhead on full campaigns.
func benchObs() (obsResult, error) {
	res := obsResult{App: obsApp, Rounds: obsRounds, Reps: obsReps, MaxPct: obsMaxPct}
	app, err := apps.ByName(obsApp)
	if err != nil {
		return res, err
	}
	campaign := func(disableTracing bool) (time.Duration, error) {
		cfg := core.DefaultConfig()
		cfg.Rounds = obsRounds
		cfg.DisableTracing = disableTracing
		t0 := time.Now()
		_, err := core.Infer(context.Background(), app, cfg)
		return time.Since(t0), err
	}

	// Warm up both paths once so neither measurement pays first-touch costs.
	for _, mode := range []bool{true, false} {
		if _, err := campaign(mode); err != nil {
			return res, err
		}
	}

	// Interleave the modes so slow drift (thermal, scheduling) hits both.
	for rep := 0; rep < obsReps; rep++ {
		base, err := campaign(true)
		if err != nil {
			return res, err
		}
		traced, err := campaign(false)
		if err != nil {
			return res, err
		}
		keepMin(&res.BaselineNs, base)
		keepMin(&res.TracedNs, traced)
	}
	res.OverheadPct = 100 * (float64(res.TracedNs) - float64(res.BaselineNs)) / float64(res.BaselineNs)

	fmt.Printf("obs: baseline %.1fms vs traced(no sink) %.1fms: %+.2f%% overhead\n",
		float64(res.BaselineNs)/1e6, float64(res.TracedNs)/1e6, res.OverheadPct)
	return res, nil
}
