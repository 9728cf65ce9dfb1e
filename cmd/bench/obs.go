// Tracing-overhead benchmark: the observability layer's acceptance gate.
// The engine always builds spans unless Config.DisableTracing is set, so
// the cost that matters is "tracing on, no sink attached" (the library
// default) against the DisableTracing baseline. Both modes run identical
// campaigns in back-to-back pairs, each timed on the process CPU clock
// after a forced GC; -gate asserts the median of the per-pair overheads
// stays under obsMaxPct. The pairs run at GOMAXPROCS 1: with more Ps, idle
// ones spinning for work add CPU time that has nothing to do with tracing,
// which dilutes the overhead and spreads it by several points per run.
package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"sherlock/internal/apps"
	"sherlock/internal/core"
)

// obsResult is the BENCH_obs.json schema. PairPcts holds each pair's
// overhead in percent, in run order, and OverheadPct their median; the
// times are each mode's median campaign CPU time in nanoseconds.
type obsResult struct {
	App         string    `json:"app"`
	Rounds      int       `json:"rounds"`
	Pairs       int       `json:"pairs"`
	BaselineNs  int64     `json:"baseline_ns"`
	TracedNs    int64     `json:"traced_ns"`
	PairPcts    []float64 `json:"pair_pcts"`
	OverheadPct float64   `json:"overhead_pct"`
	MaxPct      float64   `json:"max_pct,omitempty"`
}

const (
	obsApp    = "App-1"
	obsRounds = 6
	obsPairs  = 21 // (baseline, traced) campaign pairs; odd, so the median is one pair
)

func (r obsResult) gate() error {
	if r.OverheadPct > obsMaxPct {
		return fmt.Errorf("tracing overhead %.2f%% (median of %d pairs) exceeds the %d%% budget", r.OverheadPct, r.Pairs, obsMaxPct)
	}
	return nil
}

// benchObs measures no-sink tracing overhead on full campaigns.
func benchObs() (obsResult, error) {
	res := obsResult{App: obsApp, Rounds: obsRounds, Pairs: obsPairs, MaxPct: obsMaxPct}
	app, err := apps.ByName(obsApp)
	if err != nil {
		return res, err
	}
	campaign := func(disableTracing bool) (time.Duration, error) {
		cfg := core.DefaultConfig()
		cfg.Rounds = obsRounds
		cfg.DisableTracing = disableTracing
		runtime.GC()
		t0 := cpuNow()
		_, err := core.Infer(context.Background(), app, cfg)
		return cpuNow() - t0, err
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// Warm up both paths once so neither measurement pays first-touch costs.
	for _, mode := range []bool{true, false} {
		if _, err := campaign(mode); err != nil {
			return res, err
		}
	}

	// Alternate which mode runs first, so a cost one campaign leaves for
	// the next falls on each mode equally often.
	var base, traced []time.Duration
	for pair := 0; pair < obsPairs; pair++ {
		var t [2]time.Duration // [baseline, traced]
		for k := range 2 {
			mode := (k + pair) % 2 // 0 = baseline (tracing disabled)
			if t[mode], err = campaign(mode == 0); err != nil {
				return res, err
			}
		}
		base, traced = append(base, t[0]), append(traced, t[1])
		res.PairPcts = append(res.PairPcts, 100*(float64(t[1])-float64(t[0]))/float64(t[0]))
	}
	res.OverheadPct = quantile(slices.Clone(res.PairPcts), 0.5)
	res.BaselineNs = quantile(base, 0.5).Nanoseconds()
	res.TracedNs = quantile(traced, 0.5).Nanoseconds()

	fmt.Printf("obs: baseline %.1fms vs traced(no sink) %.1fms CPU (medians): %+.2f%% overhead, median of %d pairs\n",
		float64(res.BaselineNs)/1e6, float64(res.TracedNs)/1e6, res.OverheadPct, obsPairs)
	return res, nil
}
