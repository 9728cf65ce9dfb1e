package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"sherlock/internal/apps"
	"sherlock/internal/perturb"
	"sherlock/internal/sched"
	"sherlock/internal/stats"
	"sherlock/internal/window"
)

// TestRunStatsMatchUnrecycledTraces: workers reduce each run to its trace
// statistics and recycle the trace before the merge. The counters and the
// accumulator's per-trace statistics must equal a sequential reference
// that keeps every trace and folds it with AddTraceStats. The reference
// replays the campaign's schedule, taking each round's delay plan from
// the release set the engine reported for the round before.
func TestRunStatsMatchUnrecycledTraces(t *testing.T) {
	libAPIs := 0
	for _, app := range apps.All() {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/p%d", app.Name, par), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Parallelism = par
				var snaps []RoundSnapshot
				var final *window.Observations
				cfg.Observer = ObserverFuncs{OnRound: func(s RoundSnapshot, acc *window.Observations) {
					snaps = append(snaps, s)
					final = acc.Clone()
				}}
				res, err := Infer(context.Background(), app, cfg)
				if err != nil {
					t.Fatal(err)
				}

				ref := window.NewObservations(cfg.Window)
				var events, deadlocks int
				var delay int64
				var plan perturb.Plan
				for round := 0; round < cfg.Rounds; round++ {
					for _, spec := range planRound(app, cfg, round, plan) {
						run, err := sched.Run(app, spec.test, spec.opt)
						if err != nil {
							t.Fatal(err)
						}
						if run.Deadlocked {
							deadlocks++
							continue
						}
						for _, d := range run.Delays {
							delay += d.End - d.Start
						}
						events += run.Trace.Len()
						ref.AddTraceStats(run.Trace)
					}
					plan = perturb.BuildPlan(snaps[round].Releases, cfg.Delay)
				}

				if res.Overhead.Events != events || res.Overhead.DelayVirtual != delay || res.Deadlocks != deadlocks {
					t.Errorf("events/delay/deadlocks = %d/%d/%d, reference %d/%d/%d",
						res.Overhead.Events, res.Overhead.DelayVirtual, res.Deadlocks, events, delay, deadlocks)
				}
				if events == 0 || delay == 0 {
					t.Fatal("no events or no injected delay: the comparison proves little")
				}
				if final.Runs != ref.Runs {
					t.Errorf("Runs = %d, reference %d", final.Runs, ref.Runs)
				}
				libAPIs += len(ref.LibAPIs)
				if !reflect.DeepEqual(final.LibAPIs, ref.LibAPIs) {
					t.Errorf("LibAPIs = %v, reference %v", final.LibAPIs, ref.LibAPIs)
				}
				if !reflect.DeepEqual(moments(final), moments(ref)) {
					t.Error("method-duration statistics differ from the reference")
				}
			})
		}
	}
	if libAPIs == 0 {
		t.Fatal("no run called a library API: the LibAPIs comparison proves nothing")
	}
}

// moments copies an accumulator's duration statistics by value.
func moments(o *window.Observations) map[string]stats.Moments {
	out := make(map[string]stats.Moments, len(o.Durations))
	for name, m := range o.Durations {
		out[name] = *m
	}
	return out
}
