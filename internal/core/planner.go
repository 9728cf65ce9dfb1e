// Round planning: derive the scheduler options of every (round, test)
// execution up front. Each run is an independent, fully described unit of
// work — the seed formula depends only on (base seed, round, test index),
// never on execution order — which is what lets the runner dispatch the
// round's executions across a worker pool without changing any result.
package core

import (
	"sherlock/internal/perturb"
	"sherlock/internal/prog"
	"sherlock/internal/sched"
)

// runSpec describes one scheduler execution of one unit test.
type runSpec struct {
	round   int // 0-based
	testIdx int
	test    *prog.Test
	opt     sched.Options
}

// planRound builds the specs for one round. plan is the Perturber's delay
// plan from the previous round's solve (nil in round 0); the plan map is
// shared read-only across the round's workers.
func planRound(app *prog.Program, cfg Config, round int, plan perturb.Plan) []runSpec {
	specs := make([]runSpec, 0, len(app.Tests))
	for ti, test := range app.Tests {
		opt := sched.Options{
			Seed:             cfg.Seed + int64(round)*7919 + int64(ti)*127,
			HiddenMethods:    app.Truth.HiddenMethods,
			MaxSteps:         cfg.MaxStepsPerTest,
			DelayProbability: cfg.DelayProbability,
			StepDist:         cfg.StepDist,
		}
		if cfg.InjectDelays {
			opt.Delays = plan
		}
		specs = append(specs, runSpec{round: round, testIdx: ti, test: test, opt: opt})
	}
	return specs
}
