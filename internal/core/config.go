// Campaign configuration and validation.
package core

import (
	"errors"
	"fmt"
	"runtime"

	"sherlock/internal/perturb"
	"sherlock/internal/sched"
	"sherlock/internal/solver"
	"sherlock/internal/window"
)

// Config tunes one inference campaign.
type Config struct {
	// Rounds is the number of times each test input is executed (paper
	// default: 3; Figure 4 sweeps 1–6).
	Rounds int
	// Window configures conflict pairing and window extraction.
	Window window.Config
	// Solver configures the constraint encoding.
	Solver solver.Config
	// Delay is the perturbation length in virtual ns.
	Delay int64
	// DelayProbability injects each planned delay with this probability
	// per dynamic instance (0 or 1 = always, the paper's default).
	DelayProbability float64
	// Seed is the base scheduler seed; each (round, test) derives its own.
	Seed int64

	// StepDist selects the scheduler's per-statement dispatch-latency
	// distribution ("" or sched.DistUniform for the classic uniform
	// draw; sched.DistZipf / sched.DistBursty sample heavy-tailed or
	// clustered stalls so rare interleaving windows surface in fewer
	// rounds). Campaigns stay bit-for-bit deterministic for any fixed
	// distribution.
	StepDist string

	// Parallelism bounds the worker pool that executes the per-test
	// scheduler runs of each round (and the per-application campaigns of
	// InferAll). 0 means runtime.GOMAXPROCS(0). Results are bit-identical
	// for every Parallelism value: each run is independently seeded and
	// the per-run observations are merged in test order.
	Parallelism int

	// Feedback toggles (Figure 4's ablations). All default true via
	// DefaultConfig.
	Accumulate   bool // keep observations from earlier rounds
	InjectDelays bool // run the Perturber at all
	RemoveRacyMP bool // drop Mostly-Protected terms on data-race observations

	// MaxStepsPerTest bounds each simulated test (0 = scheduler default).
	MaxStepsPerTest int

	// StaticPriors is a tombstone of the removed refine mode. It has no
	// effect, and no package outside core can make it non-nil: its type
	// is unexported. It stays only because perfbench still compares it
	// with nil; delete it together with that comparison.
	StaticPriors *removedPriors

	// ColdStart disables cross-round solver reuse: every round encodes from
	// scratch and solves the LP from a cold basis, exactly like the
	// pre-warm-starting engine. Results are identical either way (the
	// equivalence tests enforce it); the toggle exists for benchmarking and
	// for bisecting solver issues.
	ColdStart bool

	// Observer, when non-nil, receives the campaign's full observability
	// stream: every span/counter event of the campaign trace plus each
	// round's solved snapshot; see the Observer interface.
	Observer Observer

	// DisableTracing turns span construction off entirely: the engine runs
	// with a nil tracer and every span operation is inert. Tracing with no
	// Observer costs a few percent of a campaign's CPU time (cmd/bench
	// -suite obs gates it at 5%); this toggle exists for that benchmark's
	// baseline and for ruling tracing out when bisecting performance.
	DisableTracing bool
}

// removedPriors is the type of the Config.StaticPriors tombstone.
type removedPriors struct{}

// DefaultConfig mirrors the paper's default operating point.
func DefaultConfig() Config {
	return Config{
		Rounds:       3,
		Window:       window.DefaultConfig(),
		Solver:       solver.DefaultConfig(),
		Delay:        perturb.DefaultDelay,
		Seed:         1,
		Accumulate:   true,
		InjectDelays: true,
		RemoveRacyMP: true,
	}
}

// Validate checks the configuration and reports every problem at once,
// joined with errors.Join (errors.Is/As still match the individual
// fmt.Errorf values). A nil return means the campaign can run.
func (c Config) Validate() error {
	var errs []error
	if c.Rounds <= 0 {
		errs = append(errs, fmt.Errorf("Rounds must be positive, got %d", c.Rounds))
	}
	if c.DelayProbability < 0 || c.DelayProbability > 1 {
		errs = append(errs, fmt.Errorf("DelayProbability must be in [0,1], got %g", c.DelayProbability))
	}
	if c.Parallelism < 0 {
		errs = append(errs, fmt.Errorf("Parallelism must be non-negative, got %d", c.Parallelism))
	}
	if c.InjectDelays && c.Delay <= 0 {
		errs = append(errs, fmt.Errorf("Delay must be positive when InjectDelays is set, got %d", c.Delay))
	}
	if c.MaxStepsPerTest < 0 {
		errs = append(errs, fmt.Errorf("MaxStepsPerTest must be non-negative, got %d", c.MaxStepsPerTest))
	}
	if !sched.ValidDist(c.StepDist) {
		errs = append(errs, fmt.Errorf("StepDist must be one of %q, got %q", sched.Dists, c.StepDist))
	}
	if len(errs) == 0 {
		return nil
	}
	return errors.Join(errs...)
}

// workers resolves Parallelism to the effective pool size.
func (c Config) workers() int {
	if c.Parallelism > 0 {
		return c.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// solverConfig resolves the solver settings every entrypoint shares: racy
// windows keep their Mostly-Protected terms unless RemoveRacyMP, and a
// zero Parallelism takes the worker count (LP component fan-out is
// bit-identical at any width).
func (c Config) solverConfig() solver.Config {
	scfg := c.Solver
	scfg.KeepRacyWindows = !c.RemoveRacyMP
	if scfg.Parallelism == 0 {
		scfg.Parallelism = c.workers()
	}
	return scfg
}
