package main

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"time"

	"sherlock/internal/apps"
	"sherlock/internal/core"
	"sherlock/internal/gen"
	"sherlock/internal/lp"
	"sherlock/internal/perturb"
	"sherlock/internal/prog"
	"sherlock/internal/sched"
	"sherlock/internal/solver"
	"sherlock/internal/trace"
	"sherlock/internal/window"
)

// The campaign workload: one client in a closed loop, each op one
// sequential core.Infer at the default config, cycling over a fixed mix.
// The workload seed is the campaigns' scheduler seed (core.Config.Seed):
// it changes every schedule, trace, window and LP, while the programs, and
// so the cost of the mix, stay the same from seed to seed.
const (
	// genPerCell generated apps per (profile, size) cell.
	genPerCell = 4
	// campaignLimit is the latency limit behind slo_ok_ratio: about ten
	// times the slowest app's campaign on a 2-CPU host.
	campaignLimit = 250 * time.Millisecond
)

// genSizes are the generated-app sizes in the campaign mix: the default
// size and a large one, whose classic-profile apps are solve-heavy.
var genSizes = []int{4, 16}

// campaignMix names the apps of the mix: the eight built-ins, then
// generated apps gen:1..gen:genPerCell for each profile and size.
func campaignMix() []string {
	names := apps.Names()
	for _, profile := range gen.Profiles {
		for _, size := range genSizes {
			for k := 1; k <= genPerCell; k++ {
				names = append(names, gen.Spec{Seed: int64(k), Profile: profile, Size: size}.Name())
			}
		}
	}
	return names
}

// builtins are the paper's applications, built fresh (the registry hands
// out one shared instance, which would make set-up a map lookup).
var builtins = map[string]func() *prog.Program{
	"App-1": apps.App1, "App-2": apps.App2, "App-3": apps.App3, "App-4": apps.App4,
	"App-5": apps.App5, "App-6": apps.App6, "App-7": apps.App7, "App-8": apps.App8,
}

// buildProgram constructs and finalizes a fresh program for a mix name.
func buildProgram(name string) (*prog.Program, error) {
	if mk, ok := builtins[name]; ok {
		p := mk()
		return p, p.Finalize()
	}
	spec, err := gen.Parse(name)
	if err != nil {
		return nil, err
	}
	return gen.New(spec), nil
}

// campaignSetup is the state the timed loop needs: the programs and each
// one's reference result from a Parallelism=1 campaign.
type campaignSetup struct {
	progs []*prog.Program
	refs  []*core.Result
}

func setupCampaign(ctx context.Context, names []string, seed int64) (*campaignSetup, error) {
	s := &campaignSetup{}
	cfg := campaignConfig(seed)
	cfg.Parallelism = 1
	for _, name := range names {
		p, err := buildProgram(name)
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", name, err)
		}
		res, err := core.Infer(ctx, p, cfg)
		if err != nil {
			return nil, fmt.Errorf("reference campaign %s: %w", name, err)
		}
		s.progs = append(s.progs, p)
		s.refs = append(s.refs, res)
	}
	return s, nil
}

// campaignConfig is the default campaign config under the workload seed,
// with Parallelism = nproc.
func campaignConfig(seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.Parallelism = runtime.NumCPU()
	return cfg
}

func runCampaign(ctx context.Context, o options) (*report, error) {
	names := campaignMix()
	var e endToEnd
	var s *campaignSetup
	for i := 0; i < setupReps; i++ {
		var prev []*core.Result
		if s != nil {
			prev, s = s.refs, nil
		}
		runtime.GC() // each set-up starts from the same heap
		w := startWatch()
		next, err := setupCampaign(ctx, names, o.seed)
		if err != nil {
			return nil, err
		}
		e.setup(w)
		for j := range prev {
			if !reflect.DeepEqual(next.refs[j].Inferred, prev[j].Inferred) {
				return nil, fmt.Errorf("%s: reference campaign differs between set-ups", names[j])
			}
		}
		s = next
	}
	rep := &report{record: map[string]any{
		"apps":             len(names),
		"latency_limit_ms": ms(campaignLimit),
		"parallelism":      runtime.NumCPU(),
	}}
	if o.traced {
		traceCampaign(ctx, o, s, rep)
		return rep, nil
	}

	cfg := campaignConfig(o.seed)
	e.limit = campaignLimit
	// The loop runs whole cycles of the mix, so every app weighs the same.
	runtime.GC()
	run := startWatch()
	for time.Since(run.wall) < o.length || rep.attempted < minOps {
		for k := range s.progs {
			rep.attempted++
			w := startWatch()
			res, err := core.Infer(ctx, s.progs[k], cfg)
			lat, cpu := w.elapsed()
			switch {
			case err != nil:
				rep.failOp("%s: %v", names[k], err)
			case !reflect.DeepEqual(res.Inferred, s.refs[k].Inferred):
				rep.fail("%s: inferred set differs from the Parallelism=1 reference", names[k])
			default:
				e.add(lat)
				e.cpus = append(e.cpus, cpu)
			}
		}
	}
	e.busy, e.busyCPU = run.elapsed()
	for k, p := range s.progs {
		e.quality.add(p, s.refs[k])
	}
	rep.metrics = e.metrics(rep)
	return rep, nil
}

// traceCampaign is the per-layer pass: every op runs the engine at
// Parallelism=1 and then replays the same campaign through the layers'
// public calls, timing each. It completes at least one full cycle of the
// mix, so the replay assertion covers every app.
func traceCampaign(ctx context.Context, o options, s *campaignSetup, rep *report) {
	cfg := campaignConfig(o.seed)
	cfg.Parallelism = 1
	var l campaignLayers
	var late []time.Duration
	start := time.Now()
	prevEnd := start
	for i := 0; i%len(s.progs) != 0 || i == 0 || time.Since(start) < o.length; i++ {
		k := i % len(s.progs)
		rep.attempted++
		late = append(late, time.Since(prevEnd))
		if _, err := l.op(ctx, s.progs[k], cfg); err != nil {
			rep.fail("%v", err)
		}
		prevEnd = time.Now()
	}
	vals := map[string]float64{"loadgen.late_ms_p95": ms(percentile(late, 0.95))}
	l.fill(vals)
	rep.metrics = layerMetrics(vals)
}

// campaignLayers sums the layer timings and counts of replayed campaigns.
type campaignLayers struct {
	ops                                   int
	engineTime, replayTime                time.Duration
	sched, window, perturb, solver        time.Duration
	runs, events, conflicts, windows      int
	candBefore, candAfter                 int
	solves, warm, pivots, presolved, rows int
}

// op runs one campaign through core.Infer and through the replay, asserts
// that both infer the same set, and returns the engine's result.
func (l *campaignLayers) op(ctx context.Context, p *prog.Program, cfg core.Config) (*core.Result, error) {
	t0 := time.Now()
	want, err := core.Infer(ctx, p, cfg)
	engine := time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	t1 := time.Now()
	got, err := l.replay(ctx, p, cfg)
	replay := time.Since(t1)
	if err != nil {
		return nil, fmt.Errorf("%s: replay: %w", p.Name, err)
	}
	if !reflect.DeepEqual(got, want.Inferred) {
		return nil, fmt.Errorf("%s: replayed campaign infers %d syncs, core.Infer %d: the replay no longer matches the engine", p.Name, len(got), len(want.Inferred))
	}
	l.ops++
	l.engineTime += engine
	l.replayTime += replay
	return want, nil
}

// replay re-executes core.Infer's round loop through the layers' public
// calls, in the engine's order: sched.RunContext → window.FindConflicts /
// BuildWindows → perturb.Refine → Observations.AddWindows/AddTraceStats →
// solver Encoder.Solve → perturb.BuildPlan. It copies the planner's seed
// formula and only covers the default feedback configuration; op compares
// the result with the engine's, so a change to the engine fails loudly
// instead of timing a different program.
func (l *campaignLayers) replay(ctx context.Context, p *prog.Program, cfg core.Config) ([]core.InferredSync, error) {
	if !cfg.Accumulate || !cfg.InjectDelays || cfg.ColdStart || cfg.StaticPriors != nil {
		return nil, fmt.Errorf("replay covers the default feedback configuration only")
	}
	acc := window.NewObservations(cfg.Window)
	enc := solver.NewEncoder(solverConfig(cfg))
	var (
		basis *lp.Basis
		plan  perturb.Plan
		last  *solver.Result
	)
	for round := 0; round < cfg.Rounds; round++ {
		for ti, test := range p.Tests {
			opt := sched.Options{
				Seed:             cfg.Seed + int64(round)*7919 + int64(ti)*127,
				HiddenMethods:    p.Truth.HiddenMethods,
				MaxSteps:         cfg.MaxStepsPerTest,
				DelayProbability: cfg.DelayProbability,
				StepDist:         cfg.StepDist,
				Delays:           plan,
			}
			t0 := time.Now()
			run, err := sched.RunContext(ctx, p, test, opt)
			l.sched += time.Since(t0)
			if err != nil {
				return nil, err
			}
			l.runs++
			l.events += run.Trace.Len()
			if run.Deadlocked {
				continue
			}
			t1 := time.Now()
			conflicts := window.FindConflicts(run.Trace, cfg.Window)
			ws := window.BuildWindows(run.Trace, conflicts)
			t2 := time.Now()
			refined := perturb.Refine(ws, run.Delays)
			l.perturb += time.Since(t2)
			l.window += t2.Sub(t1)
			l.conflicts += len(conflicts)
			l.windows += len(ws)
			l.candBefore += candidates(ws)
			l.candAfter += candidates(refined)
			acc.AddWindows(refined)
			acc.AddTraceStats(run.Trace)
		}
		t3 := time.Now()
		sr, b, err := enc.Solve(acc, basis)
		l.solver += time.Since(t3)
		if err != nil {
			return nil, err
		}
		basis = b
		last = sr
		l.solves++
		if sr.WarmStarted {
			l.warm++
		}
		l.pivots += sr.Iters
		l.presolved += sr.RowsPresolved
		l.rows += sr.Constraints
		t4 := time.Now()
		plan = perturb.BuildPlan(sr.ReleaseSet, cfg.Delay)
		l.perturb += time.Since(t4)
	}
	return inferredFrom(last), nil
}

// solverConfig resolves the solver config core derives from cfg.
func solverConfig(cfg core.Config) solver.Config {
	scfg := cfg.Solver
	scfg.KeepRacyWindows = !cfg.RemoveRacyMP
	if scfg.Parallelism == 0 {
		scfg.Parallelism = cfg.Parallelism
		if scfg.Parallelism == 0 {
			scfg.Parallelism = runtime.GOMAXPROCS(0)
		}
	}
	return scfg
}

// inferredFrom renders a solve's sets the way core.Infer reports them.
func inferredFrom(sr *solver.Result) []core.InferredSync {
	var out []core.InferredSync
	for _, k := range sr.AcquireSet {
		out = append(out, core.InferredSync{Key: k, Role: trace.RoleAcquire, Prob: sr.Acquires[k]})
	}
	for _, k := range sr.ReleaseSet {
		out = append(out, core.InferredSync{Key: k, Role: trace.RoleRelease, Prob: sr.Releases[k]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// candidates counts the release and acquire candidates of ws.
func candidates(ws []window.Window) int {
	n := 0
	for i := range ws {
		n += len(ws[i].RelEvents) + len(ws[i].AcqEvents)
	}
	return n
}

// fill writes the campaign-layer metrics. core.self_ms is the engine's
// time for the same campaigns minus what the replay spent inside the
// layers: the round loop, planning, merging and span bookkeeping.
func (l *campaignLayers) fill(vals map[string]float64) {
	busy := l.sched + l.window + l.perturb + l.solver
	vals["sched.busy_ms"] = perOp(l.sched, l.ops)
	vals["sched.runs"] = float64(l.runs) / float64(max(l.ops, 1))
	vals["sched.events"] = float64(l.events) / float64(max(l.ops, 1))
	vals["window.busy_ms"] = perOp(l.window, l.ops)
	vals["window.conflicts"] = float64(l.conflicts) / float64(max(l.ops, 1))
	vals["window.windows"] = float64(l.windows) / float64(max(l.ops, 1))
	vals["perturb.busy_ms"] = perOp(l.perturb, l.ops)
	vals["perturb.kept_ratio"] = ratio(l.candAfter, l.candBefore)
	vals["solver.busy_ms"] = perOp(l.solver, l.ops)
	vals["solver.pivots"] = float64(l.pivots) / float64(max(l.ops, 1))
	vals["solver.warm_ratio"] = ratio(l.warm, l.solves)
	vals["solver.presolve_row_ratio"] = ratio(l.presolved, l.rows)
	vals["core.self_ms"] = perOp(l.engineTime-busy, l.ops)
	if l.engineTime > 0 {
		vals["bench.trace_overhead_pct"] = 100 * (float64(l.replayTime)/float64(l.engineTime) - 1)
	}
}
