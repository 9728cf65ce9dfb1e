// Command bench measures the solver's cross-round warm-starting against
// the cold-start path on multi-round campaigns and writes the numbers to
// a JSON file, so the speedup can be tracked across commits and asserted
// by CI without parsing `go test -bench` output.
//
// The solver sweep covers every registered application: each app's
// campaign produces per-round observation snapshots, each round encoded
// and solved cold (fresh encoding, cold basis) and warm (incremental
// encoder, previous round's basis re-optimized by dual simplex). Both
// paths produce identical inference results; only the cost differs. The
// file records, per app and in aggregate: wall clock, simplex pivots
// (with the dual-pivot share), cold pivot throughput (pivots_per_sec),
// and the fraction of rows/columns presolve eliminated. -min-pivot-rate
// turns the aggregate cold throughput into a CI gate.
//
// It also measures the serving layer (cmd/sherlockd's internals driven
// over real HTTP): cold submissions that run a fresh campaign vs.
// cache-hit resubmissions answered from the content-addressed result
// cache, written to a second JSON file, and the trace store (binary codec
// size and throughput against JSON lines over the full 8-app corpus),
// written to a third. Together the files record the perf trajectory of
// the solver, the serving path, and the trace codec.
//
// Usage:
//
//	bench [-rounds 6] [-reps 5] [-out BENCH_solver.json] [-min-pivot-rate 0]
//	      [-app App-1]
//	      [-server-out BENCH_server.json] [-server-jobs 16]
//	      [-store-out BENCH_store.json]
//	      [-obs-out BENCH_obs.json] [-obs-reps 7] [-obs-max-pct 5]
//	      [-incr-out BENCH_incremental.json] [-incr-base 160] [-incr-reps 5]
//	      [-incr-min-speedup 3] [-incr-max-fold-growth 2]
//	      [-static-out BENCH_static.json] [-static-rounds 3] [-static-gate]
//	      [-gen-out BENCH_gen.json] [-gen-n 100] [-gen-rounds 3] [-gen-gate]
//
// -app selects the workload of the server/obs/incremental measurements;
// the solver and static sweeps always cover all apps, and the gen sweep
// scores -gen-n procedurally generated apps against their machine-
// readable ground truth. Each -*out flag names that suite's output file
// and selects the suite; every one defaults to empty (skip), so a run
// measures exactly the suites it names, and naming none exits 2.
// -obs-max-pct, -incr-min-speedup, -incr-max-fold-growth, -static-gate,
// -gen-gate and -min-pivot-rate turn their records into CI gates
// (non-zero exit on breach).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"sherlock/internal/apps"
	"sherlock/internal/core"
	"sherlock/internal/lp"
	"sherlock/internal/solver"
	"sherlock/internal/window"
)

// appResult is one application's row in the solver benchmark file. Times
// are the best-of-reps wall clock for one full campaign's worth of solves,
// in nanoseconds; PivotsPerSec is the cold-path pivot throughput over that
// best rep (total simplex pivots / cold seconds). The presolve ratios are
// the fraction of constraint rows / variables eliminated before any
// pivoting, summed over the campaign's rounds.
type appResult struct {
	App          string  `json:"app"`
	ColdNs       int64   `json:"cold_ns"`
	WarmNs       int64   `json:"warm_ns"`
	Speedup      float64 `json:"speedup"`
	ColdIters    int     `json:"cold_iters"`
	WarmIters    int     `json:"warm_iters"`
	DualIters    int     `json:"dual_iters"`
	WarmRounds   int     `json:"warm_rounds"`
	PivotsPerSec float64 `json:"pivots_per_sec"`

	PresolveRowRatio float64 `json:"presolve_row_ratio"`
	PresolveColRatio float64 `json:"presolve_col_ratio"`
}

// aggregate sums the per-app campaigns: total wall clock, overall speedup,
// and pivot throughput across the whole 8-app sweep.
type aggregate struct {
	ColdNs           int64   `json:"cold_ns"`
	WarmNs           int64   `json:"warm_ns"`
	Speedup          float64 `json:"speedup"`
	ColdIters        int     `json:"cold_iters"`
	WarmIters        int     `json:"warm_iters"`
	DualIters        int     `json:"dual_iters"`
	PivotsPerSec     float64 `json:"pivots_per_sec"`
	PresolveRowRatio float64 `json:"presolve_row_ratio"`
	PresolveColRatio float64 `json:"presolve_col_ratio"`
}

// result is the BENCH_solver.json schema: the all-app sweep plus its
// aggregate. (Earlier revisions measured App-1 only with the aggregate
// fields at top level; consumers are the README tables and the CI
// -min-pivot-rate gate, both updated with the schema.)
type result struct {
	Rounds    int         `json:"rounds"`
	Reps      int         `json:"reps"`
	Apps      []appResult `json:"apps"`
	Aggregate aggregate   `json:"aggregate"`
}

func main() {
	var (
		appName      = flag.String("app", "App-1", "application to campaign on")
		rounds       = flag.Int("rounds", 6, "campaign rounds")
		reps         = flag.Int("reps", 5, "repetitions (best is reported)")
		out          = flag.String("out", "", "solver benchmark output file (empty = skip)")
		serverOut    = flag.String("server-out", "", "server benchmark output file (empty = skip)")
		serverJobs   = flag.Int("server-jobs", 16, "cold/hit submissions per server measurement")
		storeOut     = flag.String("store-out", "", "trace-store benchmark output file (empty = skip)")
		obsOut       = flag.String("obs-out", "", "tracing-overhead benchmark output file (empty = skip)")
		obsReps      = flag.Int("obs-reps", 7, "campaign repetitions per tracing mode (best is reported)")
		obsMaxPct    = flag.Float64("obs-max-pct", 0, "fail (exit 1) if no-sink tracing overhead exceeds this percentage (0 = record only)")
		incrOut      = flag.String("incr-out", "", "incremental-inference benchmark output file (empty = skip)")
		incrBase     = flag.Int("incr-base", 160, "checkpointed base corpus size in traces")
		incrReps     = flag.Int("incr-reps", 5, "repetitions per incremental point (best is reported)")
		incrMinSpd   = flag.Float64("incr-min-speedup", 0, "fail (exit 1) if the +1-trace incremental speedup falls below this (0 = record only)")
		incrMaxFG    = flag.Float64("incr-max-fold-growth", 0, "fail (exit 1) if the +1-trace fold cost at the full base exceeds this multiple of the quarter-base cost (0 = record only)")
		staticOut    = flag.String("static-out", "", "static/refine inference benchmark output file (empty = skip)")
		staticRounds = flag.Int("static-rounds", 3, "campaign rounds for the static/refine sweep")
		staticGate   = flag.Bool("static-gate", false, "fail (exit 1) if any app's refine campaign diverges from dynamic or converges slower")
		genOut       = flag.String("gen-out", "", "generated-app benchmark output file (empty = skip)")
		genN         = flag.Int("gen-n", 100, "number of distinct generated applications to sweep")
		genRounds    = flag.Int("gen-rounds", 3, "campaign rounds per generated app")
		genGate      = flag.Bool("gen-gate", false, "fail (exit 1) if the sweep's aggregate non-race precision/recall fall below the floors (needs -gen-n >= 100)")
		minPivRate   = flag.Float64("min-pivot-rate", 0, "fail (exit 1) if the aggregate cold-solve pivot rate (pivots/sec) falls below this (0 = record only)")
		clusterOut   = flag.String("cluster-out", "", "cluster scaling benchmark output file (empty = skip)")
		clClients    = flag.Int("cluster-clients", 24, "concurrent clients driving the cluster")
		clRequests   = flag.Int("cluster-requests", 6000, "total requests per cluster size")
		clKeys       = flag.Int("cluster-keys", 600, "distinct content keys in the zipfian keyspace")
		clCache      = flag.Int("cluster-cache", 200, "result cache capacity per node (entries)")
		clZipfS      = flag.Float64("cluster-zipf", 1.02, "zipf exponent of the key popularity distribution (>1)")
		clZipfV      = flag.Float64("cluster-zipf-v", 0, "zipf rank offset; larger flattens the head (0 = keys)")
		clMinSpeed   = flag.Float64("cluster-min-speedup", 0, "fail (exit 1) if 4-node throughput is below this multiple of 1-node (0 = record only)")
	)
	flag.Parse()
	if *out+*serverOut+*storeOut+*obsOut+*incrOut+*staticOut+*genOut+*clusterOut == "" {
		fmt.Fprintln(os.Stderr, "bench: no suite selected; name at least one suite's output file (-out, -server-out, -store-out, ...)")
		flag.Usage()
		os.Exit(2)
	}

	if *out != "" {
		die(benchSolver(*out, *rounds, *reps, *minPivRate))
	}
	if *serverOut != "" {
		die(benchServer(*serverOut, *appName, *serverJobs))
	}
	if *storeOut != "" {
		die(benchStore(*storeOut, *reps))
	}
	if *obsOut != "" {
		die(benchObs(*obsOut, *appName, *rounds, *obsReps, *obsMaxPct))
	}
	if *incrOut != "" {
		die(benchIncr(*incrOut, *appName, *incrBase, *incrReps, *incrMinSpd, *incrMaxFG))
	}
	if *staticOut != "" {
		die(benchStatic(*staticOut, *staticRounds, *staticGate))
	}
	if *genOut != "" {
		die(benchGen(*genOut, *genN, *genRounds, *genGate))
	}
	if *clusterOut != "" {
		die(benchCluster(*clusterOut, *clClients, *clRequests, *clKeys, *clCache, *clZipfS, *clZipfV, *clMinSpeed))
	}
}

// benchSolver sweeps every registered application: each app's campaign is
// replayed round by round, solved cold (fresh encoding, cold basis) and
// warm (incremental encoder, previous basis re-optimized by dual simplex),
// and the per-app and aggregate numbers are written to the result file.
// A non-zero minPivotRate turns the aggregate cold pivot throughput into a
// CI gate: falling below it is an error (exit 1 in main).
func benchSolver(out string, rounds, reps int, minPivotRate float64) error {
	res := result{Rounds: rounds, Reps: reps}
	for _, appName := range apps.Names() {
		ar, err := benchSolverApp(appName, rounds, reps)
		if err != nil {
			return fmt.Errorf("%s: %w", appName, err)
		}
		res.Apps = append(res.Apps, ar)
		res.Aggregate.ColdNs += ar.ColdNs
		res.Aggregate.WarmNs += ar.WarmNs
		res.Aggregate.ColdIters += ar.ColdIters
		res.Aggregate.WarmIters += ar.WarmIters
		res.Aggregate.DualIters += ar.DualIters
	}
	res.Aggregate.Speedup = float64(res.Aggregate.ColdNs) / float64(res.Aggregate.WarmNs)
	res.Aggregate.PivotsPerSec = float64(res.Aggregate.ColdIters) / (float64(res.Aggregate.ColdNs) / 1e9)
	// Size-weighted presolve ratios: weight each app by its cold pivots so
	// the aggregate reflects where the solve time actually goes.
	var rowSum, colSum, wSum float64
	for _, ar := range res.Apps {
		w := float64(ar.ColdIters)
		if w == 0 {
			w = 1
		}
		rowSum += w * ar.PresolveRowRatio
		colSum += w * ar.PresolveColRatio
		wSum += w
	}
	res.Aggregate.PresolveRowRatio = rowSum / wSum
	res.Aggregate.PresolveColRatio = colSum / wSum

	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		return err
	}
	for _, ar := range res.Apps {
		fmt.Printf("%s: %s cold %.1fms (%d pivots, %.0f pivots/s) vs warm %.1fms (%d pivots, %d dual, %d/%d rounds warm): %.2fx; presolve -%.0f%% rows -%.0f%% cols\n",
			out, ar.App, float64(ar.ColdNs)/1e6, ar.ColdIters, ar.PivotsPerSec,
			float64(ar.WarmNs)/1e6, ar.WarmIters, ar.DualIters, ar.WarmRounds, rounds, ar.Speedup,
			100*ar.PresolveRowRatio, 100*ar.PresolveColRatio)
	}
	fmt.Printf("%s: aggregate cold %.1fms vs warm %.1fms: %.2fx, %.0f pivots/s cold\n",
		out, float64(res.Aggregate.ColdNs)/1e6, float64(res.Aggregate.WarmNs)/1e6,
		res.Aggregate.Speedup, res.Aggregate.PivotsPerSec)
	if minPivotRate > 0 && res.Aggregate.PivotsPerSec < minPivotRate {
		return fmt.Errorf("aggregate cold pivot rate %.0f/s below the -min-pivot-rate gate %.0f/s",
			res.Aggregate.PivotsPerSec, minPivotRate)
	}
	return nil
}

// benchSolverApp measures one application's campaign cold and warm.
func benchSolverApp(appName string, rounds, reps int) (appResult, error) {
	ar := appResult{App: appName}
	app, err := apps.ByName(appName)
	if err != nil {
		return ar, err
	}
	cfg := core.DefaultConfig()
	cfg.Rounds = rounds
	var snaps []*window.Observations
	cfg.Observer = core.ObserverFuncs{OnRound: func(_ core.RoundSnapshot, obs *window.Observations) {
		snaps = append(snaps, obs.Clone())
	}}
	if _, err := core.Infer(context.Background(), app, cfg); err != nil {
		return ar, err
	}
	scfg := cfg.Solver
	scfg.KeepRacyWindows = !cfg.RemoveRacyMP

	for rep := 0; rep < reps; rep++ {
		iters, presRows, presCols, rows, cols := 0, 0, 0, 0, 0
		t0 := time.Now()
		for _, obs := range snaps {
			sr, err := solver.Solve(obs, scfg)
			if err != nil {
				return ar, err
			}
			iters += sr.Iters
			presRows += sr.RowsPresolved
			presCols += sr.ColsPresolved
			rows += sr.Constraints
			cols += sr.Vars
		}
		if d := time.Since(t0); rep == 0 || d.Nanoseconds() < ar.ColdNs {
			ar.ColdNs = d.Nanoseconds()
		}
		ar.ColdIters = iters
		if rows > 0 {
			ar.PresolveRowRatio = float64(presRows) / float64(rows)
		}
		if cols > 0 {
			ar.PresolveColRatio = float64(presCols) / float64(cols)
		}
	}
	shell := &window.Observations{}
	for rep := 0; rep < reps; rep++ {
		iters, dualIters, warmRounds := 0, 0, 0
		enc := solver.NewEncoder(scfg)
		var basis *lp.Basis
		t0 := time.Now()
		for _, snap := range snaps {
			*shell = *snap
			sr, bs, err := enc.Solve(shell, basis)
			if err != nil {
				return ar, err
			}
			basis = bs
			iters += sr.Iters
			dualIters += sr.DualIters
			if sr.WarmStarted {
				warmRounds++
			}
		}
		if d := time.Since(t0); rep == 0 || d.Nanoseconds() < ar.WarmNs {
			ar.WarmNs = d.Nanoseconds()
		}
		ar.WarmIters, ar.DualIters, ar.WarmRounds = iters, dualIters, warmRounds
	}
	ar.Speedup = float64(ar.ColdNs) / float64(ar.WarmNs)
	ar.PivotsPerSec = float64(ar.ColdIters) / (float64(ar.ColdNs) / 1e9)
	return ar, nil
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
