// Content-addressed job keys. A job's key is the SHA-256 of a canonical
// byte encoding of everything that determines its result: the workload
// (benchmark application name, or the corpus trace keys for offline jobs)
// and every result-relevant field of the effective inference Config,
// written in a fixed order with explicit field tags. Two properties make
// the scheme safe as a cache address:
//
//   - Deterministic across processes: the encoding never touches map
//     iteration order, pointers, or wall-clock state, so the same
//     workload+config hashes identically on every run of every binary.
//   - Execution-irrelevant knobs are excluded: Config.Parallelism is NOT
//     hashed because results are bit-identical for every worker-pool size
//     (a PR 1 invariant) — a 4-worker submission hits the cache entry a
//     16-worker submission populated. The Observer and ColdStart are
//     likewise excluded: they change cost, not results (the warm/cold
//     equivalence tests enforce the latter).
//
// The encoding is versioned (keyEncodingV1); changing what gets hashed
// must bump the version so stale keys can never alias new content.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"sherlock/internal/core"
	"sherlock/internal/prog"
	"sherlock/internal/sched"
	"sherlock/internal/static"
)

const keyEncodingV1 = "sherlock-job-v1"

// JobKey computes the content address of a job: the workload from spec
// (App, StaticApp, or TraceKeys) plus the effective, fully resolved
// inference config.
func JobKey(spec JobSpec, cfg core.Config) string {
	h := sha256.New()
	io.WriteString(h, keyEncodingV1+"\n")
	switch {
	case spec.App != "":
		fmt.Fprintf(h, "kind=app\napp=%s\n", spec.App)
	case spec.StaticApp != "":
		fmt.Fprintf(h, "kind=static\napp=%s\n", spec.StaticApp)
	default:
		// Corpus keys are themselves content addresses (SHA-256 of each
		// trace's canonical encoding), so hashing the key list is hashing
		// the trace contents — resubmitting the same stored traces hits
		// the same cache entry regardless of which daemon ingested them.
		fmt.Fprintf(h, "kind=corpus\nkeys=%d\n", len(spec.TraceKeys))
		for _, k := range spec.TraceKeys {
			fmt.Fprintf(h, "key=%s\n", k)
		}
	}
	writeConfig(h, cfg)
	return hex.EncodeToString(h.Sum(nil))
}

// staticKeyEncodingV1 versions static-report content addresses.
const staticKeyEncodingV1 = "sherlock-static-report-v1"

// StaticReportKey computes the content address of a static inference
// report. Unlike campaign keys it hashes the PROGRAM (via the static
// package's structural hash), not just the app name, so a report computed
// by one build can never answer for a differently shaped program under the
// same name; and it hashes only the config fields a run-free solve reads —
// rounds, seeds, and delays are execution knobs and would fracture the
// cache for no reason.
func StaticReportKey(app *prog.Program, cfg core.Config) (string, error) {
	ph, err := static.ProgramHash(app)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\napp=%s\nprogram=%s\n", staticKeyEncodingV1, app.Name, ph)
	fmt.Fprintf(h, "window.near=%d\n", cfg.Window.Near)
	fmt.Fprintf(h, "window.perpaircap=%d\n", cfg.Window.PerPairCap)
	fmt.Fprintf(h, "window.unsafeapis=%t\n", cfg.Window.UseUnsafeAPIs)
	fmt.Fprintf(h, "solver.lambda=%g\n", cfg.Solver.Lambda)
	fmt.Fprintf(h, "solver.rarecoef=%g\n", cfg.Solver.RareCoef)
	fmt.Fprintf(h, "solver.threshold=%g\n", cfg.Solver.Threshold)
	hyp := cfg.Solver.Hyp
	// AcqTimeVaries is omitted: InferStatic forces it off (no durations
	// without execution), so it can never distinguish two static reports.
	fmt.Fprintf(h, "solver.hyp=%t,%t,%t,%t,%t\n",
		hyp.MostlyProtected, hyp.SyncsAreRare,
		hyp.MostlyPaired, hyp.ReadAcqWriteRel, hyp.SingleRole)
	fmt.Fprintf(h, "solver.softsinglerole=%t\n", cfg.Solver.SoftSingleRole)
	fmt.Fprintf(h, "solver.maxlpiters=%d\n", cfg.Solver.MaxLPIters)
	fmt.Fprintf(h, "removeracymp=%t\n", cfg.RemoveRacyMP)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// writeConfig streams every result-relevant Config field with a stable tag.
// Floats use %g (shortest round-trip form, deterministic in Go).
func writeConfig(w io.Writer, cfg core.Config) {
	fmt.Fprintf(w, "rounds=%d\n", cfg.Rounds)
	fmt.Fprintf(w, "window.near=%d\n", cfg.Window.Near)
	fmt.Fprintf(w, "window.perpaircap=%d\n", cfg.Window.PerPairCap)
	fmt.Fprintf(w, "window.unsafeapis=%t\n", cfg.Window.UseUnsafeAPIs)
	fmt.Fprintf(w, "solver.lambda=%g\n", cfg.Solver.Lambda)
	fmt.Fprintf(w, "solver.rarecoef=%g\n", cfg.Solver.RareCoef)
	fmt.Fprintf(w, "solver.threshold=%g\n", cfg.Solver.Threshold)
	hyp := cfg.Solver.Hyp
	fmt.Fprintf(w, "solver.hyp=%t,%t,%t,%t,%t,%t\n",
		hyp.MostlyProtected, hyp.SyncsAreRare, hyp.AcqTimeVaries,
		hyp.MostlyPaired, hyp.ReadAcqWriteRel, hyp.SingleRole)
	fmt.Fprintf(w, "solver.keepracy=%t\n", cfg.Solver.KeepRacyWindows)
	fmt.Fprintf(w, "solver.softsinglerole=%t\n", cfg.Solver.SoftSingleRole)
	fmt.Fprintf(w, "solver.maxlpiters=%d\n", cfg.Solver.MaxLPIters)
	fmt.Fprintf(w, "delay=%d\n", cfg.Delay)
	fmt.Fprintf(w, "delayprob=%g\n", cfg.DelayProbability)
	fmt.Fprintf(w, "seed=%d\n", cfg.Seed)
	fmt.Fprintf(w, "accumulate=%t\n", cfg.Accumulate)
	fmt.Fprintf(w, "injectdelays=%t\n", cfg.InjectDelays)
	fmt.Fprintf(w, "removeracymp=%t\n", cfg.RemoveRacyMP)
	fmt.Fprintf(w, "maxsteps=%d\n", cfg.MaxStepsPerTest)
	// The scheduler step distribution joins the key only when it departs
	// from the classic uniform draw ("" and sched.DistUniform dispatch
	// identically), so every pre-dist job key — and the cache entries
	// filed under them — stays addressable.
	if cfg.StepDist != "" && cfg.StepDist != sched.DistUniform {
		fmt.Fprintf(w, "sched.dist=%s\n", cfg.StepDist)
	}
	// Parallelism, ColdStart and the Observer intentionally omitted:
	// they affect cost, not results.
}
