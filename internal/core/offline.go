// Offline inference: solve directly from previously captured traces, with
// no re-execution and hence no Perturber feedback. This mirrors the paper's
// log-analysis step in isolation (Artifact Appendix: "Analyzing the log
// generated by testing runs and reporting identified synchronization
// operations") and lets library consumers bring traces from their own
// instrumentation.
package core

import (
	"context"
	"fmt"
	"time"

	"sherlock/internal/obs"
	"sherlock/internal/solver"
	"sherlock/internal/trace"
	"sherlock/internal/window"
)

// TraceSource streams previously captured traces into the offline solve.
// Implementations call yield once per trace, in a deterministic order,
// and stop on the first yield error. A slice of in-memory traces is the
// trivial source (InferFromTraces); a content-addressed corpus that
// decodes one trace at a time (internal/store.Corpus.Source) satisfies
// the interface structurally, keeping inference memory bounded by the
// largest single trace rather than the corpus.
type TraceSource interface {
	Traces(ctx context.Context, yield func(*trace.Trace) error) error
}

// SliceSource adapts in-memory traces to TraceSource.
type SliceSource []*trace.Trace

// Traces yields each trace in slice order, checking ctx between traces.
func (s SliceSource) Traces(ctx context.Context, yield func(*trace.Trace) error) error {
	for _, tr := range s {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := yield(tr); err != nil {
			return err
		}
	}
	return nil
}

// InferFromTraces runs window extraction and one solve over the given
// in-memory traces. It is a thin wrapper over InferFromSource with a
// SliceSource — one offline-solve code path; see InferFromSource, the
// primary offline entrypoint, for the semantics.
func InferFromTraces(ctx context.Context, traces []*trace.Trace, cfg Config) (*Result, error) {
	return InferFromSource(ctx, SliceSource(traces), cfg)
}

// InferFromSource is the primary offline entrypoint: it streams traces
// from src — each trace is folded into the observations and released
// before the next is decoded, so memory stays bounded by the largest
// single trace — and solves once at the end. Only cfg.Window, cfg.Solver,
// cfg.RemoveRacyMP and the observability fields (Observer,
// DisableTracing) apply; rounds, seeds and delay settings are meaningless
// offline. ctx cancels between traces.
func InferFromSource(ctx context.Context, src TraceSource, cfg Config) (*Result, error) {
	res := &Result{}
	acc := window.NewObservations(cfg.Window)
	tr := cfg.tracer()
	root := tr.Root("offline", "")
	defer root.End()
	n := 0
	err := src.Traces(ctx, func(t *trace.Trace) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if n == 0 {
			res.App = t.App
		}
		span := root.Childf("trace:%03d", n)
		n++
		conflicts := window.FindConflicts(t, cfg.Window)
		ws := window.BuildWindows(t, conflicts)
		acc.AddWindows(ws)
		acc.AddTraceStats(t)
		res.Overhead.Events += t.Len()
		span.Annotate(
			obs.Str("app", t.App),
			obs.Str("test", t.Test),
			obs.Int64("seed", t.Seed),
			obs.Int("events", t.Len()),
			obs.Int("windows", len(ws)))
		span.End()
		return nil
	})
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("core: no traces to analyze")
	}

	root.Annotate(obs.Int("traces", n))
	if err := solveOffline(res, acc, cfg, root); err != nil {
		return nil, fmt.Errorf("core: offline solve: %w", err)
	}
	return res, nil
}

// solveOffline ends every offline inference, InferFromSource and
// InferIncremental alike: one cold solve of acc by a fresh encoder, whose
// final state and single round it records in res. Both paths end here in
// the same steps and order, so their results are equal whenever their
// accumulators are.
func solveOffline(res *Result, acc *window.Observations, cfg Config, root *obs.Span) error {
	t0 := time.Now()
	sr, _, err := solver.NewEncoder(cfg.solverConfig()).SolveSpan(acc, nil, root)
	res.Overhead.SolveWall = time.Since(t0)
	if err != nil {
		return err
	}
	res.setFinal(sr, len(acc.Windows))
	res.Rounds = []RoundSnapshot{{
		Round:    1,
		Acquires: append([]trace.Key(nil), sr.AcquireSet...),
		Releases: append([]trace.Key(nil), sr.ReleaseSet...),
		Windows:  len(acc.Windows),
	}}
	root.Annotate(
		obs.Int("windows", len(acc.Windows)),
		obs.Int("vars", sr.Vars),
		obs.Int("constraints", sr.Constraints))
	cfg.notifyRound(res.Rounds[0], acc)
	return nil
}
