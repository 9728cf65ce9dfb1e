// Incremental offline inference: extend a Checkpoint with newly ingested
// traces and re-solve warm from its basis instead of cold-starting. The
// result contract is exact: InferIncremental returns byte-identical
// results (modulo wall-clock overhead fields) to InferFromSource over the
// same trace set in sorted-key order, for any arrival order and with
// duplicate deliveries ignored — see checkpoint.go for why the replay
// construction guarantees it. One known exception breaks it: App-5's
// traces captured at seed 2, folded one at a time, end on another
// optimal basis of the same degenerate vertex from fold 43 on, and one
// probability differs from a from-scratch solve in its last bit
// (ROADMAP item 1).
package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"sherlock/internal/obs"
	"sherlock/internal/solver"
	"sherlock/internal/trace"
	"sherlock/internal/window"
)

// KeyedSource streams traces along with their corpus content addresses.
// internal/store.Source satisfies it structurally (KeyedTraces), the same
// way it satisfies TraceSource.
type KeyedSource interface {
	KeyedTraces(ctx context.Context, yield func(key string, t *trace.Trace) error) error
}

// KeyedTrace pairs an in-memory trace with its content address.
type KeyedTrace struct {
	Key   string
	Trace *trace.Trace
}

// KeyedSlice adapts in-memory keyed traces to KeyedSource.
type KeyedSlice []KeyedTrace

// KeyedTraces yields each trace in slice order, checking ctx between traces.
func (s KeyedSlice) KeyedTraces(ctx context.Context, yield func(string, *trace.Trace) error) error {
	for _, kt := range s {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := yield(kt.Key, kt.Trace); err != nil {
			return err
		}
	}
	return nil
}

// InferIncremental folds the traces streamed by src into ck and re-solves.
// A nil ck starts fresh (equivalent to NewCheckpoint(cfg)); a non-nil one
// must have been built under a config with the same ConfigSignature.
// Traces whose keys the checkpoint already covers are skipped — duplicate
// deliveries are free — and if nothing new arrives the checkpoint's stored
// result is returned as-is. Otherwise the fresh extracts are folded into
// the checkpoint's canonical observation accumulator — O(new traces) when
// the checkpoint carries its in-memory accumulator memo, one linear
// rebuild otherwise — and solved warm from the prior basis. ck itself is
// never mutated; the advanced state is the returned checkpoint. Config use mirrors InferFromSource: only Window,
// Solver, RemoveRacyMP and the observability fields apply.
func InferIncremental(ctx context.Context, ck *Checkpoint, src KeyedSource, cfg Config) (*Result, *Checkpoint, error) {
	if ck == nil {
		ck = NewCheckpoint(cfg)
	}
	if sig := ConfigSignature(cfg); ck.ConfigSig != sig {
		return nil, nil, fmt.Errorf("core: incremental: checkpoint config signature %s does not match config %s", ck.ConfigSig, sig)
	}

	tr := cfg.tracer()
	root := tr.Root("incremental", "")
	defer root.End()

	var fresh []TraceExtract
	seen := map[string]bool{}
	var stream KeyedSource = KeyedSlice(nil)
	if src != nil {
		stream = src
	}
	err := stream.KeyedTraces(ctx, func(key string, t *trace.Trace) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if key == "" {
			return fmt.Errorf("core: incremental: trace with empty key")
		}
		if ck.Covers(key) || seen[key] {
			return nil
		}
		seen[key] = true
		span := root.Childf("extract:%.12s", key)
		x := ExtractTrace(key, t, cfg.Window)
		span.Annotate(
			obs.Str("app", t.App),
			obs.Str("test", t.Test),
			obs.Int("events", t.Len()),
			obs.Int("windows", len(x.Windows)))
		span.End()
		fresh = append(fresh, x)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if len(fresh) == 0 {
		if ck.Result != nil {
			return ck.Result, ck, nil
		}
		if len(ck.Extracts) == 0 {
			return nil, nil, fmt.Errorf("core: no traces to analyze")
		}
		// A checkpoint with extracts but no stored result (hand-built or
		// stripped): fall through and solve what is covered.
	}

	next := &Checkpoint{ConfigSig: ck.ConfigSig}
	next.Extracts = make([]TraceExtract, 0, len(ck.Extracts)+len(fresh))
	next.Extracts = append(next.Extracts, ck.Extracts...)
	next.Extracts = append(next.Extracts, fresh...)
	sort.Slice(next.Extracts, func(i, j int) bool { return next.Extracts[i].Key < next.Extracts[j].Key })

	// Canonical fold: the accumulator's state under AddWindowsCanonical is
	// a function of the extract set, not arrival order, so only the fresh
	// extracts need folding — an O(new traces) step. A checkpoint carrying
	// a memoized accumulator (any checkpoint InferIncremental returned)
	// hands it over by clone; one built from the exported fields alone pays
	// a one-time replay of its covered extracts to rebuild the memo. Either
	// way the result is bit-identical to replaying everything from scratch
	// in sorted-key order.
	res := &Result{}
	var acc *window.Observations
	events := ck.accEvents
	if ck.acc != nil {
		acc = ck.acc.Clone()
	} else {
		acc = window.NewObservations(cfg.Window)
		events = 0
		for i := range ck.Extracts {
			x := &ck.Extracts[i]
			x.foldCanonical(acc)
			events += x.Events
		}
	}
	sort.Slice(fresh, func(i, j int) bool { return fresh[i].Key < fresh[j].Key })
	for i := range fresh {
		x := &fresh[i]
		x.foldCanonical(acc)
		events += x.Events
	}
	if len(next.Extracts) > 0 {
		res.App = next.Extracts[0].App
	}
	res.Overhead.Events = events
	root.Annotate(
		obs.Int("covered", len(ck.Extracts)),
		obs.Int("fresh", len(fresh)),
		obs.Int("windows", len(acc.Windows)))

	t0 := time.Now()
	sr, basis, err := solver.NewEncoder(cfg.solverConfig()).SolveSpan(acc, ck.Basis, root)
	res.Overhead.SolveWall = time.Since(t0)
	if err != nil {
		return nil, nil, fmt.Errorf("core: incremental solve: %w", err)
	}
	res.setFinal(sr, len(acc.Windows))
	res.Rounds = []RoundSnapshot{{
		Round:    1,
		Acquires: append([]trace.Key(nil), sr.AcquireSet...),
		Releases: append([]trace.Key(nil), sr.ReleaseSet...),
		Windows:  len(acc.Windows),
	}}
	cfg.notifyRound(res.Rounds[0], acc)

	next.Basis = basis
	next.Result = res
	next.acc = acc
	next.accEvents = events
	return res, next, nil
}
