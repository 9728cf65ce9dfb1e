// Incremental offline inference: extend a Checkpoint with newly ingested
// traces and re-solve. The result contract is exact: InferIncremental
// returns byte-identical results (modulo wall-clock overhead fields) to
// InferFromSource over the same trace set in sorted-key order, for any
// arrival order and with duplicate deliveries ignored. It holds by
// construction: the fold advances an accumulator equal to the one a
// sorted replay builds (see checkpoint.go), and both entrypoints end in
// the same cold solve (solveOffline). A fold carries no LP basis: a solve
// warm-started from the previous fold's basis can end on another optimal
// basis of a degenerate vertex, and read a probability off it that
// differs in its last bit.
package core

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"sherlock/internal/obs"
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
// must be NewCheckpoint's or one InferIncremental returned, under a config
// with the same ConfigSignature. A checkpoint assembled from the exported
// fields of another is rejected: the accumulator it would need lives only
// in the checkpoint InferIncremental returned. Traces whose keys the
// checkpoint already covers are skipped — duplicate deliveries are free —
// and if nothing new arrives the checkpoint's stored result is returned
// as-is. Otherwise the fresh extracts are folded into a copy of the
// checkpoint's canonical observation accumulator, O(new traces), and
// solved cold. ck itself is never mutated; the advanced state is the
// returned checkpoint. Config use mirrors InferFromSource: only Window,
// Solver, RemoveRacyMP and the observability fields apply.
func InferIncremental(ctx context.Context, ck *Checkpoint, src KeyedSource, cfg Config) (*Result, *Checkpoint, error) {
	if ck == nil {
		ck = NewCheckpoint(cfg)
	}
	if sig := ConfigSignature(cfg); ck.ConfigSig != sig {
		return nil, nil, fmt.Errorf("core: incremental: checkpoint config signature %s does not match config %s", ck.ConfigSig, sig)
	}
	if len(ck.Extracts) > 0 && ck.acc == nil {
		return nil, nil, fmt.Errorf("core: incremental: checkpoint holds no accumulator; start from NewCheckpoint or a checkpoint InferIncremental returned")
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
		return nil, nil, fmt.Errorf("core: no traces to analyze")
	}

	// Canonical fold: the accumulator's state under AddWindowsCanonical is
	// a function of the extract set, not arrival order, so only the fresh
	// extracts need folding into a copy of the checkpoint's. The result is
	// bit-identical to replaying everything from scratch in sorted-key
	// order. Once folded, an extract keeps only its key and metadata: a
	// window canonical admission rejected or evicted is never admitted
	// again, so no later fold reads it.
	acc := window.NewObservations(cfg.Window)
	if ck.acc != nil {
		acc = ck.acc.Clone()
	}
	byKey := func(a, b TraceExtract) int { return strings.Compare(a.Key, b.Key) }
	slices.SortFunc(fresh, byKey)
	for i := range fresh {
		fresh[i].fold(acc)
	}
	next := &Checkpoint{ConfigSig: ck.ConfigSig, acc: acc}
	next.Extracts = append(slices.Clip(ck.Extracts), fresh...)
	slices.SortFunc(next.Extracts, byKey)

	res := &Result{App: next.Extracts[0].App}
	for _, x := range next.Extracts {
		res.Overhead.Events += x.Events
	}
	root.Annotate(
		obs.Int("covered", len(ck.Extracts)),
		obs.Int("fresh", len(fresh)))
	if err := solveOffline(res, acc, cfg, root); err != nil {
		return nil, nil, fmt.Errorf("core: incremental solve: %w", err)
	}
	next.Result = res
	return res, next, nil
}
