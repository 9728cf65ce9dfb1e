// Checkpoints: the in-memory solved state of an offline inference, built
// for streaming re-solves over a growing trace corpus. A Checkpoint
// carries what InferIncremental reads to extend a previous solve when new
// traces arrive: the covered traces' content addresses and metadata, the
// canonical observation accumulator over them, and the last result (the
// rel/acq posteriors). It is never persisted: the corpus is the one
// durable store, and an extract is a pure function of (trace, window
// config), so a restarted process rebuilds the state by folding the
// covered keys from the corpus again.
//
// The design choice that makes incremental results byte-identical to a
// from-scratch solve regardless of upload order: accumulation happens
// under window.AddWindowsCanonical, whose state is a function of the SET
// of extracts folded — per-pair cap admissions resolve by canonical UID
// order with late-arrival eviction, and duration statistics are exact
// integer moments — so folding only the freshly delivered extracts into
// the checkpoint's accumulator lands on the identical bits a full sorted
// replay produces. Whatever order traces arrived in, the accumulator — and
// with it the LP — is the one a from-scratch solve over the full set
// builds, and InferIncremental solves it exactly as InferFromSource does:
// cold, with a fresh encoder. The accumulator is the whole input of the
// next fold; an extract's own windows and statistics are dropped once
// folded.
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strconv"

	"sherlock/internal/lp"
	"sherlock/internal/trace"
	"sherlock/internal/window"
)

// TraceExtract is one trace's contribution to inference, in foldable
// form: the windows FindConflicts+BuildWindows produce (before any
// cross-trace capping), the raw per-method duration samples, and the
// library-API names — exactly the inputs InferFromSource folds per trace.
// A checkpoint's Extracts hold only the key and metadata: fold drops the
// rest.
type TraceExtract struct {
	Key    string // corpus content address
	App    string
	Test   string
	Seed   int64
	Events int // trace length (Overhead.Events share)

	Windows   []window.Window
	Durations map[string][]float64
	LibAPIs   []string // sorted
}

// ExtractTrace computes a trace's extract under the given window config.
// Each window gets a UID of the FULL trace key and its ordinal, the
// order canonical admission ranks windows by (see window.Window.UID). The
// key is used untruncated: a shortened prefix could collide across traces
// and tie two traces' windows in that order.
func ExtractTrace(key string, t *trace.Trace, cfg window.Config) TraceExtract {
	conflicts := window.FindConflicts(t, cfg)
	ws := window.BuildWindows(t, conflicts)
	for i := range ws {
		ws[i].UID = key + ":" + strconv.Itoa(i)
	}
	durations, apis := window.TraceStats(t)
	return TraceExtract{
		Key: key, App: t.App, Test: t.Test, Seed: t.Seed, Events: t.Len(),
		Windows: ws, Durations: durations, LibAPIs: apis,
	}
}

// fold folds the extract into acc under canonical window admission, so
// the accumulator state depends only on the set of extracts folded, not
// their arrival order, and then drops the extract's windows and
// statistics. Over extracts offered in sorted-key order the result is
// bit-identical to the plain AddWindows/AddTraceStats replay
// InferFromSource performs on the live traces.
func (x *TraceExtract) fold(acc *window.Observations) {
	acc.AddWindowsCanonical(x.Windows)
	acc.AddStats(x.Durations, x.LibAPIs)
	x.Windows, x.Durations, x.LibAPIs = nil, nil, nil
}

// Checkpoint is the in-memory state of an incremental inference: which
// traces are covered (as extracts, sorted by key), the accumulator over
// them, and the last result.
type Checkpoint struct {
	ConfigSig string
	Extracts  []TraceExtract // sorted by Key; key and metadata only
	// Basis is always nil: a fold solves cold. It remains only for an
	// outside reader that still passes it to the solver as a warm start,
	// and goes when that reader does.
	Basis  *lp.Basis
	Result *Result

	// acc is the canonical observation accumulator over Extracts, the
	// input of the next fold. Only InferIncremental sets it, so a
	// checkpoint copied from the exported fields is refused.
	acc *window.Observations
}

// NewCheckpoint returns an empty checkpoint bound to cfg's offline-relevant
// settings.
func NewCheckpoint(cfg Config) *Checkpoint {
	return &Checkpoint{ConfigSig: ConfigSignature(cfg)}
}

// Covers reports whether key's trace is already folded into the checkpoint.
func (c *Checkpoint) Covers(key string) bool {
	i := sort.Search(len(c.Extracts), func(i int) bool { return c.Extracts[i].Key >= key })
	return i < len(c.Extracts) && c.Extracts[i].Key == key
}

// ConfigSignature hashes the config fields an offline solve depends on —
// window extraction, solver encoding, and racy-window removal. Rounds,
// seeds, delays, parallelism, and every hook are irrelevant offline and
// excluded, mirroring InferFromSource's contract. A checkpoint only
// resumes under a config with the same signature; anything else would
// splice incompatible constraint systems together.
func ConfigSignature(cfg Config) string {
	h := sha256.New()
	io.WriteString(h, "sherlock-checkpoint-cfg-v1\n")
	fmt.Fprintf(h, "window.near=%d\n", cfg.Window.Near)
	fmt.Fprintf(h, "window.perpaircap=%d\n", cfg.Window.PerPairCap)
	fmt.Fprintf(h, "window.unsafeapis=%t\n", cfg.Window.UseUnsafeAPIs)
	fmt.Fprintf(h, "solver.lambda=%g\n", cfg.Solver.Lambda)
	fmt.Fprintf(h, "solver.rarecoef=%g\n", cfg.Solver.RareCoef)
	fmt.Fprintf(h, "solver.threshold=%g\n", cfg.Solver.Threshold)
	hyp := cfg.Solver.Hyp
	fmt.Fprintf(h, "solver.hyp=%t,%t,%t,%t,%t,%t\n",
		hyp.MostlyProtected, hyp.SyncsAreRare, hyp.AcqTimeVaries,
		hyp.MostlyPaired, hyp.ReadAcqWriteRel, hyp.SingleRole)
	fmt.Fprintf(h, "solver.softsinglerole=%t\n", cfg.Solver.SoftSingleRole)
	fmt.Fprintf(h, "solver.maxlpiters=%d\n", cfg.Solver.MaxLPIters)
	fmt.Fprintf(h, "removeracymp=%t\n", cfg.RemoveRacyMP)
	return hex.EncodeToString(h.Sum(nil))[:16]
}
