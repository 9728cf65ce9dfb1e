// Static and refine inference entrypoints: run-free constraint derivation
// (internal/static) solved through the same LP as dynamic campaigns, and
// posterior persistence for refine mode.
//
// Two consumption patterns:
//
//   - InferStatic: no execution at all. The abstract walk's synthetic
//     windows go straight to the solver; the result is a prior-quality
//     report (every key statically reachable, probabilities from structure
//     alone), bit-identical across runs of the same program.
//   - Refine: PosteriorFromResult persists a solved campaign's
//     probabilities (via store.SaveCheckpoint under
//     CheckpointName("posterior", app)), and Posterior.Priors feeds them
//     back as the next campaign's Config.StaticPriors seed.
package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"sherlock/internal/obs"
	"sherlock/internal/prog"
	"sherlock/internal/solver"
	"sherlock/internal/static"
	"sherlock/internal/trace"
)

// InferStatic analyzes app without executing it and solves the resulting
// constraint system. Only cfg.Window, cfg.Solver, cfg.RemoveRacyMP and the
// observability fields apply; rounds, seeds and delays are meaningless
// without runs. The acquisition-time hypothesis is disabled — a run-free
// analysis has no durations to rank — and Overhead.Events is zero by
// construction. The returned analysis carries the program hash the serving
// layer uses for content addressing.
func InferStatic(ctx context.Context, app *prog.Program, cfg Config) (*Result, *static.Analysis, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	scfg := cfg.solverConfig()
	scfg.Hyp.AcqTimeVaries = false // no durations without execution

	tr := cfg.tracer()
	root := tr.Root("static", app.Name)
	defer root.End()

	sc := static.DefaultConfig()
	sc.Window = cfg.Window
	an, err := static.AnalyzeSpan(app, sc, root)
	if err != nil {
		return nil, nil, fmt.Errorf("core: static analysis of %s: %w", app.Name, err)
	}

	t0 := time.Now()
	sr, _, err := solver.NewEncoder(scfg).SolveSpan(an.Obs, nil, root)
	if err != nil {
		return nil, nil, fmt.Errorf("core: static solve of %s: %w", app.Name, err)
	}

	res := &Result{App: app.Name}
	res.Overhead.SolveWall = time.Since(t0)
	res.setFinal(sr, len(an.Obs.Windows))
	res.Overhead.Objective = sr.Objective
	res.Rounds = []RoundSnapshot{{
		Round:    1,
		Acquires: append([]trace.Key(nil), sr.AcquireSet...),
		Releases: append([]trace.Key(nil), sr.ReleaseSet...),
		Windows:  len(an.Obs.Windows),
		LPIters:  sr.Iters,
	}}
	root.Annotate(
		obs.Int("windows", res.Overhead.Windows),
		obs.Int("vars", res.Overhead.Vars),
		obs.Int("constraints", res.Overhead.Constraints),
		obs.Int("inferred", len(res.Inferred)))
	cfg.notifyRound(res.Rounds[0], an.Obs)
	return res, an, nil
}

// RoundsToConverge returns the 1-based round at which the inferred
// acquire/release sets first equal the final round's sets — the campaign's
// convergence point, the quantity refine seeding is meant to shrink.
// Zero when the result carries no rounds.
func (r *Result) RoundsToConverge() int {
	if len(r.Rounds) == 0 {
		return 0
	}
	final := r.Rounds[len(r.Rounds)-1]
	for i := range r.Rounds {
		if keysEqual(r.Rounds[i].Acquires, final.Acquires) && keysEqual(r.Rounds[i].Releases, final.Releases) {
			return r.Rounds[i].Round
		}
	}
	return final.Round
}

func keysEqual(a, b []trace.Key) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// PosteriorVersion tags the posterior encoding; DecodePosterior rejects
// any other value.
const PosteriorVersion = "sherlock-posterior-v1"

// Posterior is a campaign's solved probabilities in persistable form — the
// refine-mode state. It is stored as a named store checkpoint
// (store.SaveCheckpoint under CheckpointName("posterior", app)), and a
// later campaign warm-starts from it via Priors.
type Posterior struct {
	Version   string `json:"version"`
	App       string `json:"app"`
	ConfigSig string `json:"config_sig"`
	// Rounds records how many rounds produced these probabilities, for
	// reporting; it does not affect reuse.
	Rounds   int                   `json:"rounds,omitempty"`
	Acquires map[trace.Key]float64 `json:"acquires,omitempty"`
	Releases map[trace.Key]float64 `json:"releases,omitempty"`
}

// CheckpointName is the store checkpoint name "<prefix>-<app>" for an
// app's persisted refine posterior. App names may use characters outside
// the store's checkpoint alphabet [A-Za-z0-9._-] (the generator's
// "gen:<seed>,profile=..." names); those map to '_' and the original
// spelling is pinned with a short content hash so two apps that sanitize
// alike never share a checkpoint.
func CheckpointName(prefix, app string) string {
	safe := strings.Map(func(r rune) rune {
		switch {
		case r >= 'A' && r <= 'Z', r >= 'a' && r <= 'z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		default:
			return '_'
		}
	}, app)
	if safe != app {
		sum := sha256.Sum256([]byte(app))
		safe += "-" + hex.EncodeToString(sum[:4])
	}
	return prefix + "-" + safe
}

// PosteriorFromResult captures res's probabilities for persistence,
// stamped with cfg's offline signature so a posterior solved under one
// constraint encoding is never replayed into another.
func PosteriorFromResult(res *Result, cfg Config) *Posterior {
	return &Posterior{
		Version:   PosteriorVersion,
		App:       res.App,
		ConfigSig: ConfigSignature(cfg),
		Rounds:    len(res.Rounds),
		Acquires:  res.Acquires,
		Releases:  res.Releases,
	}
}

// Priors converts a stored posterior back into campaign priors, verifying
// it was solved under a config with cfg's signature.
func (p *Posterior) Priors(cfg Config) (*solver.Priors, error) {
	if sig := ConfigSignature(cfg); p.ConfigSig != sig {
		return nil, fmt.Errorf("core: posterior for %s solved under config %s, campaign uses %s", p.App, p.ConfigSig, sig)
	}
	pr := &solver.Priors{
		Acquires: make(map[trace.Key]float64, len(p.Acquires)),
		Releases: make(map[trace.Key]float64, len(p.Releases)),
	}
	for k, v := range p.Acquires {
		if v > 0 {
			pr.Acquires[k] = v
		}
	}
	for k, v := range p.Releases {
		if v > 0 {
			pr.Releases[k] = v
		}
	}
	return pr, nil
}

// EncodePosterior serializes a posterior for checkpoint storage.
func EncodePosterior(p *Posterior) ([]byte, error) {
	if p.Version == "" {
		p.Version = PosteriorVersion
	}
	return json.Marshal(p)
}

// DecodePosterior parses an EncodePosterior document, rejecting unknown
// versions.
func DecodePosterior(data []byte) (*Posterior, error) {
	var p Posterior
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("core: decode posterior: %w", err)
	}
	if p.Version != PosteriorVersion {
		return nil, fmt.Errorf("core: decode posterior: unsupported version %q (want %q)", p.Version, PosteriorVersion)
	}
	return &p, nil
}
