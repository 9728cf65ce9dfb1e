// Package solver encodes SherLock's synchronization properties and
// hypotheses (paper Section 2) over accumulated observations as a linear
// program (Section 4.2, Eq. 1–8) and interprets the optimum as
// acquire/release probabilities per candidate operation.
//
// Hard constraints (properties):
//
//   - Read-Acquire & Write-Release: read^rel = write^acq = begin^rel =
//     end^acq = 0. Implemented by not creating those variables at all; the
//     Table 5 ablation re-creates them (plus the role-exclusivity
//     constraint acq+rel ≤ 1 the paper states alongside).
//   - Single Role: a library API serves one synchronization role:
//     begin(l)^acq + end(l)^rel ≤ 1.
//
// Soft constraints (hypotheses), as objective penalties:
//
//   - Mostly Protected (Eq. 2): per window, ε ≥ 1 − Σ role-capable vars,
//     minimize ε (weight 1).
//   - Synchronizations are Rare (Eq. 3, 4): λ·(v + 0.1·avgOcc(v)·v).
//   - Acquisition-Time Mostly Varies (Eq. 5): λ·(1 − pct(CV(dur)))·begin^acq.
//   - Mostly Paired (Eq. 6, 7): λ·|Σ acq − Σ rel| per class (methods) and
//     λ·|read(f)^acq − write(f)^rel| per field.
//
// λ scales everything except Mostly-Protected (Table 6's behaviour: larger
// λ ⇒ Mostly-Protected loses relative weight ⇒ fewer inferred syncs).
//
// Because the Perturber loop re-solves a problem that only grows between
// rounds, the package offers two entrypoints: the one-shot Solve, and a
// stateful Encoder that caches the per-window work across rounds and
// carries the previous optimal basis into the next solve (warm starting).
// Both produce the identical linear program for the same Observations, so
// their results agree — the Encoder is purely a performance device.
package solver

import (
	"fmt"
	"slices"
	"sort"

	"sherlock/internal/lp"
	obslib "sherlock/internal/obs" // aliased: "obs" names Observations locals here
	"sherlock/internal/trace"
	"sherlock/internal/window"
)

// Hypotheses toggles each property/hypothesis for the Table 5 ablation.
type Hypotheses struct {
	MostlyProtected bool
	SyncsAreRare    bool
	AcqTimeVaries   bool
	MostlyPaired    bool
	ReadAcqWriteRel bool
	SingleRole      bool
}

// AllHypotheses enables everything (SherLock's default).
func AllHypotheses() Hypotheses {
	return Hypotheses{
		MostlyProtected: true,
		SyncsAreRare:    true,
		AcqTimeVaries:   true,
		MostlyPaired:    true,
		ReadAcqWriteRel: true,
		SingleRole:      true,
	}
}

// ObjectiveWeights scales the soft-constraint penalties per role. The
// paper weighs acquire and release evidence identically; in practice the
// two roles have different base rates (every criticial section has one
// acquire but finalizers/defers skew releases), and a deployment that
// cares more about precision on one role can raise that role's weight to
// demand stronger evidence before inferring it. A zero field means 1.0
// (the paper's weighting), so the zero value is the default behaviour.
//
// The weights multiply only the real penalty terms (Syncs-are-Rare and
// Acquisition-Time-Mostly-Varies); the 1e-6 name-hashed tie-break costs
// are deliberately left unscaled so that tied optima keep resolving to
// the same vertex regardless of weighting — the incremental-inference
// byte-identity contract does not depend on ObjectiveWeights.
type ObjectiveWeights struct {
	Acquire float64
	Release float64
}

// Resolved returns the effective weights with zero fields mapped to the
// 1.0 default — the canonical form config hashes should use, so that
// every spelling of the same effective weighting hashes identically.
func (w ObjectiveWeights) Resolved() ObjectiveWeights {
	if w.Acquire == 0 {
		w.Acquire = 1
	}
	if w.Release == 0 {
		w.Release = 1
	}
	return w
}

// IsDefault reports whether the weights are equivalent to the paper's
// uniform weighting (so config hashes can omit them).
func (w ObjectiveWeights) IsDefault() bool {
	r := w.Resolved()
	return r.Acquire == 1 && r.Release == 1
}

// Config tunes the encoding.
type Config struct {
	// Lambda trades Mostly-Protected off against all other hypotheses
	// (paper default 0.2; Table 6 sweeps it).
	Lambda float64
	// RareCoef is Eq. 4's 0.1 coefficient.
	RareCoef float64
	// Threshold is the probability at which a variable counts as a
	// synchronization ("assigned 1" in the paper; vertex solutions are
	// near-integral, 0.9 tolerates rounding).
	Threshold float64
	// Hyp selects active hypotheses.
	Hyp Hypotheses
	// KeepRacyWindows disables the data-race-observation feedback: windows
	// from racy pairs keep their Mostly-Protected terms (Figure 4's "no
	// race removal" line).
	KeepRacyWindows bool
	// SoftSingleRole turns the Single-Role property into a soft constraint
	// (penalty λ·max(0, begin^acq + end^rel − 1)) instead of a hard one —
	// the extension the paper proposes in Section 5.5 to recover
	// double-role APIs like UpgradeToWriterLock.
	SoftSingleRole bool
	// MaxLPIters bounds the simplex pivots per solve (0 = lp's default).
	// Exhausting it is an error carrying the problem dimensions, wrapped
	// around lp.ErrIterationLimit — never a silent suboptimal result.
	MaxLPIters int
	// Weights scales the per-role penalty costs (zero value = the paper's
	// uniform weighting; see ObjectiveWeights).
	Weights ObjectiveWeights
	// Parallelism caps the workers the LP may use to solve independent
	// connected components of one problem concurrently (≤1 = sequential).
	// Results are bit-identical at any setting, so this is a pure
	// performance knob and excluded from config signatures.
	Parallelism int
}

// DefaultConfig mirrors the paper's defaults.
func DefaultConfig() Config {
	return Config{Lambda: 0.2, RareCoef: 0.1, Threshold: 0.9, Hyp: AllHypotheses()}
}

// Result is the solved inference state.
type Result struct {
	// Acquires / Releases map every candidate to its solved probability of
	// serving that role.
	Acquires map[trace.Key]float64
	Releases map[trace.Key]float64
	// AcquireSet / ReleaseSet are the keys at/above Threshold, sorted.
	AcquireSet []trace.Key
	ReleaseSet []trace.Key
	// Objective is the LP optimum; Vars/Constraints/Iters describe problem
	// size (overhead reporting).
	Objective   float64
	Vars        int
	Constraints int
	Iters       int
	// DualIters is the subset of Iters spent in dual-simplex re-optimization
	// of a carried basis (zero on cold solves).
	DualIters int
	// Components is the number of independent LP blocks the problem split
	// into; RowsPresolved/ColsPresolved count what presolve eliminated
	// before any pivoting.
	Components    int
	RowsPresolved int
	ColsPresolved int
	// WarmStarted reports whether the LP reused the previous round's basis
	// (Encoder path only; always false for one-shot Solve).
	WarmStarted bool
}

// Syncs returns the union of inferred acquire and release keys with roles.
func (r *Result) Syncs() map[trace.Key]trace.Role {
	out := map[trace.Key]trace.Role{}
	for _, k := range r.AcquireSet {
		out[k] = trace.RoleAcquire
	}
	for _, k := range r.ReleaseSet {
		out[k] = trace.RoleRelease
	}
	return out
}

// IsRelease reports whether the solver currently believes key is a release
// (Perturber input).
func (r *Result) IsRelease(k trace.Key) bool {
	return r.Releases[k] >= 0.9
}

// varPair holds the per-key LP variable ids (−1 when the role variable does
// not exist under the Read-Acquire & Write-Release property).
type varPair struct {
	acq, rel int
}

// Encoder incrementally encodes a growing Observations accumulator across
// Perturber rounds. It caches the per-window derived data (sorted unique
// candidate key lists) keyed by the window's absolute index in
// obs.Windows — valid because the accumulator only ever appends windows —
// and the global candidate key set, ingesting only the delta since the
// previous round. Racy-pair rows are retired at emit time, so a pair
// turning racy in a later round drops its Mostly-Protected rows without
// disturbing the cache.
//
// Each Solve rebuilds the lp.Problem in exactly the order a fresh encode
// would, so a persistent Encoder and a fresh one produce the identical
// program; all rows and variables carry names stable across rounds, which
// is what lets the previous round's optimal basis map onto the next
// round's problem.
//
// An Encoder is not safe for concurrent use. The zero value is not usable;
// construct with NewEncoder.
type Encoder struct {
	cfg    Config
	priors *Priors // nil = no objective priors (see SetPriors)

	lastObs *window.Observations // accumulator the cache was built from
	nCached int                  // windows ingested so far

	winRel [][]trace.Key // per absolute window index: sorted unique rel keys
	winAcq [][]trace.Key
	keys   []trace.Key // all candidate keys, sorted
	keySet map[trace.Key]bool
}

// NewEncoder returns an empty Encoder for cfg.
func NewEncoder(cfg Config) *Encoder {
	return &Encoder{cfg: cfg, keySet: map[trace.Key]bool{}}
}

// Reset drops all cached state, as after construction. The engine calls it
// when the Observations accumulator itself restarts (no-accumulation mode);
// Solve also detects that case on its own.
func (e *Encoder) Reset() {
	e.lastObs = nil
	e.nCached = 0
	e.winRel = e.winRel[:0]
	e.winAcq = e.winAcq[:0]
	e.keys = e.keys[:0]
	e.keySet = map[trace.Key]bool{}
}

// sync ingests windows appended to obs since the previous round. A
// different accumulator, or one with fewer windows than already cached,
// invalidates the cache entirely.
func (e *Encoder) sync(obs *window.Observations) {
	if e.lastObs != obs || len(obs.Windows) < e.nCached {
		e.Reset()
	}
	e.lastObs = obs
	newKeys := false
	for wi := e.nCached; wi < len(obs.Windows); wi++ {
		w := &obs.Windows[wi]
		rel := sortedUniqueKeys(w.RelEvents)
		acq := sortedUniqueKeys(w.AcqEvents)
		e.winRel = append(e.winRel, rel)
		e.winAcq = append(e.winAcq, acq)
		for _, k := range rel {
			if !e.keySet[k] {
				e.keySet[k] = true
				e.keys = append(e.keys, k)
				newKeys = true
			}
		}
		for _, k := range acq {
			if !e.keySet[k] {
				e.keySet[k] = true
				e.keys = append(e.keys, k)
				newKeys = true
			}
		}
	}
	e.nCached = len(obs.Windows)
	if newKeys {
		slices.Sort(e.keys)
	}
}

// sortedUniqueKeys returns the distinct keys of evs in sorted order without
// allocating a map.
func sortedUniqueKeys(evs []window.CandEvent) []trace.Key {
	if len(evs) == 0 {
		return nil
	}
	keys := make([]trace.Key, len(evs))
	for i, e := range evs {
		keys[i] = e.Key
	}
	slices.Sort(keys)
	out := keys[:1]
	for _, k := range keys[1:] {
		if k != out[len(out)-1] {
			out = append(out, k)
		}
	}
	return out
}

// Solve encodes obs — reusing everything cached from previous rounds — and
// solves it, warm-started from warm when non-nil. It returns the result
// and the optimal basis to pass into the next round's Solve. Passing a
// stale or nil basis is always safe: the LP falls back to a cold start.
func (e *Encoder) Solve(obs *window.Observations, warm *lp.Basis) (*Result, *lp.Basis, error) {
	return e.SolveSpan(obs, warm, nil)
}

// SolveSpan is Solve recording its work under parent: an "encode" child
// span covering the incremental encoding (window/key/problem dimensions,
// all deterministic), and — via lp.Problem.Trace — a sibling "solve" span
// for the simplex itself. A nil parent makes SolveSpan identical to Solve.
func (e *Encoder) SolveSpan(obs *window.Observations, warm *lp.Basis, parent *obslib.Span) (*Result, *lp.Basis, error) {
	cached := e.nCached
	if e.lastObs != obs || len(obs.Windows) < cached {
		cached = 0
	}
	span := parent.Child("encode",
		obslib.Int("windows", len(obs.Windows)),
		obslib.Int("cached", cached))
	e.sync(obs)
	b := &builder{cfg: e.cfg, priors: e.priors, obs: obs, prob: lp.NewProblem(), vars: map[trace.Key]varPair{}}
	// Rough dimension hint: two role variables per key, two ε per window,
	// and change for the pairing/single-role auxiliaries.
	b.prob.Grow(2*len(e.keys)+2*len(obs.Windows)+64,
		2*len(obs.Windows)+len(e.keys)+64)
	b.prob.MaxIters = e.cfg.MaxLPIters
	b.prob.Parallel = e.cfg.Parallelism
	b.prob.Trace = parent

	for _, k := range e.keys {
		b.addVars(k)
	}
	b.addMostlyProtected(e)
	b.addRareness(e.keys)
	b.addAcqTimeVaries(e.keys)
	b.addMostlyPaired(e.keys)
	b.addSingleRole(e.keys)
	span.Annotate(
		obslib.Int("keys", len(e.keys)),
		obslib.Int("vars", b.prob.NumVars()),
		obslib.Int("constraints", b.prob.NumConstraints()))
	span.End()

	// A carried basis means the problem is an incremental revision of the
	// one that produced it: rows were appended (new windows) or excised
	// (pairs turned racy), which SolveWarm repairs with dual simplex
	// pivots. An empty basis is passed as nil so the round is recorded as
	// a cold two-phase solve.
	if warm.Size() == 0 {
		warm = nil
	}
	sol, err := b.prob.SolveWarm(warm)
	if err != nil {
		return nil, nil, fmt.Errorf("solver: lp with %d vars, %d constraints over %d windows: %w",
			b.prob.NumVars(), b.prob.NumConstraints(), len(obs.Windows), err)
	}

	res := &Result{
		Acquires:      map[trace.Key]float64{},
		Releases:      map[trace.Key]float64{},
		Objective:     sol.Objective,
		Vars:          b.prob.NumVars(),
		Constraints:   b.prob.NumConstraints(),
		Iters:         sol.Iters,
		DualIters:     sol.DualIters,
		Components:    sol.Components,
		RowsPresolved: sol.RowsPresolved,
		ColsPresolved: sol.ColsPresolved,
		WarmStarted:   sol.WarmStarted,
	}
	for _, k := range e.keys {
		vp := b.vars[k]
		if vp.acq >= 0 {
			p := sol.Value(vp.acq)
			res.Acquires[k] = p
			if p >= e.cfg.Threshold {
				res.AcquireSet = append(res.AcquireSet, k)
			}
		}
		if vp.rel >= 0 {
			p := sol.Value(vp.rel)
			res.Releases[k] = p
			if p >= e.cfg.Threshold {
				res.ReleaseSet = append(res.ReleaseSet, k)
			}
		}
	}
	return res, sol.Basis, nil
}

// Solve encodes the accumulated observations from scratch and returns the
// optimum. It is the one-shot form of Encoder.Solve; both produce the same
// linear program and the same result.
func Solve(obs *window.Observations, cfg Config) (*Result, error) {
	res, _, err := NewEncoder(cfg).Solve(obs, nil)
	return res, err
}

// builder assembles one round's lp.Problem.
type builder struct {
	cfg    Config
	priors *Priors
	obs    *window.Observations
	prob   *lp.Problem
	vars   map[trace.Key]varPair
}

// tieBreakEps scales the deterministic tie-breaker costs on role
// variables. The SherLock encodings routinely have tied optima — several
// candidate operations protecting the same windows at the same penalty —
// and which vertex a simplex reaches then depends on its pivot path, i.e.
// on whether and from where it was warm-started. A tiny name-hashed cost
// on every role variable makes the optimum generically unique, so every
// pivot path (cold, warm from any checkpoint) converges to the same
// vertex — the property the incremental-inference byte-identity contract
// rests on. The scale sits well above the simplex's 1e-9 pivot tolerance
// (so the preference is acted on) and well below the 1e-3-granular real
// penalties (so it never overrides genuine evidence).
//
// Only role variables are perturbed: their names are identical across
// encodings, while ε/auxiliary names are not (index- vs UID-based window
// naming), and the auxiliaries are uniquely determined by the role
// variables anyway — each carries a strictly positive cost and a one-sided
// constraint, so it sits at its bound once the role variables are fixed.
const tieBreakEps = 1e-6

// nameWeight maps a variable name to a deterministic pseudo-random weight
// in [0, 1) (FNV-1a 64).
func nameWeight(s string) float64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return float64(h>>11) / (1 << 53)
}

// addVars creates the role variables of one candidate under the
// Read-Acquire & Write-Release property (or both roles under its ablation,
// with the role-exclusivity constraint instead).
func (b *builder) addVars(k trace.Key) {
	vp := varPair{acq: -1, rel: -1}
	acqCapable := trace.AcquireCapable(k.Kind())
	relCapable := trace.ReleaseCapable(k.Kind())
	if !b.cfg.Hyp.ReadAcqWriteRel {
		// Ablation: every op may serve either role, but never both.
		acqCapable, relCapable = true, true
	}
	if acqCapable {
		name := string(k) + "^acq"
		vp.acq = b.prob.AddVariable(name)
		b.prob.SetUpperBound(vp.acq, 1)
		b.prob.AddCost(vp.acq, tieBreakEps*nameWeight(name))
	}
	if relCapable {
		name := string(k) + "^rel"
		vp.rel = b.prob.AddVariable(name)
		b.prob.SetUpperBound(vp.rel, 1)
		b.prob.AddCost(vp.rel, tieBreakEps*nameWeight(name))
	}
	if vp.acq >= 0 && vp.rel >= 0 {
		// A release cannot be an acquire and vice versa.
		b.prob.AddNamedConstraint("excl("+string(k)+")",
			map[int]float64{vp.acq: 1, vp.rel: 1}, lp.LE, 1)
	}
	b.vars[k] = vp
}

// addMostlyProtected adds Eq. 2's rel(w) and acq(w) terms for every
// non-retired window. Windows are identified by their UID when they carry
// one (checkpointed windows named by owning trace), otherwise by their
// absolute index in the accumulator — not their position after racy
// filtering — so the term names (and with them the basis mapping) stay
// stable when a pair turns racy and its rows are retired. UID naming goes
// further: it survives windows from other traces being inserted ahead,
// which is what lets an incremental re-solve carry its basis across
// arbitrary upload orders. Names never influence pivoting, so the two
// schemes produce the identical program values either way.
func (b *builder) addMostlyProtected(e *Encoder) {
	if !b.cfg.Hyp.MostlyProtected {
		return
	}
	for wi := range b.obs.Windows {
		w := &b.obs.Windows[wi]
		if !b.cfg.KeepRacyWindows && b.obs.RacyPairs[w.Pair] {
			continue
		}
		id := w.UID
		if id == "" {
			id = fmt.Sprintf("w%d", wi)
		}
		b.addWindowTerm("rel("+id+")", e.winRel[wi], trace.RoleRelease)
		b.addWindowTerm("acq("+id+")", e.winAcq[wi], trace.RoleAcquire)
	}
}

// addWindowTerm adds ε ≥ 1 − Σ var over the distinct role-capable
// candidates of one window side, with cost 1 on ε. Each distinct operation
// contributes its variable once regardless of dynamic occurrences (paper
// Section 4.2). cands is sorted and unique, and role variables are created
// in key order, so the row's entries come out index-ascending by
// construction — the precondition for the allocation-light lp.AddRow path.
func (b *builder) addWindowTerm(name string, cands []trace.Key, role trace.Role) {
	idx := make([]int, 0, len(cands)+1)
	for _, k := range cands {
		vp := b.vars[k]
		v := vp.rel
		if role == trace.RoleAcquire {
			v = vp.acq
		}
		if v >= 0 {
			idx = append(idx, v)
		}
	}
	eps := b.prob.AddVariable(name)
	b.prob.AddCost(eps, 1)
	idx = append(idx, eps) // just created: largest index, keeps the order
	coeffs := make([]float64, len(idx))
	for i := range coeffs {
		coeffs[i] = 1
	}
	b.prob.AddRow("mp_"+name, idx, coeffs, lp.GE, 1)
}

// addRareness adds Eq. 3's regularization and Eq. 4's occurrence penalty,
// scaled per role by Config.Weights and discounted per role by any
// installed Priors (a believed synchronization pays less for being rare).
func (b *builder) addRareness(keys []trace.Key) {
	if !b.cfg.Hyp.SyncsAreRare {
		return
	}
	w := b.cfg.Weights.Resolved()
	for _, k := range keys {
		pen := b.cfg.Lambda * (1 + b.cfg.RareCoef*b.obs.AvgOccurrence(k))
		acqPen, relPen := w.Acquire*pen, w.Release*pen
		if b.priors != nil {
			acqPen *= b.priors.discount(b.priors.Acquires[k])
			relPen *= b.priors.discount(b.priors.Releases[k])
		}
		vp := b.vars[k]
		if vp.acq >= 0 {
			b.prob.AddCost(vp.acq, acqPen)
		}
		if vp.rel >= 0 {
			b.prob.AddCost(vp.rel, relPen)
		}
	}
}

// addAcqTimeVaries adds Eq. 5's duration-variation penalty on method-entry
// acquire variables.
func (b *builder) addAcqTimeVaries(keys []trace.Key) {
	if !b.cfg.Hyp.AcqTimeVaries {
		return
	}
	pct := b.obs.CVPercentiles()
	wAcq := b.cfg.Weights.Resolved().Acquire
	for _, k := range keys {
		if k.Kind() != trace.KindBegin {
			continue
		}
		vp := b.vars[k]
		if vp.acq < 0 {
			continue
		}
		p := pct[k.Name()] // methods never completed rank at percentile 0
		b.prob.AddCost(vp.acq, wAcq*b.cfg.Lambda*(1-p))
	}
}

// addMostlyPaired adds Eq. 6 (class-level method pairing) and Eq. 7
// (field read/write pairing).
func (b *builder) addMostlyPaired(keys []trace.Key) {
	if !b.cfg.Hyp.MostlyPaired {
		return
	}
	// Eq. 6: per class, |Σ method acq − Σ method rel|.
	classAcq := map[string][]int{}
	classRel := map[string][]int{}
	for _, k := range keys {
		if k.IsField() || k.Class() == "" {
			continue
		}
		vp := b.vars[k]
		if vp.acq >= 0 {
			classAcq[k.Class()] = append(classAcq[k.Class()], vp.acq)
		}
		if vp.rel >= 0 {
			classRel[k.Class()] = append(classRel[k.Class()], vp.rel)
		}
	}
	classes := map[string]bool{}
	for c := range classAcq {
		classes[c] = true
	}
	for c := range classRel {
		classes[c] = true
	}
	ordered := make([]string, 0, len(classes))
	for c := range classes {
		ordered = append(ordered, c)
	}
	sort.Strings(ordered)
	for _, c := range ordered {
		b.addAbsTerm("pair_c("+c+")", classAcq[c], classRel[c])
	}

	// Eq. 7: per field, |read^acq − write^rel|.
	fields := map[string]bool{}
	for _, k := range keys {
		if k.IsField() {
			fields[k.Name()] = true
		}
	}
	orderedF := make([]string, 0, len(fields))
	for f := range fields {
		orderedF = append(orderedF, f)
	}
	sort.Strings(orderedF)
	for _, f := range orderedF {
		var acqs, rels []int
		if vp, ok := b.vars[trace.KeyFor(trace.KindRead, f)]; ok && vp.acq >= 0 {
			acqs = append(acqs, vp.acq)
		}
		if vp, ok := b.vars[trace.KeyFor(trace.KindWrite, f)]; ok && vp.rel >= 0 {
			rels = append(rels, vp.rel)
		}
		if len(acqs)+len(rels) > 0 {
			b.addAbsTerm("pair_f("+f+")", acqs, rels)
		}
	}
}

// addAbsTerm adds t ≥ ±(Σ acqs − Σ rels) with cost λ·t.
func (b *builder) addAbsTerm(name string, acqs, rels []int) {
	t := b.prob.AddVariable(name)
	b.prob.AddCost(t, b.cfg.Lambda)
	pos := map[int]float64{t: 1}
	neg := map[int]float64{t: 1}
	for _, v := range acqs {
		pos[v] -= 1
		neg[v] += 1
	}
	for _, v := range rels {
		pos[v] += 1
		neg[v] -= 1
	}
	b.prob.AddNamedConstraint(name+"+", pos, lp.GE, 0)
	b.prob.AddNamedConstraint(name+"-", neg, lp.GE, 0)
}

// addSingleRole adds begin(l)^acq + end(l)^rel ≤ 1 for every library API —
// or, under SoftSingleRole, the relaxed penalty λ·max(0, begin+end−1) that
// lets strong evidence overrule the assumption (double-role APIs).
func (b *builder) addSingleRole(keys []trace.Key) {
	if !b.cfg.Hyp.SingleRole {
		return
	}
	for _, k := range keys {
		if k.Kind() != trace.KindBegin || !b.obs.LibAPIs[k.Name()] {
			continue
		}
		beginVP := b.vars[k]
		endVP, ok := b.vars[trace.KeyFor(trace.KindEnd, k.Name())]
		if !ok || beginVP.acq < 0 || endVP.rel < 0 {
			continue
		}
		if b.cfg.SoftSingleRole {
			eps := b.prob.AddVariable("singlerole(" + k.Name() + ")")
			b.prob.AddCost(eps, b.cfg.Lambda)
			b.prob.AddNamedConstraint("srs("+k.Name()+")", map[int]float64{
				eps: 1, beginVP.acq: -1, endVP.rel: -1,
			}, lp.GE, -1)
			continue
		}
		b.prob.AddNamedConstraint("sr("+k.Name()+")",
			map[int]float64{beginVP.acq: 1, endVP.rel: 1}, lp.LE, 1)
	}
}
