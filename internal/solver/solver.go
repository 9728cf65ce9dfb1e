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
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

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

// varPair holds the per-key LP variable ids (−1 when the role variable does
// not exist under the Read-Acquire & Write-Release property).
type varPair struct {
	acq, rel int
}

// Encoder incrementally encodes a growing Observations accumulator across
// Perturber rounds. It caches the per-window derived data (the distinct
// candidates in key order and the term names) keyed by the window's
// absolute index in obs.Windows — valid because the accumulator only ever
// appends windows — and the global candidate key set with each key's
// variable names, indexed by the accumulator's key IDs, ingesting only
// the delta since the previous round. The pairing
// and single-role terms, which depend on the key set alone, are planned
// once per key set. Racy-pair rows are retired at emit time, so a pair
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
	cfg Config

	lastObs *window.Observations // accumulator the cache was built from
	nCached int                  // windows ingested so far

	winRel  [][]*keyInfo  // per absolute window index: distinct rel candidates, in key order
	winAcq  [][]*keyInfo  // likewise for acq candidates
	winName []windowNames // per absolute window index: its row names
	keys    []*keyInfo    // all candidate keys, in key order
	byID    []*keyInfo    // by the accumulator's window.KeyID; nil until ingested
	terms   *termPlan     // terms over keys; nil until planned for the current key set

	fresh []*keyInfo // sync's scratch: the keys one sync meets first
}

// problems recycles the lp.Problem each Solve builds and drops once it has
// read the solution, so a round's encoding reuses an earlier round's
// buffers.
var problems = sync.Pool{New: func() any { return lp.NewProblem() }}

// windowNames are one window's Mostly-Protected row names, mp_rel(id) and
// mp_acq(id); their ε variables rel(id) and acq(id) are the suffixes
// after "mp_".
type windowNames struct {
	mpRel, mpAcq string
}

// keyInfo is what the Encoder keeps per candidate key: the key, parsed
// once (its kind, static name and pairing group: the field name of a
// field key, the class of a method key), its ID in the accumulator, its
// position in keys, the names of its role variables ("" for a role it
// cannot serve) and of its exclusivity row (when it has both), and the
// variables' tie-break weights.
type keyInfo struct {
	key            trace.Key
	kind           trace.Kind
	name, group    string
	id             window.KeyID
	pos            int32
	acq, rel, excl string
	acqW, relW     float64
}

func (e *Encoder) newKeyInfo(k trace.Key, id window.KeyID) *keyInfo {
	in := &keyInfo{key: k, kind: k.Kind(), name: k.Name(), id: id}
	if k.IsField() {
		in.group = in.name
	} else {
		in.group = k.Class()
	}
	// Under the Read-Acquire & Write-Release ablation every op may serve
	// either role, but never both.
	all := !e.cfg.Hyp.ReadAcqWriteRel
	if all || trace.AcquireCapable(in.kind) {
		in.acq = string(k) + "^acq"
		in.acqW = nameWeight(in.acq)
	}
	if all || trace.ReleaseCapable(in.kind) {
		in.rel = string(k) + "^rel"
		in.relW = nameWeight(in.rel)
	}
	if in.acq != "" && in.rel != "" {
		in.excl = "excl(" + string(k) + ")"
	}
	return in
}

// NewEncoder returns an empty Encoder for cfg.
func NewEncoder(cfg Config) *Encoder {
	return &Encoder{cfg: cfg}
}

// Reset drops all cached state, as after construction. The engine calls it
// when the Observations accumulator itself restarts (no-accumulation mode);
// Solve also detects that case on its own.
func (e *Encoder) Reset() {
	e.lastObs = nil
	e.nCached = 0
	e.winRel = e.winRel[:0]
	e.winAcq = e.winAcq[:0]
	e.winName = e.winName[:0]
	e.keys = e.keys[:0]
	clear(e.byID)
	e.byID = e.byID[:0]
	e.terms = nil
}

// sync ingests windows appended to obs since the previous round. A
// different accumulator, or one with fewer windows or keys than already
// cached, invalidates the cache entirely.
func (e *Encoder) sync(obs *window.Observations) {
	if e.lastObs != obs || len(obs.Windows) < e.nCached || obs.NumKeys() < len(e.byID) {
		e.Reset()
	}
	e.lastObs = obs
	e.byID = append(e.byID, make([]*keyInfo, obs.NumKeys()-len(e.byID))...)
	// The new windows' candidate lists are carved from one exact-size
	// buffer.
	n := 0
	for wi := e.nCached; wi < len(obs.Windows); wi++ {
		rel, acq := obs.Candidates(wi)
		n += len(rel) + len(acq)
	}
	buf := make([]*keyInfo, 0, n)
	fresh := e.fresh[:0]
	candidates := func(ids []window.KeyID) []*keyInfo {
		if len(ids) == 0 {
			return nil
		}
		from := len(buf)
		for _, id := range ids {
			in := e.byID[id]
			if in == nil {
				in = e.newKeyInfo(obs.Key(id), id)
				e.byID[id] = in
				fresh = append(fresh, in)
			}
			buf = append(buf, in)
		}
		return buf[from:len(buf):len(buf)]
	}
	first := len(e.winRel)
	for wi := e.nCached; wi < len(obs.Windows); wi++ {
		rel, acq := obs.Candidates(wi)
		e.winRel = append(e.winRel, candidates(rel))
		e.winAcq = append(e.winAcq, candidates(acq))
		// Windows are named by UID when they carry one (checkpointed windows
		// named by owning trace), otherwise by their absolute index in the
		// accumulator — which this cache is keyed by, so both are stable.
		if uid := obs.Windows[wi].UID; uid != "" {
			e.winName = append(e.winName, windowNames{mpRel: "mp_rel(" + uid + ")", mpAcq: "mp_acq(" + uid + ")"})
		} else {
			e.winName = append(e.winName, indexNamesOf(wi))
		}
	}
	e.nCached = len(obs.Windows)
	if len(fresh) > 0 {
		e.mergeKeys(fresh)
		e.terms = nil
	}
	clear(fresh)
	e.fresh = fresh[:0]
	byPos := func(a, b *keyInfo) int { return cmp.Compare(a.pos, b.pos) }
	for wi := first; wi < len(e.winRel); wi++ {
		slices.SortFunc(e.winRel[wi], byPos)
		slices.SortFunc(e.winAcq[wi], byPos)
	}
}

// mergeKeys sorts the keys one sync met first and merges them into keys
// (distinct keys, in key order) in place, from the back, then renumbers
// every key's position. Keys already cached keep their relative order,
// so their windows' lists stay in key order.
func (e *Encoder) mergeKeys(fresh []*keyInfo) {
	byKey := func(a, b *keyInfo) int { return cmp.Compare(a.key, b.key) }
	slices.SortFunc(fresh, byKey)
	i, j := len(e.keys)-1, len(fresh)-1
	e.keys = append(e.keys, fresh...)
	for k := len(e.keys) - 1; j >= 0; k-- {
		if i >= 0 && e.keys[i].key > fresh[j].key {
			e.keys[k] = e.keys[i]
			i--
		} else {
			e.keys[k] = fresh[j]
			j--
		}
	}
	for pos, in := range e.keys {
		in.pos = int32(pos)
	}
}

// indexNames is the process-wide table of the row names of windows named
// by their accumulator index, mp_rel(w<i>) and mp_acq(w<i>). It only
// grows, so a process builds each name once however many encoders name
// window i: readers load the current table without locking, a writer
// publishes a longer copy.
var indexNames struct {
	mu    sync.Mutex
	table atomic.Pointer[[]windowNames]
}

// indexNamesOf returns the row names of the window at index i.
func indexNamesOf(i int) windowNames {
	if t := indexNames.table.Load(); t != nil && i < len(*t) {
		return (*t)[i]
	}
	indexNames.mu.Lock()
	defer indexNames.mu.Unlock()
	var cur []windowNames
	if t := indexNames.table.Load(); t != nil {
		cur = *t
	}
	if i >= len(cur) {
		next := make([]windowNames, max(i+1, 2*len(cur), 256))
		copy(next, cur)
		for k := len(cur); k < len(next); k++ {
			id := "w" + strconv.Itoa(k)
			next[k] = windowNames{mpRel: "mp_rel(" + id + ")", mpAcq: "mp_acq(" + id + ")"}
		}
		indexNames.table.Store(&next)
		cur = next
	}
	return cur[i]
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
	if e.terms == nil {
		e.terms = e.planTerms()
	}
	prob := problems.Get().(*lp.Problem)
	defer func() {
		prob.Reset()
		problems.Put(prob)
	}()
	b := &builder{cfg: e.cfg, obs: obs, prob: prob,
		vars: make([]varPair, 0, len(e.keys))}
	// Rough dimension hint: two role variables per key, two ε per window,
	// and change for the pairing/single-role auxiliaries. A window row holds
	// its candidates and its ε; a key sits in its exclusivity row and in
	// both rows of its pairing term.
	entries := 2*len(obs.Windows) + 6*len(e.keys) + 64
	for wi := range e.winRel {
		entries += len(e.winRel[wi]) + len(e.winAcq[wi])
	}
	b.prob.Grow(2*len(e.keys)+2*len(obs.Windows)+64,
		2*len(obs.Windows)+len(e.keys)+64, entries)
	b.prob.MaxIters = e.cfg.MaxLPIters
	b.prob.Parallel = e.cfg.Parallelism
	b.prob.Trace = parent

	for _, in := range e.keys {
		b.addVars(in)
	}
	b.addMostlyProtected(e)
	b.addRareness(e.keys)
	b.addAcqTimeVaries(e.keys)
	for i := range e.terms.pairs {
		b.addAbsTerm(&e.terms.pairs[i])
	}
	b.addSingleRole(e.terms.singleRole)
	span.Annotate(
		obslib.Int("keys", len(e.keys)),
		obslib.Int("vars", b.prob.NumVars()),
		obslib.Int("constraints", b.prob.NumConstraints()))
	span.End()

	// A carried basis means the problem is an incremental revision of the
	// one that produced it: rows were appended (new windows) or excised
	// (pairs turned racy). SolveWarm starts from it, or restarts cold when
	// those rows cut its vertex off. An empty basis is passed as nil so the
	// round is recorded as a cold two-phase solve.
	if warm.Size() == 0 {
		warm = nil
	}
	sol, err := b.prob.SolveWarm(warm)
	if err != nil {
		return nil, nil, fmt.Errorf("solver: lp with %d vars, %d constraints over %d windows: %w",
			b.prob.NumVars(), b.prob.NumConstraints(), len(obs.Windows), err)
	}

	res := &Result{
		Acquires:      make(map[trace.Key]float64, len(e.keys)),
		Releases:      make(map[trace.Key]float64, len(e.keys)),
		Objective:     sol.Objective,
		Vars:          b.prob.NumVars(),
		Constraints:   b.prob.NumConstraints(),
		Iters:         sol.Iters,
		Components:    sol.Components,
		RowsPresolved: sol.RowsPresolved,
		ColsPresolved: sol.ColsPresolved,
		WarmStarted:   sol.WarmStarted,
	}
	for i, in := range e.keys {
		vp := b.vars[i]
		if vp.acq >= 0 {
			p := sol.Value(vp.acq)
			res.Acquires[in.key] = p
			if p >= e.cfg.Threshold {
				res.AcquireSet = append(res.AcquireSet, in.key)
			}
		}
		if vp.rel >= 0 {
			p := sol.Value(vp.rel)
			res.Releases[in.key] = p
			if p >= e.cfg.Threshold {
				res.ReleaseSet = append(res.ReleaseSet, in.key)
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

// termPlan is the Mostly-Paired and Single-Role terms over one key set,
// by key position, in emission order.
type termPlan struct {
	pairs      []absTerm
	singleRole []singleRoleTerm
}

// absTerm is one |Σ acq − Σ rel| pairing term: its variable name, its two
// row names, and the keys whose acquire and release variables it sums.
type absTerm struct {
	name, plus, minus string
	acqs, rels        []int32
}

// newAbsTerm names a pairing term kind(group) with rows kind(group)+ and
// kind(group)-.
func newAbsTerm(kind, group string, acqs, rels []int32) absTerm {
	plus := kind + "(" + group + ")+"
	name := plus[:len(plus)-1]
	return absTerm{name: name, plus: plus, minus: name + "-", acqs: acqs, rels: rels}
}

// singleRoleTerm is one library API's begin/end pair: the row (and, under
// SoftSingleRole, the penalty variable) that keeps the API in one role
// whenever the API is observed as a library call.
type singleRoleTerm struct {
	api        string
	begin, end int32
	row, eps   string
}

// member is a key (by position) filed under a pairing group: its class
// for method keys, its field name for field keys.
type member struct {
	group string
	pos   int32
}

// planTerms plans the terms that depend only on the key set: Eq. 6
// (class-level method pairing), Eq. 7 (field read/write pairing) and the
// Single-Role candidates. Groups are emitted in name order, and a
// group's keys in key order.
func (e *Encoder) planTerms() *termPlan {
	tp := &termPlan{}
	if e.cfg.Hyp.MostlyPaired {
		var methods, fields []member
		for i, in := range e.keys {
			switch {
			case in.kind == trace.KindRead || in.kind == trace.KindWrite:
				fields = append(fields, member{in.group, int32(i)})
			case in.group != "":
				methods = append(methods, member{in.group, int32(i)})
			}
		}
		byGroup := func(a, b member) int { return strings.Compare(a.group, b.group) }
		slices.SortStableFunc(methods, byGroup)
		slices.SortStableFunc(fields, byGroup)
		// Every group's acquire and release positions are carved from one
		// buffer; a method key may sit in both lists (ablation).
		buf := make([]int32, 0, 2*len(methods)+len(fields))
		carve := func(from int) []int32 {
			if len(buf) == from {
				return nil
			}
			return buf[from:len(buf):len(buf)]
		}
		// Eq. 6: per class, |Σ method acq − Σ method rel|.
		for lo := 0; lo < len(methods); {
			hi := lo + 1
			for hi < len(methods) && methods[hi].group == methods[lo].group {
				hi++
			}
			from := len(buf)
			for _, m := range methods[lo:hi] {
				if e.keys[m.pos].acq != "" {
					buf = append(buf, m.pos)
				}
			}
			acqs := carve(from)
			from = len(buf)
			for _, m := range methods[lo:hi] {
				if e.keys[m.pos].rel != "" {
					buf = append(buf, m.pos)
				}
			}
			rels := carve(from)
			if len(acqs)+len(rels) > 0 {
				tp.pairs = append(tp.pairs, newAbsTerm("pair_c", methods[lo].group, acqs, rels))
			}
			lo = hi
		}
		// Eq. 7: per field, |read^acq − write^rel|.
		for lo := 0; lo < len(fields); {
			hi := lo + 1
			for hi < len(fields) && fields[hi].group == fields[lo].group {
				hi++
			}
			var acqs, rels []int32
			for _, m := range fields[lo:hi] {
				in := e.keys[m.pos]
				from := len(buf)
				switch {
				case in.kind == trace.KindRead && in.acq != "":
					buf = append(buf, m.pos)
					acqs = carve(from)
				case in.kind == trace.KindWrite && in.rel != "":
					buf = append(buf, m.pos)
					rels = carve(from)
				}
			}
			if len(acqs)+len(rels) > 0 {
				tp.pairs = append(tp.pairs, newAbsTerm("pair_f", fields[lo].group, acqs, rels))
			}
			lo = hi
		}
	}
	if e.cfg.Hyp.SingleRole {
		ends := map[string]*keyInfo{}
		for _, in := range e.keys {
			if in.kind == trace.KindEnd {
				ends[in.name] = in
			}
		}
		for i, begin := range e.keys {
			if begin.kind != trace.KindBegin {
				continue
			}
			end := ends[begin.name]
			if end == nil || begin.acq == "" || end.rel == "" {
				continue
			}
			t := singleRoleTerm{api: begin.name, begin: int32(i), end: end.pos}
			if e.cfg.SoftSingleRole {
				t.row, t.eps = "srs("+t.api+")", "singlerole("+t.api+")"
			} else {
				t.row = "sr(" + t.api + ")"
			}
			tp.singleRole = append(tp.singleRole, t)
		}
	}
	return tp
}

// builder assembles one round's lp.Problem.
type builder struct {
	cfg  Config
	obs  *window.Observations
	prob *lp.Problem
	vars []varPair // per key position

	// The row under construction, reused from row to row (lp.AddRow
	// copies it into the problem).
	idx    []int
	coeffs []float64
}

// term adds a·x_v to the row under construction.
func (b *builder) term(v int, a float64) {
	b.idx = append(b.idx, v)
	b.coeffs = append(b.coeffs, a)
}

// addRow adds the row under construction and clears it. It sums repeated
// variables in the order their terms were added, drops zero sums and
// orders the entries by variable, which is the form lp.AddRow requires.
func (b *builder) addRow(name string, sense lp.Sense, rhs float64) {
	idx, coeffs := b.idx, b.coeffs
	for i := 1; i < len(idx); i++ { // stable insertion sort: rows are short
		for j := i; j > 0 && idx[j-1] > idx[j]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
			coeffs[j], coeffs[j-1] = coeffs[j-1], coeffs[j]
		}
	}
	out := 0
	for i := 0; i < len(idx); {
		v, a := idx[i], coeffs[i]
		for i++; i < len(idx) && idx[i] == v; i++ {
			a += coeffs[i]
		}
		if a != 0 {
			idx[out], coeffs[out] = v, a
			out++
		}
	}
	b.prob.AddRow(name, idx[:out], coeffs[:out], sense, rhs)
	b.idx, b.coeffs = idx[:0], coeffs[:0]
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
func (b *builder) addVars(in *keyInfo) {
	vp := varPair{acq: -1, rel: -1}
	if in.acq != "" {
		vp.acq = b.prob.AddVariable(in.acq)
		b.prob.SetUpperBound(vp.acq, 1)
		b.prob.AddCost(vp.acq, tieBreakEps*in.acqW)
	}
	if in.rel != "" {
		vp.rel = b.prob.AddVariable(in.rel)
		b.prob.SetUpperBound(vp.rel, 1)
		b.prob.AddCost(vp.rel, tieBreakEps*in.relW)
	}
	if in.excl != "" {
		// A release cannot be an acquire and vice versa.
		b.term(vp.acq, 1)
		b.term(vp.rel, 1)
		b.addRow(in.excl, lp.LE, 1)
	}
	b.vars = append(b.vars, vp)
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
// schemes produce the identical program values either way. The Encoder
// builds each window's names once (windowNames).
func (b *builder) addMostlyProtected(e *Encoder) {
	if !b.cfg.Hyp.MostlyProtected {
		return
	}
	for wi := range b.obs.Windows {
		w := &b.obs.Windows[wi]
		if !b.cfg.KeepRacyWindows && b.obs.RacyPairs[w.Pair] {
			continue
		}
		names := &e.winName[wi]
		b.addWindowTerm(names.mpRel, e.winRel[wi], trace.RoleRelease)
		b.addWindowTerm(names.mpAcq, e.winAcq[wi], trace.RoleAcquire)
	}
}

// addWindowTerm adds ε ≥ 1 − Σ var over the distinct role-capable
// candidates of one window side, with cost 1 on ε. Each distinct operation
// contributes its variable once regardless of dynamic occurrences (paper
// Section 4.2). cands is in key order, and role variables are created in
// key order, so the row's entries come out index-ascending by
// construction — the precondition for the allocation-light lp.AddRow path.
// rowName is the row's name, mp_<ε name>.
func (b *builder) addWindowTerm(rowName string, cands []*keyInfo, role trace.Role) {
	for _, in := range cands {
		vp := b.vars[in.pos]
		v := vp.rel
		if role == trace.RoleAcquire {
			v = vp.acq
		}
		if v >= 0 {
			b.term(v, 1)
		}
	}
	eps := b.prob.AddVariable(strings.TrimPrefix(rowName, "mp_"))
	b.prob.AddCost(eps, 1)
	b.term(eps, 1) // just created: largest index, keeps the order
	b.prob.AddRow(rowName, b.idx, b.coeffs, lp.GE, 1)
	b.idx, b.coeffs = b.idx[:0], b.coeffs[:0]
}

// addRareness adds Eq. 3's regularization and Eq. 4's occurrence penalty.
func (b *builder) addRareness(keys []*keyInfo) {
	if !b.cfg.Hyp.SyncsAreRare {
		return
	}
	for i, in := range keys {
		pen := b.cfg.Lambda * (1 + b.cfg.RareCoef*b.obs.AvgOccurrenceOf(in.id))
		vp := b.vars[i]
		if vp.acq >= 0 {
			b.prob.AddCost(vp.acq, pen)
		}
		if vp.rel >= 0 {
			b.prob.AddCost(vp.rel, pen)
		}
	}
}

// addAcqTimeVaries adds Eq. 5's duration-variation penalty on method-entry
// acquire variables.
func (b *builder) addAcqTimeVaries(keys []*keyInfo) {
	if !b.cfg.Hyp.AcqTimeVaries {
		return
	}
	pct := b.obs.CVPercentiles()
	for i, in := range keys {
		if in.kind != trace.KindBegin {
			continue
		}
		vp := b.vars[i]
		if vp.acq < 0 {
			continue
		}
		p := pct[in.name] // methods never completed rank at percentile 0
		b.prob.AddCost(vp.acq, b.cfg.Lambda*(1-p))
	}
}

// addAbsTerm adds one Mostly-Paired term (Eq. 6 or 7):
// t ≥ ±(Σ acqs − Σ rels) with cost λ·t.
func (b *builder) addAbsTerm(at *absTerm) {
	t := b.prob.AddVariable(at.name)
	b.prob.AddCost(t, b.cfg.Lambda)
	for _, sign := range [2]float64{1, -1} {
		b.term(t, 1)
		for _, pos := range at.acqs {
			b.term(b.vars[pos].acq, -sign)
		}
		for _, pos := range at.rels {
			b.term(b.vars[pos].rel, sign)
		}
		if sign > 0 {
			b.addRow(at.plus, lp.GE, 0)
		} else {
			b.addRow(at.minus, lp.GE, 0)
		}
	}
}

// addSingleRole adds begin(l)^acq + end(l)^rel ≤ 1 for every library API —
// or, under SoftSingleRole, the relaxed penalty λ·max(0, begin+end−1) that
// lets strong evidence overrule the assumption (double-role APIs).
func (b *builder) addSingleRole(terms []singleRoleTerm) {
	for i := range terms {
		t := &terms[i]
		if !b.obs.LibAPIs[t.api] {
			continue
		}
		acq, rel := b.vars[t.begin].acq, b.vars[t.end].rel
		if t.eps != "" {
			eps := b.prob.AddVariable(t.eps)
			b.prob.AddCost(eps, b.cfg.Lambda)
			b.term(eps, 1)
			b.term(acq, -1)
			b.term(rel, -1)
			b.addRow(t.row, lp.GE, -1)
			continue
		}
		b.term(acq, 1)
		b.term(rel, 1)
		b.addRow(t.row, lp.LE, 1)
	}
}
