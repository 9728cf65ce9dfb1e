// Package lp implements a small linear-programming solver for problems of
// the form
//
//	minimize    cᵀx
//	subject to  Aᵢ x {≤,=,≥} bᵢ      for every constraint i
//	            0 ≤ xⱼ ≤ uⱼ          for every variable j
//
// It stands in for the external solver (Flipy/CBC) used by the SherLock
// paper. Solve / SolveWarm run a sparse revised simplex
// over an LU-factorized basis (lu.go): constraint columns are stored
// sparsely (the synchronization-inference encodings are >95% zeros), the
// basis factors are updated in place by sparse eta updates and
// refactorized periodically, a presolve pass (presolve.go) shrinks the
// matrix before any pivoting, independent connected components solve
// separately and concurrently (decompose.go), and an optimal Basis can be
// carried into the next, slightly different problem as its starting basis
// (basis.go — cross-round warm starting in the Perturber feedback loop).
//
// The original dense two-phase tableau (SolveDense) lives in
// dense_test.go as the reference oracle for the equivalence tests.
//
// The solver is deterministic: identical problems yield identical
// vertex solutions at any Parallel setting, which keeps the whole
// inference pipeline reproducible.
package lp

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"sherlock/internal/obs"
)

// Sense is the relational operator of a constraint.
type Sense int

// Constraint senses.
const (
	LE Sense = iota // Σ aⱼxⱼ ≤ b
	GE              // Σ aⱼxⱼ ≥ b
	EQ              // Σ aⱼxⱼ = b
)

func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return "?"
}

// Status reports the outcome of Solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	// IterLimit: the simplex stopped before proving optimality, because
	// the pivot budget ran out or a cold start lost feasibility
	// numerically.
	IterLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration limit"
	}
	return "unknown"
}

// ErrNotOptimal is wrapped by Solve when the problem has no finite optimum.
var ErrNotOptimal = errors.New("lp: no finite optimum")

// ErrIterationLimit is wrapped by Solve when the simplex pivot budget
// (Problem.MaxIters, default 200000) is exhausted before optimality is
// proven. It additionally wraps ErrNotOptimal, so existing errors.Is
// checks keep matching; callers that care specifically about the budget
// match this sentinel.
var ErrIterationLimit = fmt.Errorf("%w: simplex iteration limit reached", ErrNotOptimal)

const (
	eps            = 1e-9 // numerical tolerance for pivoting and feasibility
	infUB          = math.MaxFloat64
	defaultMaxIter = 200000
)

// constraint is one row. Its idx and coeffs are windows into the owning
// Problem's flat entry buffers, capped so an append never reaches a
// neighbouring row.
type constraint struct {
	name   string
	idx    []int
	coeffs []float64
	sense  Sense
	rhs    float64
}

// Problem is a linear program under construction. The zero value is not
// usable; create instances with NewProblem.
type Problem struct {
	names       []string
	cost        []float64
	upper       []float64
	constraints []constraint

	// entIdx/entCoef hold every row's entries back to back; a row is added
	// by appending to them, so a problem costs a few growing buffers rather
	// than two small slices per row.
	entIdx  []int
	entCoef []float64

	// MaxIters bounds the simplex pivots across both phases (0 means the
	// 200000 default). When the problem decomposes into independent
	// components the budget applies per component — it is a runaway guard,
	// not a global fairness mechanism. Exhausting it makes Solve return a
	// Solution with Status IterLimit and an error wrapping
	// ErrIterationLimit.
	MaxIters int

	// Parallel caps the workers used to solve independent connected
	// components of the problem concurrently (≤1 means sequential).
	// Results are bit-identical at any setting.
	Parallel int

	// etaEvery overrides the basis refactorization interval (tests force 1
	// to exercise the pure-LU path against the eta-update path).
	etaEvery int

	// Trace, when non-nil, is the parent span under which Solve records a
	// "solve" child span carrying the problem dimensions and pivot counts.
	// All recorded attributes are deterministic for a given problem.
	Trace *obs.Span
}

// etaEveryOrDefault resolves the refactorization interval.
func (p *Problem) etaEveryOrDefault() int {
	if p.etaEvery > 0 {
		return p.etaEvery
	}
	return defaultEtaRefactorEvery
}

// NewProblem returns an empty problem.
func NewProblem() *Problem {
	return &Problem{}
}

// Grow pre-allocates capacity for about vars more variables, rows more
// constraints and entries more nonzero row entries. Purely a performance
// hint for encoders that know their problem size up front; the problem
// behaves identically without it.
func (p *Problem) Grow(vars, rows, entries int) {
	p.names = slices.Grow(p.names, vars)
	p.cost = slices.Grow(p.cost, vars)
	p.upper = slices.Grow(p.upper, vars)
	p.constraints = slices.Grow(p.constraints, rows)
	p.entIdx = slices.Grow(p.entIdx, entries)
	p.entCoef = slices.Grow(p.entCoef, entries)
}

// Reset empties p into the state NewProblem returns — no variables, no
// rows, default settings and no Trace — but keeps its buffers' capacity,
// so a caller that builds one problem after another can reuse one Problem.
func (p *Problem) Reset() {
	clear(p.names) // drop the name strings the buffers still reference
	clear(p.constraints)
	*p = Problem{
		names: p.names[:0], cost: p.cost[:0], upper: p.upper[:0],
		constraints: p.constraints[:0],
		entIdx:      p.entIdx[:0], entCoef: p.entCoef[:0],
	}
}

// NumVars returns the number of variables added so far.
func (p *Problem) NumVars() int { return len(p.names) }

// NumConstraints returns the number of constraints added so far.
func (p *Problem) NumConstraints() int { return len(p.constraints) }

// AddVariable adds a variable named name with lower bound 0, no upper bound
// and zero objective cost, returning its index. Variable names identify
// columns when a Basis is mapped onto a different problem, so callers that
// warm-start should keep them unique and stable across rounds.
func (p *Problem) AddVariable(name string) int {
	p.names = append(p.names, name)
	p.cost = append(p.cost, 0)
	p.upper = append(p.upper, infUB)
	return len(p.names) - 1
}

// Name returns the name given to variable v.
func (p *Problem) Name(v int) string { return p.names[v] }

// AddCost adds c to variable v's objective coefficient. Repeated calls
// accumulate, which lets each hypothesis contribute its own penalty term to
// a shared variable.
func (p *Problem) AddCost(v int, c float64) {
	p.cost[v] += c
}

// SetUpperBound constrains variable v to be at most u (u must be ≥ 0).
func (p *Problem) SetUpperBound(v int, u float64) {
	p.upper[v] = u
}

// AddRow adds the constraint Σ coeffs[k]·x_idx[k]  sense  rhs named name.
// The entries must be sorted by strictly ascending variable index with no
// zero coefficients; the order is verified (panic on violation), so misuse
// can never silently break the index-sorted-rows invariant presolve's
// arithmetic depends on. The entries are copied, so callers may reuse the
// slices. Row names identify constraint rows (and their slack/artificial
// columns) when a Basis from a previous solve is mapped onto this problem,
// so warm-starting callers should keep them unique and stable across
// rounds.
func (p *Problem) AddRow(name string, idx []int, coeffs []float64, sense Sense, rhs float64) {
	if len(idx) != len(coeffs) {
		panic("lp: AddRow index/coefficient length mismatch")
	}
	for k, v := range idx {
		if v < 0 || v >= len(p.names) {
			panic(fmt.Sprintf("lp: constraint references unknown variable %d", v))
		}
		if k > 0 && idx[k-1] >= v {
			panic("lp: AddRow entries not strictly ascending by variable index")
		}
		if coeffs[k] == 0 {
			panic("lp: AddRow zero coefficient")
		}
	}
	start := len(p.entIdx)
	p.entIdx = append(p.entIdx, idx...)
	p.entCoef = append(p.entCoef, coeffs...)
	p.appendRow(name, start, sense, rhs)
}

// appendRow adds the constraint whose entries occupy the entry buffers
// from start to their end.
func (p *Problem) appendRow(name string, start int, sense Sense, rhs float64) {
	end := len(p.entIdx)
	p.constraints = append(p.constraints, constraint{
		name: name, sense: sense, rhs: rhs,
		idx:    p.entIdx[start:end:end],
		coeffs: p.entCoef[start:end:end],
	})
}

// maxIters resolves the pivot budget.
func (p *Problem) maxIters() int {
	if p.MaxIters > 0 {
		return p.MaxIters
	}
	return defaultMaxIter
}

// Solution holds the result of Solve.
type Solution struct {
	Status    Status
	X         []float64 // value per structural variable, len == NumVars
	Objective float64   // cᵀx at the optimum (meaningful only when Optimal)
	Iters     int       // simplex pivots performed, all phases and components

	// Components is the number of independent blocks the problem split
	// into (1 when it did not decompose; 0 when it has no variables).
	Components int
	// RowsPresolved / ColsPresolved count the constraint rows and variables
	// eliminated by presolve before the simplex ran.
	RowsPresolved int
	ColsPresolved int

	// Basis is the optimal basis (sparse backend only, nil otherwise); pass
	// it to SolveWarm on the next, incrementally modified problem.
	Basis *Basis
	// WarmStarted reports whether a supplied warm basis was actually
	// applied (false when it was rejected and the solve fell back to a cold
	// start).
	WarmStarted bool
}

// Value returns the solution value of variable v.
func (s *Solution) Value(v int) float64 { return s.X[v] }

// Solve runs the sparse revised simplex from a cold start and returns the
// optimal vertex, or a Solution whose Status reports why there is no finite
// optimum (accompanied by a wrapped ErrNotOptimal / ErrIterationLimit).
func (p *Problem) Solve() (*Solution, error) {
	return p.SolveWarm(nil)
}

// SolveWarm is Solve, seeded with the optimal basis of a previous —
// typically slightly smaller — problem. The basis is mapped onto this
// problem by variable and constraint-row names: rows that kept their basic
// column re-enter the basis directly, new rows enter on their slack,
// singleton or surplus column, and vanished columns are dropped. If the
// mapped basis cannot be completed, is singular or is primal infeasible,
// SolveWarm falls back to the cold two-phase path, so it is never less
// correct than Solve — only faster when the problems are related.
func (p *Problem) SolveWarm(warm *Basis) (*Solution, error) {
	span := p.Trace.Child("solve",
		obs.Int("vars", p.NumVars()),
		obs.Int("rows", p.NumConstraints()),
		obs.Bool("warm_attempt", warm != nil))
	sol, err := solveSparse(p, warm)
	if sol != nil {
		span.Annotate(
			obs.Int("iters", sol.Iters),
			obs.Int("components", sol.Components),
			obs.Int("presolve_rows", sol.RowsPresolved),
			obs.Int("presolve_cols", sol.ColsPresolved),
			obs.Bool("warm", sol.WarmStarted),
			obs.Str("status", sol.Status.String()))
	}
	span.End()
	return sol, err
}

// statusErr converts a non-optimal terminal status into the error Solve
// reports alongside the Solution.
func statusErr(status Status) error {
	if status == IterLimit {
		return fmt.Errorf("%w (budget exhausted)", ErrIterationLimit)
	}
	return fmt.Errorf("%w: %s", ErrNotOptimal, status)
}
