package lp

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// AddConstraint adds Σ coeffs[v]·x_v  sense  rhs under an automatic name.
// Zero coefficients are dropped.
func (p *Problem) AddConstraint(coeffs map[int]float64, sense Sense, rhs float64) {
	p.AddNamedConstraint(fmt.Sprintf("c#%d", len(p.constraints)), coeffs, sense, rhs)
}

// AddNamedConstraint is AddConstraint with an explicit row name: the
// coefficient-map form of AddRow that hand-written test problems use.
func (p *Problem) AddNamedConstraint(name string, coeffs map[int]float64, sense Sense, rhs float64) {
	idx := make([]int, 0, len(coeffs))
	for v, a := range coeffs {
		if a != 0 {
			idx = append(idx, v)
		}
	}
	sort.Ints(idx)
	vals := make([]float64, len(idx))
	for k, v := range idx {
		vals[k] = coeffs[v]
	}
	p.AddRow(name, idx, vals, sense, rhs)
}

func solveOK(t *testing.T, p *Problem) *Solution {
	t.Helper()
	s, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v (status %s)", err, s.Status)
	}
	return s
}

func TestSimpleMin(t *testing.T) {
	// min x+y s.t. x+y >= 1, x <= 0.3  => x can be anything; optimum 1.
	p := NewProblem()
	x := p.AddVariable("x")
	y := p.AddVariable("y")
	p.AddCost(x, 1)
	p.AddCost(y, 1)
	p.AddConstraint(map[int]float64{x: 1, y: 1}, GE, 1)
	p.SetUpperBound(x, 0.3)
	s := solveOK(t, p)
	if math.Abs(s.Objective-1) > 1e-7 {
		t.Errorf("objective = %v, want 1", s.Objective)
	}
	if s.X[x] > 0.3+1e-9 {
		t.Errorf("x = %v violates upper bound", s.X[x])
	}
}

func TestClassicMaximization(t *testing.T) {
	// max 3x+5y s.t. x<=4, 2y<=12, 3x+2y<=18 (classic Dantzig example).
	// Optimum x=2, y=6, obj=36. We minimize the negation.
	p := NewProblem()
	x := p.AddVariable("x")
	y := p.AddVariable("y")
	p.AddCost(x, -3)
	p.AddCost(y, -5)
	p.AddConstraint(map[int]float64{x: 1}, LE, 4)
	p.AddConstraint(map[int]float64{y: 2}, LE, 12)
	p.AddConstraint(map[int]float64{x: 3, y: 2}, LE, 18)
	s := solveOK(t, p)
	if math.Abs(s.Objective+36) > 1e-6 {
		t.Errorf("objective = %v, want -36", s.Objective)
	}
	if math.Abs(s.X[x]-2) > 1e-6 || math.Abs(s.X[y]-6) > 1e-6 {
		t.Errorf("x,y = %v,%v, want 2,6", s.X[x], s.X[y])
	}
}

func TestEqualityConstraint(t *testing.T) {
	// min 2x+3y s.t. x+y = 10, x >= 2 -> x=8,y=2? No: cost favors x (2<3)
	// so push x up: x=10-y, obj=20+y, min at y=0 => but x>=2 slack. x=10,y=0.
	p := NewProblem()
	x := p.AddVariable("x")
	y := p.AddVariable("y")
	p.AddCost(x, 2)
	p.AddCost(y, 3)
	p.AddConstraint(map[int]float64{x: 1, y: 1}, EQ, 10)
	p.AddConstraint(map[int]float64{x: 1}, GE, 2)
	s := solveOK(t, p)
	if math.Abs(s.X[x]-10) > 1e-6 || math.Abs(s.X[y]) > 1e-6 {
		t.Errorf("x,y = %v,%v, want 10,0", s.X[x], s.X[y])
	}
	if math.Abs(s.Objective-20) > 1e-6 {
		t.Errorf("objective = %v, want 20", s.Objective)
	}
}

// addVars adds one variable per (cost, upper bound) pair, named x0, x1, …;
// an upper bound of -1 leaves the variable unbounded above.
func addVars(p *Problem, costUpper ...float64) {
	for k := 0; k+1 < len(costUpper); k += 2 {
		v := p.AddVariable(fmt.Sprintf("x%d", k/2))
		p.AddCost(v, costUpper[k])
		if u := costUpper[k+1]; u >= 0 {
			p.SetUpperBound(v, u)
		}
	}
}

// TestInfeasible covers each way a problem proves infeasible: singleton
// rows outside the column's bounds, rows their activity bounds cannot
// meet, and an empty row that no choice of x satisfies. The dense oracle
// must agree on every case.
func TestInfeasible(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(p *Problem)
	}{
		{"GE singleton above u", func(p *Problem) { // x ≥ 5, x ≤ 1
			addVars(p, 0, 1)
			p.AddConstraint(map[int]float64{0: 1}, GE, 5)
		}},
		{"EQ singleton above u", func(p *Problem) { // x = 3, x ≤ 1
			addVars(p, 0, 1)
			p.AddConstraint(map[int]float64{0: 1}, EQ, 3)
		}},
		{"EQ singleton below 0", func(p *Problem) { // 2x = -2
			addVars(p, 0, 1)
			p.AddConstraint(map[int]float64{0: 2}, EQ, -2)
		}},
		{"LE singleton below 0", func(p *Problem) { // x ≤ -1
			addVars(p, 0, -1)
			p.AddConstraint(map[int]float64{0: 1}, LE, -1)
		}},
		{"GE row above its maximum activity", func(p *Problem) { // x + y ≥ 5, x ≤ 1, y ≤ 2
			addVars(p, 0, 1, 0, 2)
			p.AddConstraint(map[int]float64{0: 1, 1: 1}, GE, 5)
		}},
		{"EQ row that cannot be met", func(p *Problem) { // x + y = 3, x ≤ 1, y ≤ 1
			addVars(p, 0, 1, 0, 1)
			p.AddConstraint(map[int]float64{0: 1, 1: 1}, EQ, 3)
		}},
		// A rowless negative-cost column, unbounded above, beside an empty
		// row 0 ≤ -3: the empty row makes the problem infeasible, however
		// far the free column could improve the objective.
		{"empty row beside a rowless unbounded column", func(p *Problem) {
			addVars(p, -3, -1, 0, 0)
			p.AddRow("empty", nil, nil, LE, -3)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewProblem()
			tc.build(p)
			if s, err := p.Solve(); err == nil || s.Status != Infeasible {
				t.Errorf("Solve: want infeasible, got status %s err %v", s.Status, err)
			}
			if s, err := p.SolveDense(); err == nil || s.Status != Infeasible {
				t.Errorf("SolveDense: want infeasible, got status %s err %v", s.Status, err)
			}
		})
	}
}

// TestUnbounded covers negative-cost columns: unbounded when nothing caps
// them, optimal when an upper bound (zero included) or a row that only
// x = 0 satisfies does. The dense oracle must agree on every case.
func TestUnbounded(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(p *Problem)
		want  Status
		x     []float64 // the optimum, when want is Optimal
	}{
		{"GE row open above", func(p *Problem) { // max x s.t. x ≥ 0
			addVars(p, -1, -1)
			p.AddConstraint(map[int]float64{0: 1}, GE, 0)
		}, Unbounded, nil},
		{"rowless column without upper bound", func(p *Problem) {
			addVars(p, -1, -1)
		}, Unbounded, nil},
		{"rowless column with finite u", func(p *Problem) {
			addVars(p, -1, 2.5)
		}, Optimal, []float64{2.5}},
		{"u = 0 column", func(p *Problem) { // min -x + y s.t. x + y ≥ 1, x ≤ 0
			addVars(p, -1, 0, 1, -1)
			p.AddConstraint(map[int]float64{0: 1, 1: 1}, GE, 1)
		}, Optimal, []float64{0, 1}},
		{"forcing row x + y ≤ 0", func(p *Problem) { // min -x - y s.t. x + y ≤ 0
			addVars(p, -1, -1, -1, -1)
			p.AddConstraint(map[int]float64{0: 1, 1: 1}, LE, 0)
		}, Optimal, []float64{0, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewProblem()
			tc.build(p)
			for _, solve := range []struct {
				name string
				fn   func() (*Solution, error)
			}{{"Solve", p.Solve}, {"SolveDense", p.SolveDense}} {
				s, err := solve.fn()
				if s.Status != tc.want || (err == nil) != (tc.want == Optimal) {
					t.Fatalf("%s: want %s, got status %s err %v", solve.name, tc.want, s.Status, err)
				}
				for v, want := range tc.x {
					if math.Abs(s.X[v]-want) > 1e-9 {
						t.Errorf("%s: x%d = %v, want %v", solve.name, v, s.X[v], want)
					}
				}
			}
		})
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// x - y <= -2 with x,y >= 0: i.e. y >= x+2. min y => y=2, x=0.
	p := NewProblem()
	x := p.AddVariable("x")
	y := p.AddVariable("y")
	p.AddCost(y, 1)
	p.AddConstraint(map[int]float64{x: 1, y: -1}, LE, -2)
	s := solveOK(t, p)
	if math.Abs(s.X[y]-2) > 1e-6 {
		t.Errorf("y = %v, want 2", s.X[y])
	}
}

func TestMaxZeroLinearization(t *testing.T) {
	// eps >= 1 - (a+b), eps >= 0, minimize eps + 0.5a + 0.5b.
	// Cheapest: raise a+b to 1 paying 0.5, vs eps=1 paying 1. Opt = 0.5.
	p := NewProblem()
	a := p.AddVariable("a")
	b := p.AddVariable("b")
	e := p.AddVariable("eps")
	p.SetUpperBound(a, 1)
	p.SetUpperBound(b, 1)
	p.AddCost(a, 0.5)
	p.AddCost(b, 0.5)
	p.AddCost(e, 1)
	p.AddConstraint(map[int]float64{e: 1, a: 1, b: 1}, GE, 1)
	s := solveOK(t, p)
	if math.Abs(s.Objective-0.5) > 1e-6 {
		t.Errorf("objective = %v, want 0.5", s.Objective)
	}
	if s.X[e] > 1e-6 {
		t.Errorf("eps = %v, want 0", s.X[e])
	}
}

func TestAbsLinearization(t *testing.T) {
	// t >= x-y, t >= y-x, x = 0.8 fixed, minimize t + 0.1y => y pulled to x.
	p := NewProblem()
	x := p.AddVariable("x")
	y := p.AddVariable("y")
	tt := p.AddVariable("t")
	p.AddConstraint(map[int]float64{x: 1}, EQ, 0.8)
	p.AddConstraint(map[int]float64{tt: 1, x: -1, y: 1}, GE, 0)
	p.AddConstraint(map[int]float64{tt: 1, x: 1, y: -1}, GE, 0)
	p.AddCost(tt, 1)
	p.AddCost(y, 0.1)
	s := solveOK(t, p)
	if math.Abs(s.X[y]-0.8) > 1e-6 {
		t.Errorf("y = %v, want 0.8 (pulled to x by |x-y| penalty)", s.X[y])
	}
}

func TestDegenerateDoesNotCycle(t *testing.T) {
	// A classically degenerate LP (Beale's cycling example shape).
	p := NewProblem()
	x1 := p.AddVariable("x1")
	x2 := p.AddVariable("x2")
	x3 := p.AddVariable("x3")
	x4 := p.AddVariable("x4")
	p.AddCost(x1, -0.75)
	p.AddCost(x2, 150)
	p.AddCost(x3, -0.02)
	p.AddCost(x4, 6)
	p.AddConstraint(map[int]float64{x1: 0.25, x2: -60, x3: -0.04, x4: 9}, LE, 0)
	p.AddConstraint(map[int]float64{x1: 0.5, x2: -90, x3: -0.02, x4: 3}, LE, 0)
	p.AddConstraint(map[int]float64{x3: 1}, LE, 1)
	s := solveOK(t, p)
	if math.Abs(s.Objective+0.05) > 1e-6 {
		t.Errorf("objective = %v, want -0.05", s.Objective)
	}
}

func TestRedundantEqualities(t *testing.T) {
	// Duplicate equality rows leave an artificial basic at zero; the solver
	// must purge it and still solve.
	p := NewProblem()
	x := p.AddVariable("x")
	y := p.AddVariable("y")
	p.AddCost(x, 1)
	p.AddCost(y, 1)
	p.AddConstraint(map[int]float64{x: 1, y: 1}, EQ, 4)
	p.AddConstraint(map[int]float64{x: 1, y: 1}, EQ, 4) // redundant copy
	p.AddConstraint(map[int]float64{x: 1}, GE, 1)
	s := solveOK(t, p)
	if math.Abs(s.Objective-4) > 1e-6 {
		t.Errorf("objective = %v, want 4", s.Objective)
	}
}

func TestZeroConstraintCoefficientsDropped(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable("x")
	p.AddCost(x, 1)
	p.AddConstraint(map[int]float64{x: 0}, GE, 0) // all-zero row
	p.AddConstraint(map[int]float64{x: 1}, GE, 3)
	s := solveOK(t, p)
	if math.Abs(s.X[x]-3) > 1e-6 {
		t.Errorf("x = %v, want 3", s.X[x])
	}
}

// feasible reports whether x satisfies all of p's constraints and bounds.
func feasible(p *Problem, x []float64) bool {
	for v := range x {
		if x[v] < -1e-6 || x[v] > p.upper[v]+1e-6 {
			return false
		}
	}
	for _, c := range p.constraints {
		lhs := 0.0
		for k, v := range c.idx {
			lhs += c.coeffs[k] * x[v]
		}
		switch c.sense {
		case LE:
			if lhs > c.rhs+1e-6 {
				return false
			}
		case GE:
			if lhs < c.rhs-1e-6 {
				return false
			}
		case EQ:
			if math.Abs(lhs-c.rhs) > 1e-6 {
				return false
			}
		}
	}
	return true
}

// TestRandomLPsAgainstSampling builds random box-bounded LPs (always
// feasible at some sampled point) and checks (a) the solver's answer is
// feasible and (b) no randomly sampled feasible point beats it.
func TestRandomLPsAgainstSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(4)
		p := NewProblem()
		for v := 0; v < n; v++ {
			idx := p.AddVariable("v")
			p.SetUpperBound(idx, 1)
			p.AddCost(idx, rng.Float64()*4-2)
		}
		// Anchor point guaranteed feasible.
		anchor := make([]float64, n)
		for v := range anchor {
			anchor[v] = rng.Float64()
		}
		m := 1 + rng.Intn(5)
		for i := 0; i < m; i++ {
			coeffs := map[int]float64{}
			lhs := 0.0
			for v := 0; v < n; v++ {
				a := rng.Float64()*4 - 2
				coeffs[v] = a
				lhs += a * anchor[v]
			}
			// Pick a sense consistent with the anchor.
			if rng.Intn(2) == 0 {
				p.AddConstraint(coeffs, LE, lhs+rng.Float64())
			} else {
				p.AddConstraint(coeffs, GE, lhs-rng.Float64())
			}
		}
		s, err := p.Solve()
		if err != nil {
			t.Fatalf("trial %d: unexpected %v (anchor is feasible)", trial, err)
		}
		if !feasible(p, s.X) {
			t.Fatalf("trial %d: solver returned infeasible point %v", trial, s.X)
		}
		// Sampling: solver must not be beaten by any feasible sample.
		for k := 0; k < 300; k++ {
			cand := make([]float64, n)
			for v := range cand {
				cand[v] = rng.Float64()
			}
			if !feasible(p, cand) {
				continue
			}
			obj := 0.0
			for v := range cand {
				obj += p.cost[v] * cand[v]
			}
			if obj < s.Objective-1e-5 {
				t.Fatalf("trial %d: sampled point beats solver: %v < %v", trial, obj, s.Objective)
			}
		}
	}
}

func TestDeterministic(t *testing.T) {
	build := func() *Problem {
		p := NewProblem()
		for i := 0; i < 6; i++ {
			v := p.AddVariable("v")
			p.SetUpperBound(v, 1)
			p.AddCost(v, float64(i%3)-1)
		}
		p.AddConstraint(map[int]float64{0: 1, 1: 1, 2: 1}, GE, 1)
		p.AddConstraint(map[int]float64{3: 1, 4: -1}, LE, 0.5)
		p.AddConstraint(map[int]float64{5: 1, 0: 1}, EQ, 1)
		return p
	}
	a := solveOK(t, build())
	b := solveOK(t, build())
	for i := range a.X {
		if a.X[i] != b.X[i] {
			t.Fatalf("non-deterministic solve: %v vs %v", a.X, b.X)
		}
	}
}
