package lp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// randProblem builds a SherLock-shaped random LP: probability variables in
// [0,1] with distinct positive costs, Mostly-Protected-style GE rows
// (ε + Σ candidates ≥ 1) and a few pairing-style EQ rows. Distinct costs
// keep the optimum essentially unique so cold and warm solves can be
// compared vertex-to-vertex, not just by objective.
func randProblem(rng *rand.Rand) *Problem {
	p := NewProblem()
	nv := 4 + rng.Intn(10)
	vars := make([]int, nv)
	for i := range vars {
		v := p.AddVariable(varName(i))
		p.SetUpperBound(v, 1)
		p.AddCost(v, 0.1+rng.Float64()+float64(i)*1e-3)
		vars[i] = v
	}
	nrows := 3 + rng.Intn(8)
	for r := 0; r < nrows; r++ {
		eName := "e" + string(rune('A'+r))
		e := p.AddVariable(eName)
		p.AddCost(e, 2+rng.Float64()+float64(r)*1e-3)
		coeffs := map[int]float64{e: 1}
		for _, v := range vars {
			if rng.Float64() < 0.4 {
				coeffs[v] = 1
			}
		}
		p.AddNamedConstraint("mp#"+eName, coeffs, GE, 1)
	}
	if nv >= 4 && rng.Float64() < 0.7 {
		t := p.AddVariable("t0")
		p.AddCost(t, 1.5)
		p.AddNamedConstraint("pair#0",
			map[int]float64{vars[0]: 1, vars[1]: 1, vars[2]: -1, vars[3]: -1, t: 1}, GE, 0)
		p.AddNamedConstraint("pair#1",
			map[int]float64{vars[0]: -1, vars[1]: -1, vars[2]: 1, vars[3]: 1, t: 1}, GE, 0)
	}
	return p
}

func varName(i int) string {
	return "v" + string(rune('a'+i%26)) + string(rune('0'+i/26))
}

// sameThresholded checks that a and b induce the same thresholded set at
// 0.5, tolerating float noise: values within 1e-6 of each other may sit on
// opposite sides of the cut only if both are within 1e-6 of it.
func sameThresholded(a, b []float64) (int, bool) {
	for v := range a {
		if math.Abs(a[v]-b[v]) > 1e-6 {
			return v, false
		}
		if (a[v] >= 0.5) != (b[v] >= 0.5) && math.Abs(a[v]-0.5) > 1e-6 {
			return v, false
		}
	}
	return -1, true
}

// TestDenseSparseEquivalence cross-checks the two backends on randomized
// problems: same status, same objective, same thresholded vertex.
func TestDenseSparseEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		p := randProblem(rng)
		ds, derr := p.SolveDense()
		ss, serr := p.Solve()
		if (derr == nil) != (serr == nil) {
			t.Fatalf("trial %d: dense err=%v sparse err=%v", trial, derr, serr)
		}
		if derr != nil {
			if ds.Status != ss.Status {
				t.Fatalf("trial %d: dense status %v, sparse status %v", trial, ds.Status, ss.Status)
			}
			continue
		}
		if math.Abs(ds.Objective-ss.Objective) > 1e-6 {
			t.Fatalf("trial %d: dense obj %v, sparse obj %v", trial, ds.Objective, ss.Objective)
		}
		if v, ok := sameThresholded(ds.X, ss.X); !ok {
			t.Fatalf("trial %d: var %s differs: dense %v sparse %v",
				trial, p.Name(v), ds.X[v], ss.X[v])
		}
	}
}

// perturb grows p the way a Perturber round grows the encoding: appends a
// fresh MP-style row with its own ε variable (sometimes reusing existing
// variables) and occasionally bumps an existing cost.
func perturb(p *Problem, rng *rand.Rand) {
	e := p.AddVariable("ep" + string(rune('0'+rng.Intn(10))) + string(rune('a'+rng.Intn(26))))
	p.AddCost(e, 2+rng.Float64())
	coeffs := map[int]float64{e: 1}
	for v := 0; v < p.NumVars()-1; v++ {
		if rng.Float64() < 0.3 {
			coeffs[v] = 1
		}
	}
	p.AddNamedConstraint("mp#"+p.Name(e), coeffs, GE, 1)
	if rng.Float64() < 0.5 {
		p.AddCost(rng.Intn(p.NumVars()), 0.05*rng.Float64())
	}
}

// TestWarmStartEquivalence is the warm-start property test: for randomized
// problems, a warm solve seeded with the (possibly stale, perturbed-problem)
// prior basis must reach the same objective and the same thresholded set as
// a cold solve of the identical problem.
func TestWarmStartEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	warmApplied := 0
	for trial := 0; trial < 200; trial++ {
		p := randProblem(rng)
		prior, err := p.Solve()
		if err != nil {
			continue
		}
		perturb(p, rng)
		cold, cerr := p.Solve()
		warm, werr := p.SolveWarm(prior.Basis)
		if (cerr == nil) != (werr == nil) {
			t.Fatalf("trial %d: cold err=%v warm err=%v", trial, cerr, werr)
		}
		if cerr != nil {
			continue
		}
		if warm.WarmStarted {
			warmApplied++
		}
		if math.Abs(cold.Objective-warm.Objective) > 1e-6 {
			t.Fatalf("trial %d: cold obj %v, warm obj %v (warmStarted=%v)",
				trial, cold.Objective, warm.Objective, warm.WarmStarted)
		}
		if v, ok := sameThresholded(cold.X, warm.X); !ok {
			t.Fatalf("trial %d: var %s differs: cold %v warm %v (warmStarted=%v)",
				trial, p.Name(v), cold.X[v], warm.X[v], warm.WarmStarted)
		}
	}
	// The warm path must actually engage for the test to mean anything.
	if warmApplied < 50 {
		t.Fatalf("warm basis applied in only %d/200 trials; warm path not exercised", warmApplied)
	}
}

// TestWarmStartUnrelatedBasis checks that a basis from a structurally
// unrelated problem is harmless: the solve falls back to cold and still
// reaches the optimum.
func TestWarmStartUnrelatedBasis(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randProblem(rng)
	sa, err := a.Solve()
	if err != nil {
		t.Fatalf("solve a: %v", err)
	}
	b := NewProblem()
	x := b.AddVariable("x")
	y := b.AddVariable("y")
	b.AddCost(x, 1)
	b.AddCost(y, 2)
	b.AddNamedConstraint("r0", map[int]float64{x: 1, y: 1}, GE, 1)
	cold, err := b.Solve()
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	warm, err := b.SolveWarm(sa.Basis)
	if err != nil {
		t.Fatalf("warm with unrelated basis: %v", err)
	}
	if math.Abs(cold.Objective-warm.Objective) > 1e-9 {
		t.Fatalf("cold obj %v, warm obj %v", cold.Objective, warm.Objective)
	}
}

// TestIterationLimitSentinel checks that exhausting the pivot budget is a
// reported error, not a silently returned suboptimal vertex, on both
// backends.
func TestIterationLimitSentinel(t *testing.T) {
	build := func() *Problem {
		p := NewProblem()
		vars := make([]int, 6)
		for i := range vars {
			vars[i] = p.AddVariable(varName(i))
			p.SetUpperBound(vars[i], 1)
			p.AddCost(vars[i], float64(i+1))
		}
		for r := 0; r < 5; r++ {
			coeffs := map[int]float64{}
			for i, v := range vars {
				if (i+r)%2 == 0 {
					coeffs[v] = 1
				}
			}
			p.AddConstraint(coeffs, GE, 1)
		}
		p.MaxIters = 1
		return p
	}
	sol, err := build().Solve()
	if !errors.Is(err, ErrIterationLimit) {
		t.Fatalf("sparse: want ErrIterationLimit, got %v", err)
	}
	if !errors.Is(err, ErrNotOptimal) {
		t.Fatalf("sparse: ErrIterationLimit must wrap ErrNotOptimal, got %v", err)
	}
	if sol.Status != IterLimit {
		t.Fatalf("sparse: status = %v, want IterLimit", sol.Status)
	}
	dsol, derr := build().SolveDense()
	if !errors.Is(derr, ErrIterationLimit) {
		t.Fatalf("dense: want ErrIterationLimit, got %v", derr)
	}
	if dsol.Status != IterLimit {
		t.Fatalf("dense: status = %v, want IterLimit", dsol.Status)
	}
}

// TestDegenerateBland solves Beale's classic cycling example, which loops
// forever under pure Dantzig pricing without an anti-cycling rule. Both
// backends must escape via the Bland's-rule switch and find the optimum
// (objective −0.05).
func TestDegenerateBland(t *testing.T) {
	build := func() *Problem {
		p := NewProblem()
		x1 := p.AddVariable("x1")
		x2 := p.AddVariable("x2")
		x3 := p.AddVariable("x3")
		x4 := p.AddVariable("x4")
		p.AddCost(x1, -0.75)
		p.AddCost(x2, 150)
		p.AddCost(x3, -0.02)
		p.AddCost(x4, 6)
		p.AddNamedConstraint("r0", map[int]float64{x1: 0.25, x2: -60, x3: -1.0 / 25, x4: 9}, LE, 0)
		p.AddNamedConstraint("r1", map[int]float64{x1: 0.5, x2: -90, x3: -1.0 / 50, x4: 3}, LE, 0)
		p.AddNamedConstraint("r2", map[int]float64{x3: 1}, LE, 1)
		return p
	}
	for name, solve := range map[string]func(*Problem) (*Solution, error){
		"sparse": func(p *Problem) (*Solution, error) { return p.Solve() },
		"dense":  func(p *Problem) (*Solution, error) { return p.SolveDense() },
	} {
		sol, err := solve(build())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(sol.Objective-(-0.05)) > 1e-9 {
			t.Fatalf("%s: objective = %v, want -0.05", name, sol.Objective)
		}
	}
}

// TestBasisRoundTrip checks that re-solving the same problem from its own
// optimal basis is a pure warm start: basis accepted and near-zero extra
// pivots.
func TestBasisRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	p := randProblem(rng)
	first, err := p.Solve()
	if err != nil {
		t.Fatalf("first solve: %v", err)
	}
	if first.Basis.Size() == 0 {
		t.Fatal("optimal solve returned empty basis")
	}
	again, err := p.SolveWarm(first.Basis)
	if err != nil {
		t.Fatalf("warm re-solve: %v", err)
	}
	if !again.WarmStarted {
		t.Fatal("identical problem did not warm start")
	}
	if math.Abs(first.Objective-again.Objective) > 1e-9 {
		t.Fatalf("objective changed on re-solve: %v vs %v", first.Objective, again.Objective)
	}
	if again.Iters > first.Iters/2+2 {
		t.Fatalf("warm re-solve took %d pivots (cold took %d); warm start not effective",
			again.Iters, first.Iters)
	}
}

// TestColdFallbackNeverOptimal drives a component's cold restart into the
// primal-infeasible sentinel, which no solved problem has reached: the
// component must be reported as not optimal, and the merge of its status
// with an optimal component's must not hide it.
func TestColdFallbackNeverOptimal(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable("x")
	p.SetUpperBound(x, 1)
	p.AddCost(x, 1)
	p.AddConstraint(map[int]float64{x: 1}, GE, 0.5)
	y, z := p.AddVariable("y"), p.AddVariable("z")
	for _, v := range []int{y, z} {
		p.SetUpperBound(v, 1)
		p.AddCost(v, 2)
	}
	p.AddConstraint(map[int]float64{y: 1, z: 1}, GE, 1)

	real := runOptimize
	defer func() { runOptimize = real }()
	sol, err := p.Solve()
	if err != nil || sol.Status != Optimal || sol.Components != 2 {
		t.Fatalf("unforced solve: status %v, %d components, err %v; want optimal over 2", sol.Status, sol.Components, err)
	}
	// Only the two-variable component falls back, warm and cold alike.
	runOptimize = func(r *revised) Status {
		if r.sf.n == 2 {
			return fallbackStatus
		}
		return real(r)
	}
	sol, err = p.Solve()
	if sol.Status == Optimal || sol.Status == fallbackStatus {
		t.Fatalf("status = %v (%d), want a public non-optimal status", sol.Status, int(sol.Status))
	}
	if !errors.Is(err, ErrNotOptimal) {
		t.Fatalf("err = %v, want one wrapping ErrNotOptimal", err)
	}
	if statusRank(fallbackStatus) <= statusRank(Optimal) {
		t.Fatal("statusRank ranks an unknown status with Optimal")
	}
}
