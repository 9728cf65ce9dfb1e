package lp

// Randomized property tests for the LU-factorized solver: the three ways
// of maintaining the basis — pure LU (refactorized every pivot), LU plus
// the product-form eta file (the default), and the dense tableau — must
// agree on every problem, and dual re-optimization from a carried basis
// must match a cold solve after arbitrary row additions and excisions.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sameBasis reports whether a and b hold the same (row, basic column)
// identities in the same order; two nil bases are the same.
func sameBasis(a, b *Basis) bool {
	if a == nil || b == nil {
		return a == b
	}
	return slices.Equal(a.rows, b.rows) && slices.Equal(a.bcol, b.bcol)
}

// assertNoNegZero fails if any solution value is a negative zero — the
// extract path canonicalizes −0 to +0 so serialized solutions are
// byte-stable.
func assertNoNegZero(t *testing.T, label string, x []float64) {
	t.Helper()
	for v, val := range x {
		if val == 0 && math.Signbit(val) {
			t.Fatalf("%s: variable %d is -0 (must be canonicalized to +0)", label, v)
		}
	}
}

// TestLUEtaDenseAgreement solves randomized problems three ways: with the
// eta file disabled (etaEvery=1 forces a fresh LU factorization after
// every pivot), with the default product-form-on-LU eta updates, and with
// the dense reference backend. All three must report the same status, and
// on optimal problems the same objective and the same thresholded vertex.
func TestLUEtaDenseAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	decomposed := 0
	for trial := 0; trial < 60; trial++ {
		p := randProblem(rng)

		p.etaEvery = 1 // pure LU: refactorize after every pivot
		luSol, luErr := p.Solve()
		p.etaEvery = 0 // default: LU + eta file
		etaSol, etaErr := p.Solve()
		denseSol, denseErr := p.SolveDense()

		if (luErr == nil) != (etaErr == nil) || (luErr == nil) != (denseErr == nil) {
			t.Fatalf("trial %d: error disagreement: lu=%v eta=%v dense=%v", trial, luErr, etaErr, denseErr)
		}
		if luSol.Status != etaSol.Status || luSol.Status != denseSol.Status {
			t.Fatalf("trial %d: status disagreement: lu=%v eta=%v dense=%v",
				trial, luSol.Status, etaSol.Status, denseSol.Status)
		}
		if luSol.Components > 1 {
			decomposed++
		}
		if luErr != nil {
			continue
		}
		if math.Abs(luSol.Objective-etaSol.Objective) > 1e-6 {
			t.Fatalf("trial %d: objective lu=%g eta=%g", trial, luSol.Objective, etaSol.Objective)
		}
		if math.Abs(luSol.Objective-denseSol.Objective) > 1e-6 {
			t.Fatalf("trial %d: objective lu=%g dense=%g", trial, luSol.Objective, denseSol.Objective)
		}
		if v, ok := sameThresholded(luSol.X, etaSol.X); !ok {
			t.Fatalf("trial %d: lu vs eta vertex differs at var %d: %g vs %g",
				trial, v, luSol.X[v], etaSol.X[v])
		}
		if v, ok := sameThresholded(luSol.X, denseSol.X); !ok {
			t.Fatalf("trial %d: lu vs dense vertex differs at var %d: %g vs %g",
				trial, v, luSol.X[v], denseSol.X[v])
		}
		assertNoNegZero(t, "lu", luSol.X)
		assertNoNegZero(t, "eta", etaSol.X)
	}
	// The pure-LU arm must cover component solves, not only whole ones.
	if decomposed == 0 {
		t.Fatal("no trial decomposed into components; the pure-LU arm never reached a component solve")
	}
}

// mutableLP is a rebuildable problem specification for the add/excise
// test: the dual path needs *problems*, not mutations of one Problem, so
// every step rebuilds from the spec. Variable and row names are stable, so
// a basis carried across rebuilds maps by name exactly as the Perturber
// rounds' bases do.
type mutableLP struct {
	names []string
	cost  []float64
	upper []float64
	rows  []constraint
}

func specFrom(p *Problem) *mutableLP {
	s := &mutableLP{
		names: append([]string(nil), p.names...),
		cost:  append([]float64(nil), p.cost...),
		upper: append([]float64(nil), p.upper...),
	}
	for _, c := range p.constraints {
		s.rows = append(s.rows, constraint{
			name: c.name, sense: c.sense, rhs: c.rhs,
			idx:    append([]int(nil), c.idx...),
			coeffs: append([]float64(nil), c.coeffs...),
		})
	}
	return s
}

func (s *mutableLP) build() *Problem {
	p := NewProblem()
	for i, n := range s.names {
		v := p.AddVariable(n)
		p.cost[v] = s.cost[i]
		p.upper[v] = s.upper[i]
	}
	for _, c := range s.rows {
		coeffs := map[int]float64{}
		for k, v := range c.idx {
			coeffs[v] = c.coeffs[k]
		}
		p.AddNamedConstraint(c.name, coeffs, c.sense, c.rhs)
	}
	return p
}

// addCuttingRow appends a GE row over existing probability variables with
// a fractional rhs and no private ε — the kind of row that cuts the
// carried vertex off and forces genuine dual pivots to repair it.
func (s *mutableLP) addCuttingRow(rng *rand.Rand, step int) {
	var idx []int
	for v := range s.names {
		if s.upper[v] == 1 && rng.Float64() < 0.5 {
			idx = append(idx, v)
		}
	}
	if len(idx) < 2 {
		idx = []int{0, 1}
	}
	coeffs := make([]float64, len(idx))
	for i := range coeffs {
		coeffs[i] = 1
	}
	s.rows = append(s.rows, constraint{
		name: fmt.Sprintf("cut#%d", step), sense: GE,
		rhs: 0.5 + rng.Float64()*float64(len(idx)-1),
		idx: idx, coeffs: coeffs,
	})
}

// addMPRow appends a Mostly-Protected-style row with a fresh ε — the
// usual cross-round growth, which extends the basis without cutting it.
func (s *mutableLP) addMPRow(rng *rand.Rand, step int) {
	e := len(s.names)
	s.names = append(s.names, fmt.Sprintf("pe#%d", step))
	s.cost = append(s.cost, 2+rng.Float64())
	s.upper = append(s.upper, infUB)
	idx := []int{}
	for v := 0; v < e; v++ {
		if s.upper[v] == 1 && rng.Float64() < 0.3 {
			idx = append(idx, v)
		}
	}
	idx = append(idx, e)
	coeffs := make([]float64, len(idx))
	for i := range coeffs {
		coeffs[i] = 1
	}
	s.rows = append(s.rows, constraint{
		name: fmt.Sprintf("mp#pe#%d", step), sense: GE, rhs: 1,
		idx: idx, coeffs: coeffs,
	})
}

// excise removes one random row (the racy-pair retirement analogue). Rows
// only ever constrain from below here, so removal keeps the problem
// feasible.
func (s *mutableLP) excise(rng *rand.Rand) {
	if len(s.rows) <= 1 {
		return
	}
	i := rng.Intn(len(s.rows))
	s.rows = append(s.rows[:i], s.rows[i+1:]...)
}

// TestWarmAfterMutationEqualsCold carries a basis through random
// add/excise sequences: after every mutation, SolveWarm from the previous
// optimal basis must agree with a cold solve of the identical problem.
// The sequence includes ε-free cutting rows, which cut the carried vertex
// off, so the test also asserts that some step fell back to a cold start
// and that such a fallback returns exactly the cold solve's basis.
func TestWarmAfterMutationEqualsCold(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	fellBack, warmApplied := 0, 0
	for trial := 0; trial < 12; trial++ {
		spec := specFrom(randProblem(rng))
		base := spec.build()
		sol, err := base.Solve()
		if err != nil {
			continue // infeasible/unbounded base: nothing to carry
		}
		basis := sol.Basis
		for step := 0; step < 6; step++ {
			switch rng.Intn(3) {
			case 0:
				spec.addCuttingRow(rng, trial*100+step)
			case 1:
				spec.addMPRow(rng, trial*100+step)
			default:
				spec.excise(rng)
			}
			next := spec.build()
			coldSol, coldErr := next.Solve()
			warmSol, warmErr := next.SolveWarm(basis)
			if (coldErr == nil) != (warmErr == nil) {
				t.Fatalf("trial %d step %d: cold err=%v warm err=%v", trial, step, coldErr, warmErr)
			}
			if coldSol.Status != warmSol.Status {
				t.Fatalf("trial %d step %d: status cold=%v warm=%v",
					trial, step, coldSol.Status, warmSol.Status)
			}
			if coldErr != nil {
				// The mutated problem lost its finite optimum; re-anchor on
				// the next feasible build.
				continue
			}
			if math.Abs(coldSol.Objective-warmSol.Objective) > 1e-6 {
				t.Fatalf("trial %d step %d: objective cold=%g warm=%g",
					trial, step, coldSol.Objective, warmSol.Objective)
			}
			if v, ok := sameThresholded(coldSol.X, warmSol.X); !ok {
				t.Fatalf("trial %d step %d: vertex differs at var %d: cold=%g warm=%g",
					trial, step, v, coldSol.X[v], warmSol.X[v])
			}
			assertNoNegZero(t, "warm", warmSol.X)
			if warmSol.WarmStarted {
				warmApplied++
			} else {
				if basis.Size() > 0 {
					fellBack++ // a non-empty basis was supplied and not applied
				}
				if !sameBasis(warmSol.Basis, coldSol.Basis) {
					t.Fatalf("trial %d step %d: cold fallback basis differs from the cold solve's:\n%v\n%v",
						trial, step, warmSol.Basis, coldSol.Basis)
				}
			}
			basis = warmSol.Basis
		}
	}
	if warmApplied == 0 {
		t.Fatal("no mutation step ever applied the carried basis")
	}
	if fellBack == 0 {
		t.Fatal("no mutation step fell back to a cold start: the cutting rows never cut the carried vertex off")
	}
}

// TestIterLimitStillReported makes sure the budget sentinel survives the
// presolve/decompose pipeline on the property-test generator too.
func TestIterLimitStillReported(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	hit := false
	for trial := 0; trial < 20 && !hit; trial++ {
		p := randProblem(rng)
		p.MaxIters = 1
		sol, err := p.Solve()
		if err != nil && errors.Is(err, ErrIterationLimit) {
			if sol.Status != IterLimit {
				t.Fatalf("iter-limit error with status %v", sol.Status)
			}
			hit = true
		}
	}
	if !hit {
		t.Skip("no generated problem exhausted a 1-pivot budget (generator changed?)")
	}
}

// TestParallelComponentsIdentical solves decomposing problems cold and
// warm with one worker and with four: the workers share the solution and
// basis arrays (each writes only its components' parts), so the results
// must match bit for bit, basis documents included.
func TestParallelComponentsIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	split := 0
	for trial := 0; trial < 40; trial++ {
		p := randProblem(rng)
		prior, err := p.Solve()
		if err != nil {
			continue
		}
		perturb(p, rng)
		for _, warm := range []*Basis{nil, prior.Basis} {
			p.Parallel = 1
			one, err1 := p.SolveWarm(warm)
			p.Parallel = 4
			four, err4 := p.SolveWarm(warm)
			if (err1 == nil) != (err4 == nil) || one.Status != four.Status ||
				one.Iters != four.Iters || one.WarmStarted != four.WarmStarted {
				t.Fatalf("trial %d: 1 worker %+v (%v) vs 4 workers %+v (%v)", trial, one, err1, four, err4)
			}
			if err1 != nil {
				continue
			}
			if one.Components > 1 {
				split++
			}
			for v := range one.X {
				if math.Float64bits(one.X[v]) != math.Float64bits(four.X[v]) {
					t.Fatalf("trial %d: x[%d] = %v with 1 worker, %v with 4", trial, v, one.X[v], four.X[v])
				}
			}
			if !sameBasis(one.Basis, four.Basis) {
				t.Fatalf("trial %d: basis differs:\n%v\n%v", trial, one.Basis, four.Basis)
			}
		}
	}
	if split == 0 {
		t.Fatal("no solve split into components; the parallel path never ran")
	}
}
