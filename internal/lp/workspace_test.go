package lp

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
)

// blockProblem builds a SherLock-shaped problem of blocks independent
// blocks: each has size role variables in [0,1] and size+2
// Mostly-Protected rows (ε + Σ candidates ≥ 1, each with its private ε),
// every second one duplicating the previous row's candidates so presolve
// merges the pair, plus a pairing row with its own auxiliary. Every row
// holds two neighbouring role variables, so each block is one component.
func blockProblem(seed int64, blocks, size int) *Problem {
	rng := rand.New(rand.NewSource(seed))
	p := NewProblem()
	for b := 0; b < blocks; b++ {
		vars := make([]int, size)
		for i := range vars {
			vars[i] = p.AddVariable(fmt.Sprintf("b%d.v%d", b, i))
			p.SetUpperBound(vars[i], 1)
			p.AddCost(vars[i], 0.1+rng.Float64()+float64(i)*1e-3)
		}
		var cands []int
		for r := 0; r < size+2; r++ {
			if r%2 == 0 {
				cands = []int{vars[r%size], vars[(r+1)%size]}
				for _, v := range vars {
					if rng.Float64() < 0.3 && !slices.Contains(cands, v) {
						cands = append(cands, v)
					}
				}
			}
			e := p.AddVariable(fmt.Sprintf("b%d.e%d", b, r))
			p.AddCost(e, 2+rng.Float64())
			coeffs := map[int]float64{e: 1}
			for _, v := range cands {
				coeffs[v] = 1
			}
			p.AddNamedConstraint(fmt.Sprintf("b%d.mp%d", b, r), coeffs, GE, 1)
		}
		t := p.AddVariable(fmt.Sprintf("b%d.t", b))
		p.AddCost(t, 1.5)
		p.AddNamedConstraint(fmt.Sprintf("b%d.pair", b),
			map[int]float64{vars[0]: 1, vars[1]: -1, t: 1}, GE, 0)
	}
	return p
}

// solveRecord is everything a caller keeps of a solve, detached from it.
type solveRecord struct {
	status     Status
	iters      int
	warm       bool
	x          []uint64
	rows, bcol []ident
	components int
}

func record(t *testing.T, sol *Solution) solveRecord {
	t.Helper()
	r := solveRecord{status: sol.Status, iters: sol.Iters, warm: sol.WarmStarted, components: sol.Components}
	if sol.Basis != nil {
		r.rows, r.bcol = slices.Clone(sol.Basis.rows), slices.Clone(sol.Basis.bcol)
	}
	for _, v := range sol.X {
		r.x = append(r.x, math.Float64bits(v))
	}
	return r
}

func sameRecord(a, b solveRecord) bool {
	return a.status == b.status && a.iters == b.iters && a.warm == b.warm &&
		a.components == b.components && slices.Equal(a.x, b.x) &&
		slices.Equal(a.rows, b.rows) && slices.Equal(a.bcol, b.bcol)
}

// warmResolveAllocs bounds one warm re-solve of blockProblem(1, 6, 8) at
// Parallel 1 once the workspace pool is warm: the Solution, its X, the
// Basis and the one array behind its rows and columns. Measured 4 with
// Go 1.24, against 65 when every solve built its own scratch; a scratch
// buffer rebuilt instead of reused adds at least one more.
const warmResolveAllocs = 4

// TestWarmResolveAllocBound pins that a solve allocates only its answer.
func TestWarmResolveAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop pooled state at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a GC would empty the pool
	p := blockProblem(1, 6, 8)
	first, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if first.Components < 6 || first.RowsPresolved == 0 {
		t.Fatalf("want a presolved problem of at least 6 components, got %d components, %d rows presolved",
			first.Components, first.RowsPresolved)
	}
	var sol *Solution
	resolve := func() {
		if sol, err = p.SolveWarm(first.Basis); err != nil {
			t.Fatal(err)
		}
	}
	resolve() // warm the pool
	if !sol.WarmStarted {
		t.Fatal("the re-solve did not warm-start")
	}
	if allocs := testing.AllocsPerRun(50, resolve); allocs > warmResolveAllocs {
		t.Errorf("a warm re-solve allocates %.1f times, want at most %d", allocs, warmResolveAllocs)
	}
}

// TestSolutionsOutliveWorkspace solves A, then a smaller problem C and a
// larger B (cold and warm from A's basis) through the same pooled
// workspace: nothing A's Solution holds may change. C fits in every
// buffer A's solve grew, B outgrows them.
func TestSolutionsOutliveWorkspace(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // keep the workspace pooled
	for _, par := range []int{1, 4} {
		a := blockProblem(2, 3, 6)
		a.Parallel = par
		solA, err := a.Solve()
		if err != nil {
			t.Fatal(err)
		}
		want := record(t, solA)
		for _, q := range []*Problem{blockProblem(4, 1, 3), blockProblem(3, 8, 10)} {
			q.Parallel = par
			for _, warm := range []*Basis{nil, solA.Basis} {
				if _, err := q.SolveWarm(warm); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got := record(t, solA); !sameRecord(got, want) {
			t.Fatalf("Parallel %d: A's solution changed under later solves:\n got %+v\nwant %+v", par, got, want)
		}
	}
}

// TestWarmIndexIgnoresStaleScratch resolves a basis that covers only
// part of a problem on a workspace that resolved a full basis for it
// before. Every row the partial basis leaves uncovered must resolve to
// nothing, as on a fresh workspace, or a warm start would map rows from
// an earlier solve's basis. part's names are big's first block.
func TestWarmIndexIgnoresStaleScratch(t *testing.T) {
	big, part := blockProblem(5, 3, 6), blockProblem(5, 1, 6)
	bigSol, err := big.Solve()
	if err != nil {
		t.Fatal(err)
	}
	partSol, err := part.Solve()
	if err != nil {
		t.Fatal(err)
	}
	var reused, fresh workspace
	reused.newWarmIndex(big, bigSol.Basis)
	got := reused.newWarmIndex(big, partSol.Basis)
	want := fresh.newWarmIndex(big, partSol.Basis)
	if !slices.Equal(got.cons, want.cons) || !slices.Equal(got.ub, want.ub) {
		t.Fatalf("reused workspace resolved\n%v %v\nfresh one\n%v %v", got.cons, got.ub, want.cons, want.ub)
	}
}

// TestConcurrentSolvesMatchSequential solves different problems from
// concurrent goroutines, cold and warm, and compares every result with
// the same solve run alone.
func TestConcurrentSolvesMatchSequential(t *testing.T) {
	for _, par := range []int{1, 4} {
		var probs []*Problem
		for k := int64(0); k < 6; k++ {
			probs = append(probs, blockProblem(10+k, 1+int(k), 3+2*int(k)))
		}
		rng := rand.New(rand.NewSource(7))
		for len(probs) < 10 {
			probs = append(probs, randProblem(rng))
		}
		solveBoth := func(p *Problem) [2]solveRecord {
			cold, err := p.Solve()
			if err != nil {
				t.Error(err)
				return [2]solveRecord{}
			}
			warm, err := p.SolveWarm(cold.Basis)
			if err != nil {
				t.Error(err)
				return [2]solveRecord{}
			}
			return [2]solveRecord{record(t, cold), record(t, warm)}
		}
		want := make([][2]solveRecord, len(probs))
		for i, p := range probs {
			p.Parallel = par
			want[i] = solveBoth(p)
		}
		var wg sync.WaitGroup
		for i, p := range probs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range 5 {
					if got := solveBoth(p); !sameRecord(got[0], want[i][0]) || !sameRecord(got[1], want[i][1]) {
						t.Errorf("Parallel %d, problem %d: concurrent solve differs from the sequential one", par, i)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}
