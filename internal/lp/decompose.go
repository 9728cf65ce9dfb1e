// Connected-component decomposition. The per-app LP is a union of
// per-window subproblems that only couple through shared sync-candidate
// keys; keys that never co-occur in a window put their rows and columns in
// independent blocks. solveDecomposed splits the (presolved) problem along
// those blocks and solves them separately — concurrently when
// Problem.Parallel allows — then merges the results deterministically.
//
// Determinism at any parallelism follows the same policy as the core
// engine's worker pool (PR 1): components are discovered in ascending
// variable order, each is solved independently with no shared mutable
// state, results land in a slot indexed by component, and the merge walks
// the slots in component order. The outcome is bit-identical whether the
// components are solved by 1 worker or 16.
package lp

import (
	"sync"
	"sync/atomic"
)

// component is one independent block: variable and constraint indices into
// the parent problem, both ascending.
type component struct {
	vars []int
	rows []int
}

// splitComponents partitions p's variables and constraints into connected
// components via union-find over shared variables. Variables with no
// constraints form singleton components (their solve is trivial).
func splitComponents(p *Problem) []component {
	n := len(p.names)
	parent := make([]int, n)
	for v := range parent {
		parent[v] = v
	}
	var find func(int) int
	find = func(v int) int {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if rb < ra {
				ra, rb = rb, ra
			}
			parent[rb] = ra // smaller index wins: stable component roots
		}
	}
	for ci := range p.constraints {
		idx := p.constraints[ci].idx
		for k := 1; k < len(idx); k++ {
			union(idx[0], idx[k])
		}
	}
	// Number components in ascending order of their smallest variable.
	compOf := make([]int, n)
	var comps []component
	seen := make(map[int]int, 8)
	for v := 0; v < n; v++ {
		root := find(v)
		ci, ok := seen[root]
		if !ok {
			ci = len(comps)
			seen[root] = ci
			comps = append(comps, component{})
		}
		compOf[v] = ci
		comps[ci].vars = append(comps[ci].vars, v)
	}
	for ri := range p.constraints {
		c := &p.constraints[ri]
		if len(c.idx) == 0 {
			continue // empty rows cannot appear post-presolve; defensive
		}
		ci := compOf[c.idx[0]]
		comps[ci].rows = append(comps[ci].rows, ri)
	}
	return comps
}

// subProblem extracts one component as a standalone Problem. Names, costs
// and bounds carry over verbatim, so the component's standard form is the
// row/column submatrix of the parent's and basis names remain globally
// valid.
func subProblem(p *Problem, comp *component) *Problem {
	sub := &Problem{
		MaxIters:        p.MaxIters,
		DisablePresolve: true, // already presolved at the parent level
	}
	local := make(map[int]int, len(comp.vars))
	for _, v := range comp.vars {
		local[v] = len(sub.names)
		sub.names = append(sub.names, p.names[v])
		sub.cost = append(sub.cost, p.cost[v])
		sub.upper = append(sub.upper, p.upper[v])
	}
	for _, ri := range comp.rows {
		c := &p.constraints[ri]
		rc := constraint{name: c.name, sense: c.sense, rhs: c.rhs, coeffs: c.coeffs}
		rc.idx = make([]int, len(c.idx))
		for k, v := range c.idx {
			rc.idx[k] = local[v]
		}
		sub.constraints = append(sub.constraints, rc)
	}
	return sub
}

// solveDecomposed splits p into components and solves them, fanning the
// solves across up to p.Parallel workers. The full warm basis is offered
// to every component — row/column names are globally unique, so each
// component picks up exactly its own slice of the carried basis.
//
// The merged solution sums pivot counts, ORs warm-start engagement, and
// concatenates the per-component bases. A non-optimal component makes the
// whole solve non-optimal, with Infeasible taking precedence over
// Unbounded over IterLimit. Note MaxIters bounds pivots per component, not
// globally — the budget is a runaway guard, not a fairness mechanism.
func solveDecomposed(p *Problem, warm *Basis) *Solution {
	warmIdx := warm.index() // one shared read-only index for every component
	comps := splitComponents(p)
	if len(comps) <= 1 {
		sol := solveComponent(p, buildStandardForm(p), warmIdx)
		sol.Components = 1
		return sol
	}
	results := make([]*Solution, len(comps))
	solve := func(i int) {
		sub := subProblem(p, &comps[i])
		results[i] = solveComponent(sub, buildStandardForm(sub), warmIdx)
	}
	workers := p.Parallel
	if workers > len(comps) {
		workers = len(comps)
	}
	if workers <= 1 {
		for i := range comps {
			solve(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(comps) {
						return
					}
					solve(i)
				}
			}()
		}
		wg.Wait()
	}

	merged := &Solution{
		Status:     Optimal,
		X:          make([]float64, len(p.names)),
		Basis:      &Basis{},
		Components: len(comps),
	}
	worst := Optimal
	for ci, res := range results {
		merged.Iters += res.Iters
		merged.DualIters += res.DualIters
		if res.WarmStarted {
			merged.WarmStarted = true
		}
		if res.Status != Optimal {
			if statusRank(res.Status) > statusRank(worst) {
				worst = res.Status
			}
			continue
		}
		for li, v := range comps[ci].vars {
			merged.X[v] = res.X[li]
		}
		merged.Basis.merge(res.Basis)
		merged.Objective += res.Objective
	}
	if worst != Optimal {
		return &Solution{
			Status: worst, Iters: merged.Iters, DualIters: merged.DualIters,
			WarmStarted: merged.WarmStarted, Components: len(comps),
		}
	}
	return merged
}

// statusRank orders non-optimal statuses by precedence for the merge.
func statusRank(s Status) int {
	switch s {
	case Infeasible:
		return 3
	case Unbounded:
		return 2
	case IterLimit:
		return 1
	}
	return 0
}
