// Connected-component decomposition. The per-app LP is a union of
// per-window subproblems that only couple through shared sync-candidate
// keys; keys that never co-occur in a window put their rows and columns in
// independent blocks. solveDecomposed splits the (presolved) problem along
// those blocks and solves them separately — concurrently when
// Problem.Parallel allows — then merges the results deterministically.
//
// A component is never copied out as a Problem of its own: its standard
// form is built straight from the parent's rows through one solve-wide
// local-index slice, and its arrays are carved from four buffers sized by
// a counting pass over all components (carver): one share per worker,
// large enough for the largest component, reused from component to
// component.
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
	vars []int32
	rows []int32
}

// decomposition is a problem split into components, with the solve-wide
// maps from the problem's variables and rows to their place in them.
type decomposition struct {
	comps    []component
	compOf   []int32 // per variable: its component
	local    []int32 // per variable: its structural column in the component
	ubLocal  []int32 // per variable: its upper-bound row in the component, -1 if none
	rowComp  []int32 // per constraint: its component
	rowLocal []int32 // per constraint: its row in the component
}

// rowAt returns the row of component ci that row ref (a constraint, or
// −(v+1) for variable v's upper-bound row) is, or -1 if it lies elsewhere.
func (d *decomposition) rowAt(ref, ci int32) int {
	if ref >= 0 {
		if d.rowComp[ref] != ci {
			return -1
		}
		return int(d.rowLocal[ref])
	}
	v := -ref - 1
	if d.compOf[v] != ci {
		return -1
	}
	return int(d.ubLocal[v])
}

// decompose partitions p's variables and constraints into connected
// components via union-find over shared variables, in ws. Variables with
// no constraints form singleton components (their solve is trivial). p
// has at least one variable and no empty row: presolve checks and drops
// empty rows, and solveSparse answers a problem without variables itself.
func (ws *workspace) decompose(p *Problem) *decomposition {
	n, nr := len(p.names), len(p.constraints)
	buf := carver{i32: resize(&ws.decBuf, 5*n+3*nr)}
	d := &ws.dec
	*d = decomposition{
		compOf: buf.int32s(n), local: buf.int32s(n), ubLocal: buf.int32s(n),
		rowComp: buf.int32s(nr), rowLocal: buf.int32s(nr),
	}
	parent, vars, rows := buf.int32s(n), buf.int32s(n), buf.int32s(nr)
	for v := range parent {
		parent[v] = int32(v)
	}
	find := func(v int32) int32 {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	for ci := range p.constraints {
		idx := p.constraints[ci].idx
		for k := 1; k < len(idx); k++ {
			ra, rb := find(int32(idx[0])), find(int32(idx[k]))
			if ra != rb {
				if rb < ra {
					ra, rb = rb, ra
				}
				parent[rb] = ra // smaller index wins: a root is its set's smallest variable
			}
		}
	}
	// Number components in ascending order of their smallest variable,
	// which is their root, so a root is always numbered before its set's
	// other members.
	nComps := 0
	for v := range parent {
		if root := find(int32(v)); root == int32(v) {
			d.compOf[v] = int32(nComps)
			nComps++
		} else {
			d.compOf[v] = d.compOf[root]
		}
	}
	d.comps = resize(&ws.comps, nComps)
	for ri := range p.constraints {
		d.rowComp[ri] = d.compOf[p.constraints[ri].idx[0]]
	}
	// Carve each component's variable and row lists from vars and rows,
	// sized by a count, then fill them in ascending order.
	counts := zeroed(&ws.counts, 2*nComps)
	for _, c := range d.compOf {
		counts[c]++
	}
	for _, c := range d.rowComp {
		counts[nComps+int(c)]++
	}
	for ci := range d.comps {
		k := int(counts[ci])
		d.comps[ci].vars, vars = vars[:0:k], vars[k:]
		k = int(counts[nComps+ci])
		d.comps[ci].rows, rows = rows[:0:k], rows[k:]
	}
	for v, ci := range d.compOf {
		c := &d.comps[ci]
		d.local[v] = int32(len(c.vars))
		c.vars = append(c.vars, int32(v))
	}
	for ri, ci := range d.rowComp {
		c := &d.comps[ci]
		d.rowLocal[ri] = int32(len(c.rows))
		c.rows = append(c.rows, int32(ri))
	}
	// Upper-bound rows follow each component's constraints.
	next := counts[:nComps]
	for ci := range d.comps {
		next[ci] = int32(len(d.comps[ci].rows))
	}
	for v, ci := range d.compOf {
		d.ubLocal[v] = -1
		if p.upper[v] < infUB {
			d.ubLocal[v] = next[ci]
			next[ci]++
		}
	}
	return d
}

// carver hands out consecutive slices of a solve's counted buffers. With
// counting set it hands out nothing and only adds up the lengths asked
// for, which is how the buffers get their sizes.
type carver struct {
	counting bool
	i32      []int32
	f64      []float64
	is       []int
	bs       []bool
	n        [4]int // lengths asked for, per buffer
}

func (c *carver) int32s(k int) []int32   { return carve(c.counting, &c.i32, &c.n[0], k) }
func (c *carver) floats(k int) []float64 { return carve(c.counting, &c.f64, &c.n[1], k) }
func (c *carver) ints(k int) []int       { return carve(c.counting, &c.is, &c.n[2], k) }
func (c *carver) bools(k int) []bool     { return carve(c.counting, &c.bs, &c.n[3], k) }

// carve takes the next k elements of *buf, capped so an append cannot
// reach the next slice, and adds k to *asked.
func carve[T any](counting bool, buf *[]T, asked *int, k int) []T {
	*asked += k
	if counting {
		return nil
	}
	s := (*buf)[:k:k]
	*buf = (*buf)[k:]
	return s
}

// worker is one solving goroutine's scratch: a standard form, simplex
// state and the two factorizations the state alternates between. It is
// re-carved for each component the worker solves from raw buffers sized
// for the largest component, and the growing LU and eta arrays carry
// over from one component to the next.
type worker struct {
	raw carver
	sf  standardForm
	r   revised
	lus [2]luFactors
}

// carve lays out the worker's arrays for a component of shape sh.
func (wk *worker) carve(c *carver, sh shape) {
	wk.sf.carve(c, sh)
	wk.r.carve(c, sh, &wk.lus)
}

// reserve gives the factorizations' triangles room for m entries each
// before they first grow.
func (wk *worker) reserve(c *carver, m int) {
	for k := range wk.lus {
		f := &wk.lus[k]
		f.lRows, f.uRows = c.int32s(m)[:0], c.int32s(m)[:0]
		f.lVals, f.uVals = c.floats(m)[:0], c.floats(m)[:0]
	}
}

// outcome is what a component's solve reports back to the merge.
type outcome struct {
	status Status
	iters  int
	warm   bool
}

// solveDecomposed splits p into components and solves them, fanning the
// solves across up to p.Parallel workers. The carried basis is resolved
// once against p, and each component picks up exactly its own slice of it.
//
// The merged solution sums pivot counts, ORs warm-start engagement, and
// concatenates the per-component bases in component order. A non-optimal
// component makes the whole solve non-optimal, with Infeasible taking
// precedence over Unbounded over IterLimit. Note MaxIters bounds pivots
// per component, not globally — the budget is a runaway guard, not a
// fairness mechanism. The Objective is left to the caller.
func (ws *workspace) solveDecomposed(p *Problem, warm *Basis) *Solution {
	d := ws.decompose(p)
	w := ws.newWarmIndex(p, warm)
	nc := len(d.comps)

	// Counting pass: every component's shape, its basis rows' offset, and
	// the largest shape, which sizes each worker's buffers.
	shapes := resize(&ws.shapes, nc)
	offset := resize(&ws.offset, nc+1)
	offset[0] = 0
	var largest shape
	for i := range d.comps {
		sh := measure(p, &d.comps[i])
		shapes[i] = sh
		offset[i+1] = offset[i] + sh.m
		largest = shape{
			m: max(largest.m, sh.m), n: max(largest.n, sh.n),
			nSlack: max(largest.nSlack, sh.nSlack), nArt: max(largest.nArt, sh.nArt),
			nnz: max(largest.nnz, sh.nnz),
		}
	}
	workers := min(max(p.Parallel, 1), nc)
	pool := resize(&ws.pool, workers)
	// A counting carve sizes a worker's buffers; it carves nothing, and the
	// worker is carved for real before each component it solves.
	count := carver{counting: true}
	pool[0].carve(&count, largest)
	each := count.n
	pool[0].reserve(&count, largest.m)
	raw := carver{
		i32: resize(&ws.raw.i32, workers*count.n[0]),
		f64: resize(&ws.raw.f64, workers*count.n[1]),
		is:  resize(&ws.raw.is, workers*count.n[2]),
		bs:  resize(&ws.raw.bs, workers*count.n[3]),
	}
	for k := range pool {
		wk := &pool[k]
		wk.raw = carver{
			i32: raw.int32s(each[0]), f64: raw.floats(each[1]),
			is: raw.ints(each[2]), bs: raw.bools(each[3]),
		}
		wk.reserve(&raw, largest.m)
	}

	// X is the workspace's: postsolve copies it into the caller's vector.
	sol := &Solution{
		Status:     Optimal,
		X:          zeroed(&ws.x, len(p.names)),
		Basis:      &Basis{},
		Components: nc,
	}
	// A whole-problem basis is never nil, a split one is nil when empty:
	// their documents read "rows":[] and "rows":null respectively.
	if rows := offset[nc]; nc == 1 || rows > 0 {
		ids := make([]ident, 2*rows)
		sol.Basis.rows, sol.Basis.bcol = ids[:rows:rows], ids[rows:]
	}
	resize(&ws.outs, nc)
	if workers == 1 {
		for i := range d.comps {
			ws.solveComponent(&pool[0], i, p, w, sol)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for k := range pool {
			go func(wk *worker) {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= nc {
						return
					}
					ws.solveComponent(wk, i, p, w, sol)
				}
			}(&pool[k])
		}
		wg.Wait()
	}

	worst := Optimal
	for _, o := range ws.outs {
		sol.Iters += o.iters
		if o.warm {
			sol.WarmStarted = true
		}
		if o.status != Optimal && statusRank(o.status) > statusRank(worst) {
			worst = o.status
		}
	}
	if worst != Optimal {
		return &Solution{
			Status: worst, Iters: sol.Iters,
			WarmStarted: sol.WarmStarted, Components: nc,
		}
	}
	return sol
}

// solveComponent solves component i of p's decomposition on wk, files
// its outcome and, when it is optimal, writes its values and basis rows
// into sol.
func (ws *workspace) solveComponent(wk *worker, i int, p *Problem, w *warmIndex, sol *Solution) {
	sh, d := ws.shapes[i], &ws.dec
	c := wk.raw
	wk.carve(&c, sh)
	wk.sf.build(p, d, i, sh)
	r := &wk.r
	st, warmed := r.solve(p, &wk.sf, w, d)
	ws.outs[i] = outcome{st, r.iters, warmed}
	if st == Optimal {
		from, to := ws.offset[i], ws.offset[i+1]
		r.extract(sol.X)
		r.snapshot(sol.Basis.rows[from:to], sol.Basis.bcol[from:to])
	}
}

// statusRank orders statuses by precedence for the merge. A status it
// does not know outranks every known one, so it can never pass as Optimal.
func statusRank(s Status) int {
	switch s {
	case Optimal:
		return 0
	case IterLimit:
		return 1
	case Unbounded:
		return 2
	case Infeasible:
		return 3
	}
	return 4
}
