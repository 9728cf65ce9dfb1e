// Presolve: the reductions the SherLock encodings give work to, applied in
// one pass before the simplex sees the matrix. Their Mostly-Protected
// rows come in duplicated windows that differ only in a private ε
// variable, and many of their ≥-rows are implied by the variable bounds.
// Presolve removes both with exact postsolve bookkeeping, so the simplex
// runs on a smaller matrix and the caller still sees a full-length
// solution vector.
//
// Three reductions, in index-ascending row order:
//
//   - empty rows: feasibility-checked (Infeasible when 0 cannot meet the
//     rhs) and dropped.
//   - redundant ≥-rows: a GE row whose least activity over 0 ≤ x ≤ u
//     already meets its rhs holds at every feasible point and is dropped
//     (exact comparison).
//   - ε-duplicate rows: rows with the same sense, rhs and shared
//     coefficients, each with exactly one private cost-carrying singleton
//     ε, merge. The duplicate's ε cost folds onto the representative's
//     and postsolve copies the representative's value back.
//
// Everything else is the simplex's: zero-bound and rowless columns,
// singleton, ≤, = and forcing rows, exact duplicates, and the proof that
// a problem is infeasible or unbounded. Rule counters on every benchmark
// workload found that no reduction for those cases ever fired on the
// encodings.
//
// Presolve never fixes a variable, so the only values postsolve supplies
// are the merged ε copies, and warm and cold solves run through the
// identical reduction sequence.
package lp

import "math"

// presolved is the outcome of a presolve pass: which ε variables merged
// into which, plus the reduced problem.
type presolved struct {
	p *Problem

	status Status // Optimal to proceed, Infeasible when an empty row is violated

	dupOf []int // ε duplicate: postsolve copies the representative's value

	red     *Problem
	origIdx []int // original var → reduced var, -1 if removed

	rowsOut, colsOut int
}

// postsolve maps a reduced-space solution back onto the original variable
// space: merged ε duplicates copy their representative. The result is
// always a fresh vector, never xr.
func (ps *presolved) postsolve(xr []float64) []float64 {
	x := make([]float64, len(ps.p.names))
	for v, rep := range ps.dupOf {
		if rep < 0 {
			x[v] = xr[ps.origIdx[v]]
		}
	}
	for v, rep := range ps.dupOf {
		if rep >= 0 {
			x[v] = x[rep] // the representative is never removed
		}
	}
	return x
}

// presolve runs the reductions on p in ws. It never mutates p.
func (ws *workspace) presolve(p *Problem) *presolved {
	n := len(p.names)
	ps := &ws.ps
	*ps = presolved{p: p, status: Optimal, dupOf: resize(&ws.dupOf, n)}
	for v := range ps.dupOf {
		ps.dupOf[v] = -1
	}
	cost := resize(&ws.cost, n)
	copy(cost, p.cost)

	// colLive counts each variable's kept rows; mergeDuplicates reads it
	// to find private ε variables.
	dropRow := zeroed(&ws.dropRow, len(p.constraints))
	colLive := zeroed(&ws.colLive, n)
	for ri := range p.constraints {
		c := &p.constraints[ri]
		drop := false
		switch {
		case len(c.idx) == 0:
			if !emptyRowHolds(c) {
				ps.status = Infeasible
				return ps
			}
			drop = true
		case c.sense == GE:
			drop = redundantGE(c, p.upper)
		}
		if drop {
			dropRow[ri] = true
			ps.rowsOut++
			continue
		}
		for _, v := range c.idx {
			colLive[v]++
		}
	}

	ws.mergeDuplicates(cost, dropRow, colLive)

	// Emit the reduced problem, pre-sized to its known dimensions: a
	// counting pass over the kept variables and rows sizes every buffer
	// exactly, so the rows are carved from one entry buffer.
	ps.origIdx = resize(&ws.origIdx, n)
	kept := 0
	for v := 0; v < n; v++ {
		if ps.dupOf[v] >= 0 {
			ps.origIdx[v] = -1
			ps.colsOut++
			continue
		}
		ps.origIdx[v] = kept
		kept++
	}
	entries := 0
	for ri := range p.constraints {
		if dropRow[ri] {
			continue
		}
		for _, v := range p.constraints[ri].idx {
			if ps.origIdx[v] >= 0 {
				entries++
			}
		}
	}
	red := &ws.red
	red.Reset()
	red.Grow(kept, len(p.constraints)-ps.rowsOut, entries)
	for v := 0; v < n; v++ {
		if ps.origIdx[v] < 0 {
			continue
		}
		red.names = append(red.names, p.names[v])
		red.cost = append(red.cost, cost[v])
		red.upper = append(red.upper, p.upper[v])
	}
	for ri := range p.constraints {
		if dropRow[ri] {
			continue
		}
		c := &p.constraints[ri]
		start := len(red.entIdx)
		for k, v := range c.idx {
			if ps.origIdx[v] < 0 {
				continue
			}
			red.entIdx = append(red.entIdx, ps.origIdx[v])
			red.entCoef = append(red.entCoef, c.coeffs[k])
		}
		red.appendRow(c.name, start, c.sense, c.rhs)
	}
	red.MaxIters = p.MaxIters
	red.Parallel = p.Parallel
	red.etaEvery = p.etaEvery
	ps.red = red
	return ps
}

// emptyRowHolds reports whether the empty row c, 0 {≤,=,≥} rhs, is
// feasible.
func emptyRowHolds(c *constraint) bool {
	switch c.sense {
	case LE:
		return c.rhs >= -feasTol
	case GE:
		return c.rhs <= feasTol
	}
	return math.Abs(c.rhs) <= feasTol
}

// redundantGE reports whether every 0 ≤ x ≤ upper meets the GE row c: its
// least activity, with each negative coefficient's variable at its upper
// bound and every other variable at 0, already reaches the rhs.
func redundantGE(c *constraint, upper []float64) bool {
	minAct := 0.0
	for k, v := range c.idx {
		if a := c.coeffs[k]; a < 0 {
			if upper[v] >= infUB {
				return false
			}
			minAct += a * upper[v]
		}
	}
	return minAct >= c.rhs
}

// mergeDuplicates merges the Mostly-Protected ε pattern: a row with
// exactly one private cost-carrying singleton ε merges into an earlier
// such row that equals it over the shared (non-private) variables, by
// folding its ε cost onto the representative's. Signatures are exact
// (float bits), so a merge never changes the feasible set or the optimum.
//
// Rows bucket by a 64-bit hash of their shared content and are verified
// entry for entry against the bucket's representatives (each frozen as it
// was when first scanned), so a hash collision can never cause a wrong
// merge. Representatives' shared entries live back to back in two flat
// buffers sized up front, and a bucket is a chain through them.
func (ws *workspace) mergeDuplicates(cost []float64, dropRow []bool, colLive []int) {
	ps := &ws.ps
	p := ps.p
	// Sized for the worst case: every kept row its own representative.
	rows, entries := 0, 0
	for ri := range p.constraints {
		if !dropRow[ri] {
			rows++
			entries += len(p.constraints[ri].idx)
		}
	}
	reps := resize(&ws.reps, rows)[:0]
	repV := resize(&ws.repV, entries)[:0] // representatives' shared variables
	repB := resize(&ws.repB, entries)[:0] // and their coefficient float bits
	seen := emptyMap(&ws.seen, rows)      // shared-content hash → first rep in its chain
	sharedV, sharedB := ws.sharedV, ws.sharedB
	for ri := range p.constraints {
		if dropRow[ri] {
			continue
		}
		c := &p.constraints[ri]
		// Identify the private ε candidates: coefficient exactly 1, live
		// only in this row, unbounded, positive cost. Everything else is
		// shared content.
		epsVar := -1
		nEps := 0
		sharedV, sharedB = sharedV[:0], sharedB[:0]
		rhs := math.Float64bits(c.rhs)
		// The hash only picks a bucket; matches are verified exactly.
		h := uint64(14695981039346656037)
		mix := func(x uint64) {
			h = (h ^ x) * 0x9e3779b97f4a7c15
			h ^= h >> 29
		}
		mix(uint64(c.sense))
		mix(rhs)
		for k, v := range c.idx {
			if c.coeffs[k] == 1 && colLive[v] == 1 && p.upper[v] >= infUB && cost[v] > 0 {
				nEps++
				epsVar = v
				continue // private part stays out of the signature
			}
			b := math.Float64bits(c.coeffs[k])
			mix(uint64(v))
			mix(b)
			sharedV = append(sharedV, int32(v))
			sharedB = append(sharedB, b)
		}
		if nEps != 1 {
			continue // no private part, or an ambiguous one: leave the row alone
		}
		matched := false
		head, chained := seen[h]
		if !chained {
			head = -1
		}
		for pi := head; pi >= 0; pi = reps[pi].next {
			r := &reps[pi]
			if r.sense != c.sense || r.rhs != rhs || r.to-r.from != len(sharedV) {
				continue
			}
			same := true
			for i := range sharedV {
				if repV[r.from+i] != sharedV[i] || repB[r.from+i] != sharedB[i] {
					same = false
					break
				}
			}
			if !same {
				continue
			}
			// Fold the duplicate ε onto the representative's: the merged
			// cost prices the shared shortfall once, and postsolve copies
			// the representative's value back.
			cost[r.eps] += cost[epsVar]
			ps.dupOf[epsVar] = r.eps
			dropRow[ri] = true
			ps.rowsOut++
			for _, v := range c.idx {
				colLive[v]--
			}
			matched = true
			break
		}
		if !matched {
			from := len(repV)
			repV = append(repV, sharedV...)
			repB = append(repB, sharedB...)
			reps = append(reps, repInfo{
				eps: epsVar, sense: c.sense, rhs: rhs,
				from: from, to: len(repV), next: head,
			})
			seen[h] = int32(len(reps) - 1)
		}
	}
	ws.sharedV, ws.sharedB = sharedV, sharedB
}

// repInfo is a duplicate-row representative in mergeDuplicates.
type repInfo struct {
	eps      int // representative's private ε
	sense    Sense
	rhs      uint64
	from, to int   // shared entries in repV/repB, frozen at scan time
	next     int32 // next representative with the same hash, -1 at the end
}
