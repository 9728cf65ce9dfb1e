// Presolve: problem reductions applied before the simplex ever sees the
// matrix. The SherLock encodings are full of structure a solver pays for
// but never needs — variables pinned to a bound by a hard constraint,
// rows made redundant by the variable bounds, exclusivity rows forced to
// equality, and duplicated Mostly-Protected windows whose rows differ only
// in their private ε variable. Presolve removes all of it with exact
// postsolve bookkeeping, so the simplex runs on a smaller, better-
// conditioned matrix and the caller still sees a full-length solution
// vector.
//
// Reductions, applied to a fixpoint in deterministic (index-ascending)
// order:
//
//   - bound fixing: u=0 variables, and variables with no live rows, are
//     fixed at their optimal bound (0 for nonnegative cost, u otherwise);
//     a costless unconstrained direction aborts presolve so the simplex
//     can certify unboundedness itself.
//   - empty rows: feasibility-checked and dropped.
//   - singleton rows: converted to a bound update when expressible
//     (a ≤-row tightens u; a vacuous ≥-row drops; an =-row fixes the
//     variable), kept otherwise.
//   - redundant rows: dropped when the activity bounds prove every
//     feasible point satisfies them (exact comparisons — a row is only
//     dropped when provably redundant).
//   - forcing rows: when a row's activity bound meets its rhs exactly,
//     every variable in it is pinned to the achieving bound.
//   - duplicate rows: rows identical over the shared variables merge. The
//     interesting case is the Mostly-Protected pattern — same sense, rhs
//     and shared coefficients, each row with exactly one private
//     cost-carrying singleton ε — where the duplicate's ε cost folds onto
//     the representative's and postsolve copies the value back.
//
// Fix values are computed once, canonicalized (+0 turns −0 into +0), and
// reproduced exactly by postsolve, so presolve preserves the bit-level
// determinism the golden equivalence suites demand: warm and cold solves
// run through the identical reduction sequence.
package lp

import "math"

// presolved is the outcome of a presolve pass: which variables were
// removed and why, plus the reduced problem (nil when presolve solved or
// declined the whole thing).
type presolved struct {
	p *Problem

	declined bool   // presolve did not run (unbounded-suspect)
	status   Status // Optimal to proceed, Infeasible when proven

	fixed  []bool
	fixVal []float64
	dupOf  []int // ε duplicate: postsolve copies the representative's value

	red     *Problem
	origIdx []int // original var → reduced var, -1 if removed

	rowsIn, rowsOut int
	colsIn, colsOut int
}

// reduced returns the problem the simplex should solve.
func (ps *presolved) reduced() *Problem {
	if ps.declined || ps.red == nil {
		return ps.p
	}
	return ps.red
}

// solved reports that presolve fixed every variable and dropped every row:
// the solution is fully determined without a simplex run.
func (ps *presolved) solved() bool {
	return !ps.declined && ps.status == Optimal && ps.red == nil
}

// postsolve maps a reduced-space solution back onto the original variable
// space: fixed variables get their pinned values, merged ε duplicates copy
// their representative. xr may be nil when presolve solved everything.
// The result is always a fresh vector, never xr.
func (ps *presolved) postsolve(xr []float64) []float64 {
	x := make([]float64, len(ps.p.names))
	if ps.declined {
		copy(x, xr)
		return x
	}
	for v := range x {
		switch {
		case ps.fixed[v]:
			x[v] = ps.fixVal[v]
		case ps.dupOf[v] >= 0:
			// second pass below; the representative is never removed
		default:
			x[v] = xr[ps.origIdx[v]]
		}
	}
	for v, rep := range ps.dupOf {
		if rep >= 0 {
			x[v] = x[rep]
		}
	}
	return x
}

// presolve runs the reduction fixpoint on p in ws. It never mutates p.
func (ws *workspace) presolve(p *Problem) *presolved {
	n := len(p.names)
	nRows := len(p.constraints)
	ps := &ws.ps
	*ps = presolved{
		p: p, status: Optimal,
		rowsIn: nRows, colsIn: n,
		fixed:  zeroed(&ws.fixed, n),
		fixVal: resize(&ws.fixVal, n),
		dupOf:  resize(&ws.dupOf, n),
	}
	for v := range ps.dupOf {
		ps.dupOf[v] = -1
	}

	u := resize(&ws.u, n)
	copy(u, p.upper)
	cost := resize(&ws.cost, n)
	copy(cost, p.cost)

	// Row-occurrence index per variable, and per-row working state. effRhs
	// absorbs fixed variables (rhs minus their contribution), live counts
	// the remaining unfixed variables. The per-variable occurrence lists
	// carve up two flat buffers (counted in a first pass) instead of
	// growing n small slices.
	occRow := resize(&ws.occRow, n)
	occVal := resize(&ws.occVal, n)
	effRhs := resize(&ws.effRhs, nRows)
	live := resize(&ws.live, nRows)
	dropRow := zeroed(&ws.dropRow, nRows)
	colLive := zeroed(&ws.colLive, n)
	nnz := 0
	for ri := range p.constraints {
		c := &p.constraints[ri]
		effRhs[ri] = c.rhs
		live[ri] = len(c.idx)
		nnz += len(c.idx)
		for _, v := range c.idx {
			colLive[v]++
		}
	}
	occRowBuf := resize(&ws.occRowBuf, nnz)
	occValBuf := resize(&ws.occValBuf, nnz)
	off := 0
	for v := 0; v < n; v++ {
		end := off + colLive[v]
		occRow[v] = occRowBuf[off:off:end]
		occVal[v] = occValBuf[off:off:end]
		off = end
	}
	for ri := range p.constraints {
		c := &p.constraints[ri]
		for k, v := range c.idx {
			occRow[v] = append(occRow[v], int32(ri))
			occVal[v] = append(occVal[v], c.coeffs[k])
		}
	}

	changed := true
	fix := func(v int, val float64) {
		if ps.fixed[v] {
			return
		}
		if val < 0 {
			val = 0
		}
		ps.fixed[v] = true
		ps.fixVal[v] = val + 0 // canonicalize −0
		for k, ri := range occRow[v] {
			if dropRow[ri] {
				continue
			}
			effRhs[ri] -= occVal[v][k] * val
			live[ri]--
		}
		changed = true
	}
	drop := func(ri int) {
		dropRow[ri] = true
		for _, v := range p.constraints[ri].idx {
			colLive[v]--
		}
		ps.rowsOut++
		changed = true
	}

	for pass := 0; changed && pass < 32; pass++ {
		changed = false
		// Column rules first: zero upper bounds and dead columns.
		for v := 0; v < n; v++ {
			if ps.fixed[v] {
				continue
			}
			if u[v] <= 0 {
				fix(v, 0)
				continue
			}
			if colLive[v] == 0 {
				switch {
				case cost[v] >= 0:
					fix(v, 0)
				case u[v] < infUB:
					fix(v, u[v])
				default:
					// Negative cost, unbounded above, unconstrained: the
					// problem is unbounded. Decline and let the simplex
					// certify it on the original problem.
					ps.declined = true
					return ps
				}
			}
		}
		// Row rules.
		for ri := range p.constraints {
			if dropRow[ri] {
				continue
			}
			c := &p.constraints[ri]
			b := effRhs[ri]
			switch live[ri] {
			case 0:
				feasible := false
				switch c.sense {
				case LE:
					feasible = b >= -feasTol
				case GE:
					feasible = b <= feasTol
				case EQ:
					feasible = math.Abs(b) <= feasTol
				}
				if !feasible {
					ps.status = Infeasible
					return ps
				}
				drop(ri)
			case 1:
				v, a := -1, 0.0
				for k, vv := range c.idx {
					if !ps.fixed[vv] {
						v, a = vv, c.coeffs[k]
						break
					}
				}
				bound := b / a
				// Normalize the sense to the variable's direction: a<0
				// flips ≤ and ≥.
				sense := c.sense
				if a < 0 {
					switch sense {
					case LE:
						sense = GE
					case GE:
						sense = LE
					}
				}
				switch sense {
				case EQ:
					if bound < -feasTol || bound > u[v]+feasTol {
						ps.status = Infeasible
						return ps
					}
					if bound > u[v] {
						bound = u[v]
					}
					fix(v, bound)
					drop(ri)
				case LE: // x ≤ bound
					if bound < -feasTol {
						ps.status = Infeasible
						return ps
					}
					if bound < 0 {
						bound = 0
					}
					if bound < u[v] {
						u[v] = bound
						changed = true
					}
					drop(ri)
				case GE: // x ≥ bound
					if bound > u[v]+feasTol {
						ps.status = Infeasible
						return ps
					}
					if bound <= feasTol {
						drop(ri) // vacuous against x ≥ 0
					}
					// A positive lower bound is not expressible in this
					// problem form; the row stays.
				}
			default:
				// Activity bounds over the unfixed variables. minAct uses
				// the lower bound 0 for positive coefficients and u for
				// negative ones; maxAct the reverse.
				minAct, maxAct := 0.0, 0.0
				infMin, infMax := false, false
				for k, v := range c.idx {
					if ps.fixed[v] {
						continue
					}
					a := c.coeffs[k]
					if a > 0 {
						if u[v] >= infUB {
							infMax = true
						} else {
							maxAct += a * u[v]
						}
					} else {
						if u[v] >= infUB {
							infMin = true
						} else {
							minAct += a * u[v]
						}
					}
				}
				forceMin := func() {
					for k, v := range c.idx {
						if ps.fixed[v] {
							continue
						}
						if c.coeffs[k] > 0 {
							fix(v, 0)
						} else {
							fix(v, u[v])
						}
					}
					drop(ri)
				}
				forceMax := func() {
					for k, v := range c.idx {
						if ps.fixed[v] {
							continue
						}
						if c.coeffs[k] > 0 {
							fix(v, u[v])
						} else {
							fix(v, 0)
						}
					}
					drop(ri)
				}
				switch c.sense {
				case LE:
					if !infMin && minAct > b+feasTol {
						ps.status = Infeasible
						return ps
					}
					switch {
					case !infMax && maxAct <= b:
						drop(ri) // provably redundant
					case !infMin && minAct == b:
						forceMin()
					}
				case GE:
					if !infMax && maxAct < b-feasTol {
						ps.status = Infeasible
						return ps
					}
					switch {
					case !infMin && minAct >= b:
						drop(ri) // provably redundant
					case !infMax && maxAct == b:
						forceMax()
					}
				case EQ:
					if (!infMin && minAct > b+feasTol) || (!infMax && maxAct < b-feasTol) {
						ps.status = Infeasible
						return ps
					}
					switch {
					case !infMin && minAct == b:
						forceMin()
					case !infMax && maxAct == b:
						forceMax()
					}
				}
			}
		}
	}

	ws.mergeDuplicates(u, cost, effRhs, live, dropRow, colLive, drop)

	// Emit the reduced problem, pre-sized to its known dimensions: a
	// counting pass over the kept variables and rows sizes every buffer
	// exactly, so the rows are carved from one entry buffer.
	ps.origIdx = resize(&ws.origIdx, n)
	kept := 0
	for v := 0; v < n; v++ {
		if ps.fixed[v] || ps.dupOf[v] >= 0 {
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
	red.Grow(kept, nRows-ps.rowsOut, entries)
	for v := 0; v < n; v++ {
		if ps.origIdx[v] < 0 {
			continue
		}
		red.names = append(red.names, p.names[v])
		red.cost = append(red.cost, cost[v])
		red.upper = append(red.upper, u[v])
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
		red.appendRow(c.name, start, c.sense, effRhs[ri])
	}
	red.MaxIters = p.MaxIters
	red.Parallel = p.Parallel
	red.etaEvery = p.etaEvery
	if red.NumVars() == 0 && red.NumConstraints() == 0 {
		return ps // fully solved by presolve
	}
	ps.red = red
	return ps
}

// mergeDuplicates drops rows that duplicate an earlier row over the
// shared (non-private) variables. Rows where the only difference is one
// private cost-carrying singleton each — the Mostly-Protected ε pattern —
// merge by folding the duplicate's ε cost onto the representative's;
// exact duplicates (no private part) simply drop. Signatures are exact
// (float bits), so a merge never changes the feasible set or the optimum.
//
// Rows bucket by a 64-bit hash of their shared content and are verified
// entry for entry against the bucket's representatives (each frozen as it
// was when first scanned), so a hash collision can never cause a wrong
// merge. Representatives' shared entries live back to back in two flat
// buffers sized up front, and a bucket is a chain through them.
func (ws *workspace) mergeDuplicates(u, cost, effRhs []float64, live []int, dropRow []bool, colLive []int, drop func(int)) {
	ps := &ws.ps
	p := ps.p
	// Sized for the worst case: every live row its own representative.
	rows, entries := 0, 0
	for ri := range p.constraints {
		if !dropRow[ri] && live[ri] > 0 {
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
		if dropRow[ri] || live[ri] == 0 {
			continue
		}
		c := &p.constraints[ri]
		// Identify the private ε candidates: unfixed, coefficient exactly
		// 1, live only in this row, unbounded, positive cost. Everything
		// else is shared content.
		epsVar := -1
		nEps := 0
		sharedV, sharedB = sharedV[:0], sharedB[:0]
		rhs := math.Float64bits(effRhs[ri])
		// The hash only picks a bucket; matches are verified exactly.
		h := uint64(14695981039346656037)
		mix := func(x uint64) {
			h = (h ^ x) * 0x9e3779b97f4a7c15
			h ^= h >> 29
		}
		mix(uint64(c.sense))
		mix(rhs)
		for k, v := range c.idx {
			if ps.fixed[v] || ps.dupOf[v] >= 0 {
				continue
			}
			if c.coeffs[k] == 1 && colLive[v] == 1 && u[v] >= infUB && cost[v] > 0 {
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
		if nEps > 1 {
			continue // ambiguous private part; leave the row alone
		}
		if nEps == 0 {
			epsVar = -1
		}
		mix(uint64(nEps)) // the E/P kind: ε-pattern and exact rows never merge
		matched := false
		head, chained := seen[h]
		if !chained {
			head = -1
		}
		for pi := head; pi >= 0; pi = reps[pi].next {
			r := &reps[pi]
			if r.sense != c.sense || r.rhs != rhs ||
				(r.eps >= 0) != (epsVar >= 0) || r.to-r.from != len(sharedV) {
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
			if epsVar >= 0 {
				// Fold the duplicate ε onto the representative's: the merged
				// cost prices the shared shortfall once, and postsolve copies
				// the representative's value back.
				cost[r.eps] += cost[epsVar]
				ps.dupOf[epsVar] = r.eps
			}
			drop(ri)
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
	eps      int // representative's private ε, -1 for exact-duplicate rows
	sense    Sense
	rhs      uint64
	from, to int   // shared entries in repV/repB, frozen at scan time
	next     int32 // next representative with the same hash, -1 at the end
}
