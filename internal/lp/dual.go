// Dual simplex. The primal simplex walks primal-feasible bases toward
// dual feasibility; the dual simplex does the opposite — and "dual
// feasible but not primal feasible" is exactly the state a carried optimal
// basis is in after the encoder appends or excises rows between rounds:
// the old reduced costs remain nonnegative, but the new rows cut the old
// vertex off. Re-optimizing from there takes a handful of dual pivots —
// one per violated row, typically — instead of a primal restart through
// phase 1.
//
// One iteration: pick the most negative basic value (the most violated
// position), BTRAN its row of B⁻¹A, and run the dual ratio test
// min d_j/(−α_j) over nonbasic real columns with α_j < 0. The entering
// column keeps every reduced cost nonnegative; if no candidate exists the
// dual is unbounded, which certifies primal infeasibility. Ties break
// toward the smallest column index, degeneracy flips leave-selection to
// Bland's rule after the same 2m+20 run the primal uses, and pivots share
// the primal pivot path (eta update, reduced-cost maintenance,
// refactorization triggers).
package lp

import (
	"math"
	"slices"
)

// dualFeasible reports whether the maintained reduced costs are all
// nonnegative on the real (non-artificial) columns — the precondition for
// dual simplex pivots.
func (r *revised) dualFeasible() bool {
	for j := 0; j < r.sf.artAt; j++ {
		if !r.inBasis[j] && r.d[j] < -eps {
			return false
		}
	}
	return true
}

// dualIterate runs dual simplex pivots from a dual-feasible basis until
// primal feasibility (Optimal — the caller finishes with primal cleanup
// pivots), proven primal infeasibility, the shared pivot budget, or a
// numerical dead end (fallbackStatus → cold restart). Requires r.d
// maintained for the phase-2 costs.
func (r *revised) dualIterate() Status {
	sf := r.sf
	m := sf.m
	degenerate, bland := 0, false
	budget := r.p.maxIters()
	for {
		leave := -1
		if bland {
			for i := 0; i < m; i++ {
				if r.xB[i] < -feasTol {
					leave = i
					break
				}
			}
		} else {
			worst := -feasTol
			for i := 0; i < m; i++ {
				if v := r.xB[i]; v < worst ||
					(v == worst && leave >= 0 && r.basis[i] < r.basis[leave]) {
					worst, leave = v, i
				}
			}
		}
		if leave < 0 {
			return Optimal // primal feasible; dual work done
		}
		if r.iters >= budget {
			return IterLimit
		}
		acols := r.pivotRow(leave)
		// The eps-banded tie comparison below is order-sensitive; a sorted
		// candidate list makes the scan a deterministic function of the
		// problem, like every other selection rule in this package.
		slices.Sort(acols)
		enter := -1
		var best float64
		for _, jj := range acols {
			j := int(jj)
			if j >= sf.artAt || r.inBasis[j] {
				continue
			}
			a := r.alpha[j]
			if a >= -eps {
				continue
			}
			ratio := r.d[j] / -a
			if enter < 0 || ratio < best-eps {
				enter, best = j, ratio
			}
		}
		if enter < 0 {
			r.clearAlpha(acols)
			return Infeasible // dual unbounded ⇒ primal infeasible
		}
		if best < eps {
			degenerate++
			if degenerate > 2*m+20 {
				bland = true
			}
		} else {
			degenerate, bland = 0, false
		}
		r.ftranCol(enter, r.t)
		if math.Abs(r.t[leave]) <= eps {
			// FTRAN disagrees with the BTRAN row about the pivot magnitude:
			// the eta file has drifted. Refactorize and retry the iteration
			// on clean numbers; if that is not available, restart cold.
			r.clearAlpha(acols)
			if r.noRefactor || r.etas.len() == 0 || !r.refactor() {
				return fallbackStatus
			}
			continue
		}
		r.dualIters++
		r.pivot(leave, enter, r.t, acols)
	}
}
