// The original dense two-phase tableau simplex, kept as the test oracle:
// the sparse revised simplex (sparse.go) must agree with it on objective
// values and thresholded vertex components, which the dense-vs-sparse
// equivalence tests enforce.
package lp

import "math"

// SolveDense runs the dense two-phase tableau simplex and returns the
// optimal vertex, or a Solution whose Status reports why there is no finite
// optimum (accompanied by a wrapped ErrNotOptimal / ErrIterationLimit).
// The returned Solution carries no Basis; use Solve for warm-startable
// solves.
func (p *Problem) SolveDense() (*Solution, error) {
	t := newTableau(p)
	status, iters := t.phase1()
	if status != Optimal {
		if status == IterLimit {
			return &Solution{Status: status, Iters: iters}, statusErr(status)
		}
		return &Solution{Status: Infeasible, Iters: iters}, statusErr(Infeasible)
	}
	status, it2 := t.phase2()
	iters += it2
	if status != Optimal {
		return &Solution{Status: status, Iters: iters}, statusErr(status)
	}
	x := t.extract()
	obj := 0.0
	for v, c := range p.cost {
		obj += c * x[v]
	}
	return &Solution{Status: Optimal, X: x, Objective: obj, Iters: iters}, nil
}

// tableau is the dense simplex working state. Column layout:
//
//	[0, n)            structural variables
//	[n, n+nSlack)     slack/surplus variables
//	[n+nSlack, total) artificial variables (phase 1 only)
//
// rows[i][total] holds the RHS. basis[i] is the column basic in row i.
type tableau struct {
	p      *Problem
	n      int // structural variables
	nSlack int
	nArt   int
	total  int
	rows   [][]float64
	basis  []int
	obj    []float64 // reduced-cost row, length total+1 (last = -objective value)
	artAt  int       // first artificial column
}

func newTableau(p *Problem) *tableau {
	n := len(p.names)

	// Materialize upper bounds as explicit ≤ rows. The inference encodings
	// only bound probability variables, so this stays small.
	type row struct {
		coeffs []float64 // dense over structural vars
		sense  Sense
		rhs    float64
	}
	var rows []row
	for _, c := range p.constraints {
		r := row{coeffs: make([]float64, n), sense: c.sense, rhs: c.rhs}
		for k, v := range c.idx {
			r.coeffs[v] += c.coeffs[k]
		}
		rows = append(rows, r)
	}
	for v, u := range p.upper {
		if u < infUB {
			r := row{coeffs: make([]float64, n), sense: LE, rhs: u}
			r.coeffs[v] = 1
			rows = append(rows, r)
		}
	}

	// Normalize to rhs ≥ 0.
	for i := range rows {
		if rows[i].rhs < 0 {
			for j := range rows[i].coeffs {
				rows[i].coeffs[j] = -rows[i].coeffs[j]
			}
			rows[i].rhs = -rows[i].rhs
			switch rows[i].sense {
			case LE:
				rows[i].sense = GE
			case GE:
				rows[i].sense = LE
			}
		}
	}

	// Count slack and artificial columns.
	nSlack, nArt := 0, 0
	for _, r := range rows {
		switch r.sense {
		case LE:
			nSlack++
		case GE:
			nSlack++
			nArt++
		case EQ:
			nArt++
		}
	}

	total := n + nSlack + nArt
	t := &tableau{
		p:      p,
		n:      n,
		nSlack: nSlack,
		nArt:   nArt,
		total:  total,
		artAt:  n + nSlack,
		basis:  make([]int, len(rows)),
	}
	t.rows = make([][]float64, len(rows))
	slack, art := n, t.artAt
	for i, r := range rows {
		tr := make([]float64, total+1)
		copy(tr, r.coeffs)
		tr[total] = r.rhs
		switch r.sense {
		case LE:
			tr[slack] = 1
			t.basis[i] = slack
			slack++
		case GE:
			tr[slack] = -1
			slack++
			tr[art] = 1
			t.basis[i] = art
			art++
		case EQ:
			tr[art] = 1
			t.basis[i] = art
			art++
		}
		t.rows[i] = tr
	}
	return t
}

// phase1 minimizes the sum of artificial variables to find a basic feasible
// solution. Returns Optimal when one exists.
func (t *tableau) phase1() (Status, int) {
	if t.nArt == 0 {
		return Optimal, 0
	}
	// Objective: minimize Σ artificials. Price out basic artificials.
	t.obj = make([]float64, t.total+1)
	for j := t.artAt; j < t.total; j++ {
		t.obj[j] = 1
	}
	for i, b := range t.basis {
		if b >= t.artAt {
			subRow(t.obj, t.rows[i], 1)
		}
	}
	status, iters := t.iterate(t.artAt) // artificials may leave, not enter
	if status != Optimal {
		return status, iters
	}
	// Feasible iff phase-1 objective is ~0.
	if -t.obj[t.total] > 1e-7 {
		return Infeasible, iters
	}
	t.purgeArtificials()
	return Optimal, iters
}

// purgeArtificials pivots any artificial still basic (at value 0) out of the
// basis, or marks its row redundant by zeroing it.
func (t *tableau) purgeArtificials() {
	for i, b := range t.basis {
		if b < t.artAt {
			continue
		}
		pivoted := false
		for j := 0; j < t.artAt; j++ {
			if math.Abs(t.rows[i][j]) > eps {
				t.pivot(i, j)
				pivoted = true
				break
			}
		}
		if !pivoted {
			// Redundant row: every structural/slack coefficient is 0.
			for j := range t.rows[i] {
				t.rows[i][j] = 0
			}
		}
	}
	// Artificial columns must never re-enter: zero them everywhere.
	for i := range t.rows {
		for j := t.artAt; j < t.total; j++ {
			t.rows[i][j] = 0
		}
	}
}

// phase2 minimizes the real objective from the feasible basis.
func (t *tableau) phase2() (Status, int) {
	t.obj = make([]float64, t.total+1)
	for v, c := range t.p.cost {
		t.obj[v] = c
	}
	for i, b := range t.basis {
		if b < t.total && math.Abs(t.obj[b]) > 0 {
			subRow(t.obj, t.rows[i], t.obj[b])
		}
	}
	return t.iterate(t.artAt)
}

// iterate runs simplex pivots until optimality or unboundedness. Columns at
// or beyond colLimit are excluded from entering the basis (artificials).
// Dantzig pricing with a switch to Bland's rule after a run of degenerate
// pivots guards against cycling.
func (t *tableau) iterate(colLimit int) (Status, int) {
	iters := 0
	degenerate := 0
	bland := false
	for ; iters < t.p.maxIters(); iters++ {
		// Entering column.
		enter := -1
		if bland {
			for j := 0; j < colLimit; j++ {
				if t.obj[j] < -eps {
					enter = j
					break
				}
			}
		} else {
			best := -eps
			for j := 0; j < colLimit; j++ {
				if t.obj[j] < best {
					best = t.obj[j]
					enter = j
				}
			}
		}
		if enter < 0 {
			return Optimal, iters
		}
		// Ratio test.
		leave := -1
		var minRatio float64
		for i, row := range t.rows {
			a := row[enter]
			if a > eps {
				ratio := row[t.total] / a
				if leave < 0 || ratio < minRatio-eps ||
					(math.Abs(ratio-minRatio) <= eps && t.basis[i] < t.basis[leave]) {
					leave = i
					minRatio = ratio
				}
			}
		}
		if leave < 0 {
			return Unbounded, iters
		}
		if minRatio < eps {
			degenerate++
			if degenerate > 2*len(t.rows)+20 {
				bland = true
			}
		} else {
			degenerate = 0
			bland = false
		}
		t.pivot(leave, enter)
	}
	return IterLimit, iters
}

// pivot makes column enter basic in row leave.
func (t *tableau) pivot(leave, enter int) {
	prow := t.rows[leave]
	pv := prow[enter]
	inv := 1 / pv
	for j := range prow {
		prow[j] *= inv
	}
	prow[enter] = 1 // fight rounding
	for i, row := range t.rows {
		if i == leave {
			continue
		}
		if f := row[enter]; math.Abs(f) > eps {
			subRow(row, prow, f)
			row[enter] = 0
		} else {
			row[enter] = 0
		}
	}
	if f := t.obj[enter]; math.Abs(f) > 0 {
		subRow(t.obj, prow, f)
		t.obj[enter] = 0
	}
	t.basis[leave] = enter
}

// extract reads structural variable values out of the basis. The +0
// canonicalizes IEEE negative zero, matching the sparse extractor.
func (t *tableau) extract() []float64 {
	x := make([]float64, t.n)
	for i, b := range t.basis {
		if b < t.n {
			v := t.rows[i][t.total]
			if v < 0 && v > -eps {
				v = 0
			}
			x[b] = v + 0
		}
	}
	return x
}

// subRow computes dst -= f*src element-wise.
func subRow(dst, src []float64, f float64) {
	for j := range dst {
		dst[j] -= f * src[j]
	}
}
