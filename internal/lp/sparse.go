// Sparse revised simplex. The SherLock encodings are >95% zeros — each
// Mostly-Protected row touches only the window's candidate keys — so the
// constraint matrix is stored column-sparse and the working state is a
// sparse LU factorization of the basis (lu.go), not a tableau or a dense
// inverse:
//
//   - A crash basis exploits the encoding's structure: every GE row with a
//     positive singleton column (the ε/t auxiliary variables) starts with
//     that column basic, every LE row with its slack, so SherLock problems
//     typically begin primal-feasible and skip phase 1 entirely.
//   - The basis is represented as B = B₀·E₁·…·Eₛ: LU factors of a recent
//     basis plus one sparse eta per pivot since, refactorized periodically
//     (see lu.go). FTRAN/BTRAN cost O(nnz), a pivot costs O(nnz) — the
//     O(m²)-per-pivot dense inverse update is gone.
//   - Reduced costs are maintained incrementally from the BTRAN pivot row
//     (the revised analogue of the dense tableau's objective row), with
//     Dantzig pricing and the same Bland's-rule anti-cycling switch as the
//     dense backend.
//   - Warm starts (basis.go) map a prior optimal basis by (kind, name)
//     row/column identity, fill the uncovered rows and refactorize it
//     against the current problem data; a basis that is singular or
//     primal infeasible there falls back to a cold start.
//   - Before a solve, a presolve pass (presolve.go) drops empty and
//     redundant ≥-rows and merges duplicated ε rows; independent connected
//     components of the reduced problem are solved separately,
//     concurrently when Problem.Parallel allows (decompose.go).
//
// Memory: a solve allocates only its answer. Problem rows are windows
// into flat entry arrays (lp.go); a counting pass sizes every
// component's standard form (compressed column and row arrays), simplex
// scratch and factorization bookkeeping, and one carver hands out
// disjoint slices of four solve-wide buffers (decompose.go). Those and
// every other scratch buffer belong to a pooled workspace (workspace.go)
// that the next solve reuses. Only the LU triangles and the eta file
// grow, and those are reused across refactorizations.
//
// Determinism: every choice — pivot selection, refactorization points,
// presolve order, component order — is a pure function of the problem, so
// identical problems yield bit-identical solutions at any parallelism.
// After the last pivot the final basis is refactorized from the problem
// data and the basic values recomputed from scratch, so the extracted
// values are a function of the final basis, not of the pivot path that
// reached it. They are not a function of the vertex alone: a warm and a
// cold solve can end on different optimal bases of one degenerate vertex,
// whose values may differ in the last bit. That is why offline solves,
// incremental folds included, always start cold.
package lp

import "math"

// feasTol is the feasibility tolerance on basic values.
const feasTol = 1e-7

// fallbackStatus is an internal sentinel: the starting basis is primal
// infeasible and the caller must restart cold. revised.solve never
// returns it.
const fallbackStatus Status = -1

// standardForm is one component of a problem in computational standard
// form: its constraints, then the materialized upper-bound rows of its
// variables, normalized to rhs ≥ 0, with slack, surplus and artificial
// columns appended after the structural ones.
//
//	[0, n)            structural variables (the component's, in order)
//	[n, artAt)        slack/surplus variables
//	[artAt, total)    artificial variables
//
// The matrix is stored twice, as flat compressed columns (colPtr/colRows/
// colVals) and compressed rows (rowPtr/rowCols/rowVals): the BTRAN-based
// reduced-cost update walks rows, not columns.
// Rows and columns keep no names; rowIdent and colIdent derive their
// identities from the problem when a basis is snapshotted.
type standardForm struct {
	m, n  int
	nArt  int
	artAt int
	total int

	p    *Problem
	comp int32   // component number in the decomposition
	vars []int32 // the problem variable of each structural column

	colPtr  []int32
	colRows []int32
	colVals []float64
	rhs     []float64

	rowPtr  []int32 // row i's entries, in ascending column order
	rowCols []int32
	rowVals []float64

	rowRef []int32 // per row: its constraint, or −(v+1) for variable v's upper-bound row
	colRow []int32 // per slack/artificial column j: its row, at j−n

	slackCol  []int32   // per row: slack/surplus column, -1 if none
	slackSign []float64 // per row: +1 (LE slack) or -1 (GE surplus)
	artCol    []int32   // per row: artificial column, -1 if none

	// posSingleton is, per row, a structural column that appears only in
	// this row with a positive coefficient (-1 if none) — the crash basis
	// uses it to start feasible without an artificial. The SherLock
	// encodings have one in every Mostly-Protected row (the ε variable).
	posSingleton []int32
}

// col returns column j's entries.
func (sf *standardForm) col(j int) ([]int32, []float64) {
	a, b := sf.colPtr[j], sf.colPtr[j+1]
	return sf.colRows[a:b], sf.colVals[a:b]
}

// shape is a component's standard-form size, counted before anything is
// allocated.
type shape struct {
	m, n         int
	nSlack, nArt int
	nnz          int // structural entries, upper-bound rows included
}

func (sh shape) total() int { return sh.n + sh.nSlack + sh.nArt }

// normSense is the sense of a row after normalization to rhs ≥ 0.
func normSense(sense Sense, rhs float64) Sense {
	if rhs < 0 {
		switch sense {
		case LE:
			return GE
		case GE:
			return LE
		}
	}
	return sense
}

// add counts one row of the given normalized sense.
func (sh *shape) add(sense Sense) {
	sh.m++
	switch sense {
	case LE:
		sh.nSlack++
	case GE:
		sh.nSlack++
		sh.nArt++
	case EQ:
		sh.nArt++
	}
}

// measure counts comp's standard form: its constraints, then one ≤ row
// per finitely bounded variable, exactly like the dense backend, so both
// backends solve the identical standard form.
func measure(p *Problem, comp *component) shape {
	sh := shape{n: len(comp.vars)}
	for _, ri := range comp.rows {
		c := &p.constraints[ri]
		sh.nnz += len(c.idx)
		sh.add(normSense(c.sense, c.rhs))
	}
	for _, v := range comp.vars {
		if u := p.upper[v]; u < infUB {
			sh.nnz++
			sh.add(normSense(LE, u))
		}
	}
	return sh
}

// carve takes the standard form's arrays from c.
func (sf *standardForm) carve(c *carver, sh shape) {
	m, total := sh.m, sh.total()
	nnz := sh.nnz + sh.nSlack + sh.nArt
	sf.colPtr = c.int32s(total + 1)
	sf.colRows = c.int32s(nnz)
	sf.rowPtr = c.int32s(m + 1)
	sf.rowCols = c.int32s(nnz)
	sf.rowRef = c.int32s(m)
	sf.colRow = c.int32s(total - sh.n)
	sf.slackCol = c.int32s(m)
	sf.artCol = c.int32s(m)
	sf.posSingleton = c.int32s(m)
	sf.colVals = c.floats(nnz)
	sf.rowVals = c.floats(nnz)
	sf.rhs = c.floats(m)
	sf.slackSign = c.floats(m)
}

// build fills the carved standard form of component ci of d.
func (sf *standardForm) build(p *Problem, d *decomposition, ci int, sh shape) {
	comp := &d.comps[ci]
	n, m := sh.n, sh.m
	sf.p, sf.comp, sf.vars = p, int32(ci), comp.vars
	sf.m, sf.n, sf.nArt = m, n, sh.nArt
	sf.artAt = n + sh.nSlack
	sf.total = sh.total()

	// Rows: identity, normalized rhs, slack and artificial columns.
	nc := len(comp.rows)
	for i, ri := range comp.rows {
		sf.rowRef[i] = ri
	}
	i := nc
	for _, v := range comp.vars {
		if p.upper[v] < infUB {
			sf.rowRef[i] = -v - 1
			i++
		}
	}
	colPtr := sf.colPtr
	clear(colPtr)
	slack, art := n, sf.artAt
	for i := 0; i < m; i++ {
		sense, rhs := sf.rawRow(i)
		sense = normSense(sense, rhs)
		if rhs < 0 {
			rhs = -rhs
		}
		sf.rhs[i] = rhs
		sf.slackCol[i], sf.artCol[i], sf.posSingleton[i] = -1, -1, -1
		sf.slackSign[i] = 0
		switch sense {
		case LE, GE:
			sf.slackCol[i] = int32(slack)
			sf.slackSign[i] = 1
			if sense == GE {
				sf.slackSign[i] = -1
			}
			sf.colRow[slack-n] = int32(i)
			colPtr[slack] = 1
			slack++
		}
		switch sense {
		case GE, EQ:
			sf.artCol[i] = int32(art)
			sf.colRow[art-n] = int32(i)
			colPtr[art] = 1
			art++
		}
	}

	// Columns: count, prefix-sum into start offsets, then fill in row
	// order, so each column lists its rows ascending. colPtr[j] serves as
	// column j's fill cursor and is shifted back into place afterwards.
	for i := 0; i < nc; i++ {
		for _, v := range p.constraints[comp.rows[i]].idx {
			colPtr[d.local[v]]++
		}
	}
	for i := nc; i < m; i++ {
		colPtr[d.local[-sf.rowRef[i]-1]]++
	}
	at := int32(0)
	for j := 0; j < sf.total; j++ {
		at, colPtr[j] = at+colPtr[j], at
	}
	put := func(j int32, i int, a float64) {
		k := colPtr[j]
		sf.colRows[k], sf.colVals[k] = int32(i), a
		colPtr[j] = k + 1
	}
	for i := 0; i < nc; i++ {
		c := &p.constraints[comp.rows[i]]
		neg := c.rhs < 0
		for k, v := range c.idx {
			a := c.coeffs[k]
			if neg {
				a = -a
			}
			put(d.local[v], i, a)
		}
	}
	for i := nc; i < m; i++ {
		v := -sf.rowRef[i] - 1
		a := 1.0
		if p.upper[v] < 0 {
			a = -1
		}
		put(d.local[v], i, a)
	}
	for i := 0; i < m; i++ {
		if j := sf.slackCol[i]; j >= 0 {
			put(j, i, sf.slackSign[i])
		}
		if j := sf.artCol[i]; j >= 0 {
			put(j, i, 1)
		}
	}
	copy(colPtr[1:], colPtr[:sf.total])
	colPtr[0] = 0

	// Positive structural singletons (crash-basis candidates), first by
	// column order per row.
	for j := 0; j < n; j++ {
		rows, vals := sf.col(j)
		if len(rows) != 1 || vals[0] <= eps {
			continue
		}
		if i := rows[0]; sf.posSingleton[i] < 0 {
			sf.posSingleton[i] = int32(j)
		}
	}

	// Row-major copy, filled column-ascending so each row's list is in
	// ascending column order (a deterministic accumulation order for the
	// pivot-row products).
	rowPtr := sf.rowPtr
	clear(rowPtr)
	for _, i := range sf.colRows {
		rowPtr[i]++
	}
	at = 0
	for i := 0; i < m; i++ {
		at, rowPtr[i] = at+rowPtr[i], at
	}
	for j := 0; j < sf.total; j++ {
		rows, vals := sf.col(j)
		for k, i := range rows {
			q := rowPtr[i]
			sf.rowCols[q], sf.rowVals[q] = int32(j), vals[k]
			rowPtr[i] = q + 1
		}
	}
	copy(rowPtr[1:], rowPtr[:m])
	rowPtr[0] = 0
}

// rawRow returns row i's sense and rhs before normalization.
func (sf *standardForm) rawRow(i int) (Sense, float64) {
	if ref := sf.rowRef[i]; ref >= 0 {
		c := &sf.p.constraints[ref]
		return c.sense, c.rhs
	}
	return LE, sf.p.upper[-sf.rowRef[i]-1]
}

// rowIdent returns row i's identity.
func (sf *standardForm) rowIdent(i int) ident {
	if ref := sf.rowRef[i]; ref >= 0 {
		return ident{idRow, sf.p.constraints[ref].name}
	}
	return ident{idUB, sf.p.names[-sf.rowRef[i]-1]}
}

// colIdent returns column j's identity.
func (sf *standardForm) colIdent(j int) ident {
	if j < sf.n {
		return ident{idVar, sf.p.names[sf.vars[j]]}
	}
	row := sf.rowIdent(int(sf.colRow[j-sf.n]))
	if j < sf.artAt {
		return slackOf(row)
	}
	return artOf(row)
}

// revised is the sparse revised-simplex working state. Basis slot i holds
// column basis[i]; slots are positions in the factorization, decoupled
// from constraint rows once pivoting starts.
type revised struct {
	p  *Problem
	sf *standardForm

	basis   []int  // basic column per basis position
	inBasis []bool // per column
	lu      *luFactors
	spare   *luFactors // the idle factorization, refactorized into
	work    luWork
	etas    etaFile
	xB      []float64 // basic values per position

	cost []float64 // current phase's cost vector over all columns
	d    []float64 // maintained reduced costs (nil outside iterate phases)
	dBuf []float64 // d's storage

	iters int

	refactorEvery int
	noRefactor    bool // a refactorization failed; ride the eta file out

	// Scratch, carved once per solve.
	wr     []float64 // length m, original-row indexed (FTRAN in / BTRAN out)
	t      []float64 // length m, position indexed (FTRAN result)
	pz     []float64 // length m, position indexed (BTRAN input)
	alpha  []float64 // length total: current BTRAN pivot row of B⁻¹A
	ainCol []bool    // membership of alpha's touched set
	atouch []int32
}

// carve takes the working state's arrays, and those of the two
// factorizations it alternates between, from c.
func (r *revised) carve(c *carver, sh shape, lus *[2]luFactors) {
	m, total := sh.m, sh.total()
	r.basis = c.ints(m)
	r.inBasis = c.bools(total)
	r.ainCol = c.bools(total)
	r.work.inCol = c.bools(m)
	r.work.queued = c.bools(m)
	r.xB = c.floats(m)
	r.wr = c.floats(m)
	r.t = c.floats(m)
	r.pz = c.floats(m)
	r.alpha = c.floats(total)
	r.cost = c.floats(total)
	r.dBuf = c.floats(total)
	r.work.w = c.floats(m)
	clear(r.work.w) // the work arrays are all zero at rest
	clear(r.work.inCol)
	clear(r.work.queued)
	r.atouch = c.int32s(total)[:0]
	r.work.touched = c.int32s(m)[:0]
	r.work.heap = c.int32s(m)[:0]
	for k := range lus {
		f := &lus[k]
		f.pivrow = c.int32s(m)
		f.pinv = c.int32s(m)
		f.lStart = c.int32s(m + 1)
		f.uStart = c.int32s(m + 1)
		f.diag = c.floats(m)
	}
	r.lu, r.spare = &lus[0], &lus[1]
}

// reset returns the working state to that of a fresh solve, with no basis
// chosen: the caller installs one via applyWarm or crash.
func (r *revised) reset(p *Problem, sf *standardForm) {
	r.p, r.sf = p, sf
	r.refactorEvery = p.etaEveryOrDefault()
	r.noRefactor = false
	r.iters = 0
	r.d = nil
	r.etas.reset()
	clear(r.inBasis)
	clear(r.xB)
	clear(r.wr)
	clear(r.t)
	clear(r.pz)
	clear(r.alpha)
	clear(r.ainCol)
	r.atouch = r.atouch[:0]
}

// crash installs the crash basis: per row a positive structural singleton
// (GE/EQ), the slack (LE, or GE with zero rhs), or the artificial. B is
// diagonal, so the factorization is trivial and every basic value is ≥ 0
// by construction.
func (r *revised) crash() {
	sf := r.sf
	for i := 0; i < sf.m; i++ {
		col := sf.crashCol(i)
		r.basis[i] = col
		r.inBasis[col] = true
	}
	// A diagonal basis cannot be singular (every crash coefficient is ±1 or
	// a nonzero singleton), so the factorization always succeeds.
	r.factorize()
	r.computeXB()
}

// factorize factors the current basis into the idle factorization and,
// on success, makes it the live one. On failure the live one is kept.
func (r *revised) factorize() bool {
	if !r.spare.factor(r.sf, r.basis, &r.work) {
		return false
	}
	r.lu, r.spare = r.spare, r.lu
	return true
}

// crashCol picks row i's starting basic column.
func (sf *standardForm) crashCol(i int) int {
	if sf.slackCol[i] >= 0 && sf.slackSign[i] > 0 { // LE
		return int(sf.slackCol[i])
	}
	if j := sf.posSingleton[i]; j >= 0 {
		return int(j)
	}
	if sf.slackCol[i] >= 0 && sf.rhs[i] <= feasTol { // GE with rhs 0: surplus at 0
		return int(sf.slackCol[i])
	}
	return int(sf.artCol[i]) // GE/EQ rows always have one
}

// computeXB recomputes the basic values xB = B⁻¹·b through the current
// factorization and eta file.
func (r *revised) computeXB() {
	copy(r.wr, r.sf.rhs)
	r.lu.ftran(r.wr, r.xB)
	r.etas.ftran(r.xB)
}

// ftranCol computes t = B⁻¹·A_j for column j into out (length m,
// position indexed).
func (r *revised) ftranCol(j int, out []float64) {
	rows, vals := r.sf.col(j)
	for k, ri := range rows {
		r.wr[ri] = vals[k]
	}
	r.lu.ftran(r.wr, out)
	r.etas.ftran(out)
}

// pivotRow computes the leave-th row of B⁻¹A into r.alpha and returns the
// touched column list (unsorted). The caller must release the scratch with
// clearAlpha. This is one BTRAN plus a sweep of the touched constraint
// rows — the O(total·nnz) per-pivot pricing sweep of the product-form
// implementation reduced to the rows the pivot actually reaches.
func (r *revised) pivotRow(leave int) []int32 {
	sf := r.sf
	pz := r.pz
	pz[leave] = 1
	r.etas.btran(pz)
	r.lu.btran(pz, r.wr)
	cols := r.atouch[:0]
	for ri := 0; ri < sf.m; ri++ {
		br := r.wr[ri]
		r.wr[ri] = 0
		if br == 0 {
			continue
		}
		a, b := sf.rowPtr[ri], sf.rowPtr[ri+1]
		rv := sf.rowVals[a:b]
		for idx, j := range sf.rowCols[a:b] {
			if !r.ainCol[j] {
				r.ainCol[j] = true
				r.alpha[j] = 0
				cols = append(cols, j)
			}
			r.alpha[j] += br * rv[idx]
		}
	}
	r.atouch = cols
	return cols
}

// clearAlpha releases pivotRow's scratch.
func (r *revised) clearAlpha(cols []int32) {
	for _, j := range cols {
		r.alpha[j] = 0
		r.ainCol[j] = false
	}
}

// computeD recomputes the reduced costs d = c − cB·B⁻¹·A from scratch for
// the current phase cost vector (done once per phase and at each
// refactorization; pivots then maintain d incrementally).
func (r *revised) computeD() {
	sf := r.sf
	for i := 0; i < sf.m; i++ {
		r.pz[i] = r.cost[r.basis[i]]
	}
	r.etas.btran(r.pz)
	r.lu.btran(r.pz, r.wr) // wr = y, the simplex multipliers by original row
	r.d = r.dBuf
	for j := 0; j < sf.total; j++ {
		if r.inBasis[j] {
			r.d[j] = 0
			continue
		}
		s := r.cost[j]
		rows, vals := sf.col(j)
		for k, ri := range rows {
			s -= r.wr[ri] * vals[k]
		}
		r.d[j] = s
	}
	for i := 0; i < sf.m; i++ {
		r.wr[i] = 0
	}
}

// price selects the entering column among the first colLimit columns:
// Dantzig (most negative reduced cost) or Bland (first negative).
func (r *revised) price(colLimit int, bland bool) int {
	if bland {
		for j := 0; j < colLimit; j++ {
			if !r.inBasis[j] && r.d[j] < -eps {
				return j
			}
		}
		return -1
	}
	best, enter := -eps, -1
	for j := 0; j < colLimit; j++ {
		if !r.inBasis[j] && r.d[j] < best {
			best, enter = r.d[j], j
		}
	}
	return enter
}

// refactor rebuilds the LU factors from the current basis, drops the eta
// file, and recomputes xB (and d, when maintained) from scratch. Reports
// false if the factorization failed, in which case the old representation
// stays live and refactorization is disabled for the rest of the solve.
func (r *revised) refactor() bool {
	if !r.factorize() {
		r.noRefactor = true
		return false
	}
	r.etas.reset()
	r.computeXB()
	if r.d != nil {
		r.computeD()
	}
	return true
}

// pivot makes column enter basic at position leave; t must hold B⁻¹·A_enter.
// When reduced costs are live (r.d != nil) they are updated from the BTRAN
// pivot row. The update appends one eta and may trigger a refactorization.
func (r *revised) pivot(leave, enter int, t []float64) {
	sf := r.sf
	m := sf.m
	pv := t[leave]
	if r.d != nil {
		acols := r.pivotRow(leave)
		if f := r.d[enter] / pv; f != 0 {
			for _, jj := range acols {
				j := int(jj)
				if r.inBasis[j] || j == enter {
					continue
				}
				if a := r.alpha[j]; a != 0 {
					r.d[j] -= f * a
				}
			}
			r.d[r.basis[leave]] = -f // leaving column: its B⁻¹A entry is 1
		} else {
			r.d[r.basis[leave]] = 0
		}
		r.d[enter] = 0
		r.clearAlpha(acols)
	}
	theta := r.xB[leave] / pv
	e := &r.etas
	for i := 0; i < m; i++ {
		if i == leave {
			continue
		}
		ti := t[i]
		if ti == 0 {
			continue
		}
		e.rows = append(e.rows, int32(i))
		e.vals = append(e.vals, ti)
		r.xB[i] -= ti * theta
	}
	r.xB[leave] = theta
	e.push(int32(leave), pv)
	r.inBasis[r.basis[leave]] = false
	r.inBasis[enter] = true
	r.basis[leave] = enter
	r.iters++
	if !r.noRefactor &&
		(e.len() >= r.refactorEvery || e.nnz > r.lu.nnz+etaFillSlack*m) {
		r.refactor()
	}
}

// chooseLeave runs the primal ratio test on the FTRAN column t: minimum
// ratio over positive entries, ties toward the smaller basic column index.
func (r *revised) chooseLeave(t []float64) (int, float64) {
	leave := -1
	var minRatio float64
	for i := 0; i < r.sf.m; i++ {
		a := t[i]
		if a > eps {
			ratio := r.xB[i] / a
			if leave < 0 || ratio < minRatio-eps ||
				(math.Abs(ratio-minRatio) <= eps && r.basis[i] < r.basis[leave]) {
				leave, minRatio = i, ratio
			}
		}
	}
	return leave, minRatio
}

// iterate runs primal simplex pivots until optimality, unboundedness or the
// pivot budget. Columns at or beyond colLimit (artificials) may leave the
// basis but never enter. Dantzig pricing with a switch to Bland's rule
// after a run of degenerate pivots guards against cycling — the same policy
// and thresholds as the dense backend.
func (r *revised) iterate(colLimit int) Status {
	m := r.sf.m
	degenerate, bland := 0, false
	budget := r.p.maxIters()
	for {
		enter := r.price(colLimit, bland)
		if enter < 0 {
			return Optimal
		}
		if r.iters >= budget {
			return IterLimit
		}
		t := r.t
		r.ftranCol(enter, t)
		leave, minRatio := r.chooseLeave(t)
		if leave >= 0 && math.Abs(t[leave]) < stabTol && r.etas.len() > 0 && !r.noRefactor {
			// Suspiciously small pivot through a long eta file: refactorize
			// and redo the ratio test on clean numbers.
			if r.refactor() {
				r.ftranCol(enter, t)
				leave, minRatio = r.chooseLeave(t)
			}
		}
		if leave < 0 {
			return Unbounded
		}
		if minRatio < eps {
			degenerate++
			if degenerate > 2*m+20 {
				bland = true
			}
		} else {
			degenerate, bland = 0, false
		}
		r.pivot(leave, enter, t)
	}
}

// phase1 minimizes the sum of artificial variables from the current
// (feasible) basis. Returns Optimal when a basic feasible solution of the
// real problem exists.
func (r *revised) phase1() Status {
	sf := r.sf
	clear(r.cost[:sf.artAt])
	for j := sf.artAt; j < sf.total; j++ {
		r.cost[j] = 1
	}
	r.d = nil
	r.computeD()
	st := r.iterate(sf.artAt)
	if st != Optimal {
		return st
	}
	inf := 0.0
	for i, b := range r.basis {
		if b >= sf.artAt && r.xB[i] > 0 {
			inf += r.xB[i]
		}
	}
	if inf > feasTol {
		return Infeasible
	}
	return Optimal
}

// purgeArtificials pivots any basic artificial (at value ~0) out of the
// basis where an eligible column exists. Positions where none exists sit on
// linearly dependent rows: every structural/slack coefficient of their
// B⁻¹A row is ~0, so the artificial stays harmlessly basic at zero and can
// never move (the entering direction never touches the position).
func (r *revised) purgeArtificials() {
	sf := r.sf
	if sf.nArt == 0 {
		return
	}
	r.d = nil // phase costs change next; no point maintaining reduced costs
	for i := 0; i < sf.m; i++ {
		if r.basis[i] < sf.artAt {
			continue
		}
		acols := r.pivotRow(i)
		enter := -1
		for _, jj := range acols {
			j := int(jj)
			if j >= sf.artAt || r.inBasis[j] {
				continue
			}
			if math.Abs(r.alpha[j]) > eps && (enter < 0 || j < enter) {
				enter = j
			}
		}
		r.clearAlpha(acols)
		if enter < 0 {
			continue
		}
		r.ftranCol(enter, r.t)
		r.pivot(i, enter, r.t)
	}
}

// setPhase2Costs installs the real objective as the working cost vector.
func (r *revised) setPhase2Costs() {
	sf := r.sf
	clear(r.cost)
	for j, v := range sf.vars {
		r.cost[j] = r.p.cost[v]
	}
}

// optimize drives the current basis to optimality:
//
//	artificials at positive value  → primal phase 1, purge, primal phase 2
//	primal feasible                → purge, primal phase 2
//	primal infeasible              → fallbackStatus (caller restarts cold)
//
// The crash basis starts every basic value at ≥ 0, so in practice only a
// warm basis lands in the last case, when appended rows cut its vertex off.
func (r *revised) optimize() Status {
	sf := r.sf
	needP1 := false
	for i, b := range r.basis {
		if b >= sf.artAt && r.xB[i] > feasTol {
			needP1 = true
			break
		}
	}
	if needP1 {
		st := r.phase1()
		if st == IterLimit {
			return st
		}
		if st != Optimal {
			return Infeasible
		}
	}
	r.purgeArtificials()
	for _, v := range r.xB {
		if v < -feasTol {
			return fallbackStatus
		}
	}
	r.setPhase2Costs()
	r.d = nil
	r.computeD()
	return r.iterate(sf.artAt)
}

// finalize refactorizes the final basis from the problem data and
// recomputes the basic values, so the extracted values are a function of
// the final basis alone, whatever eta file reached it. A warm and a cold
// solve that end on the same basis agree bit for bit; two optimal bases
// of one degenerate vertex may not.
func (r *revised) finalize() {
	if r.etas.len() > 0 {
		if !r.refactor() {
			return // singular final refactorization: keep the maintained xB
		}
	} else {
		r.computeXB()
	}
}

// extract writes the component's structural variable values into x, the
// solution over the whole problem. Adding +0 canonicalizes IEEE negative
// zero (−0 + 0 = +0; every other value is unchanged): pivot arithmetic can
// produce either zero depending on the pivot path, and warm- and
// cold-started solves of the same problem must serialize identically.
// Nonbasic variables keep x's zero.
func (r *revised) extract(x []float64) {
	for i, b := range r.basis {
		if b < r.sf.n {
			v := r.xB[i]
			if v < 0 && v > -eps {
				v = 0
			}
			x[r.sf.vars[b]] = v + 0
		}
	}
}

// snapshot writes the solve's final basis as (row, basic column) identity
// pairs into rows and bcol — the identities a warm start on a related
// problem maps onto its own standard form before refactorizing.
// Numerical state is never carried: the next solve rebuilds it from its
// own problem data, which is what makes the snapshot immune to
// coefficient changes (see applyWarm).
func (r *revised) snapshot(rows, bcol []ident) {
	for i, c := range r.basis {
		rows[i] = r.sf.rowIdent(i)
		bcol[i] = r.sf.colIdent(c)
	}
}

// runOptimize is revised.optimize. Tests replace it to reach a branch no
// solved problem has reached: a cold start that ends primal infeasible.
var runOptimize = (*revised).optimize

// solve runs the revised simplex on the built standard form sf,
// warm-started when w maps onto it. It reports the terminal status and
// whether the warm basis was applied.
func (r *revised) solve(p *Problem, sf *standardForm, w *warmIndex, d *decomposition) (Status, bool) {
	r.reset(p, sf)
	warmApplied := false
	if sf.m > 0 && w != nil {
		if warmApplied = r.applyWarm(w, d); !warmApplied {
			r.reset(p, sf)
		}
	}
	if !warmApplied {
		r.crash()
	}
	st := runOptimize(r)
	if st == fallbackStatus {
		// The warm basis is primal infeasible here: restart cold,
		// preserving the pivots already spent in the iteration count.
		spent := r.iters
		r.reset(p, sf)
		r.crash()
		r.iters = spent
		warmApplied = false
		if st = runOptimize(r); st == fallbackStatus {
			// The crash basis starts feasible, so only numerical trouble
			// ends a cold start here; optimality was not proven.
			st = IterLimit
		}
	}
	if st == Optimal {
		r.finalize()
	}
	return st, warmApplied
}

// solveSparse is the sparse-backend entry: presolve, decompose, solve the
// components (concurrently when allowed), postsolve back to the original
// variable space.
func solveSparse(p *Problem, warm *Basis) (*Solution, error) {
	ws := workspaces.Get().(*workspace)
	defer func() {
		ws.release()
		workspaces.Put(ws)
	}()
	ps := ws.presolve(p)
	if ps.status == Infeasible {
		sol := &Solution{Status: Infeasible, RowsPresolved: ps.rowsOut}
		return sol, statusErr(Infeasible)
	}
	if len(p.names) == 0 {
		// No variables, and every row was empty and held: nothing is left
		// for decompose and the simplex.
		return &Solution{Status: Optimal, X: []float64{}, RowsPresolved: ps.rowsOut, Basis: &Basis{}}, nil
	}
	sol := ws.solveDecomposed(ps.red, warm)
	sol.RowsPresolved, sol.ColsPresolved = ps.rowsOut, ps.colsOut
	if sol.Status != Optimal {
		return sol, statusErr(sol.Status)
	}
	sol.X = ps.postsolve(sol.X)
	// The objective is computed here, on the original cost vector and full
	// solution: presolve's cost folding (duplicate-row merges) changes
	// summation grouping, and the reported objective must not depend on
	// whether presolve fired.
	obj := 0.0
	for v, c := range p.cost {
		obj += c * sol.X[v]
	}
	sol.Objective = obj
	return sol, nil
}
