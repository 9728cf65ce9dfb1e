// Sparse LU factorization of the simplex basis, with a Forrest–Tomlin-style
// eta file for in-place updates between refactorizations.
//
// The basis matrices of the SherLock encodings are extremely sparse and
// near-triangular (slacks, surpluses, and per-row singleton ε columns make
// up most of any basis), so the working representation is
//
//	B₀ = P⁻¹·L·U        (row-permuted sparse triangular factors)
//	B  = B₀·E₁·E₂·…·Eₛ  (one eta matrix per pivot since the last refactor)
//
// where each Eta is the identity except for one column — the FTRAN image of
// the entering column at the pivot that produced it. FTRAN and BTRAN solve
// through the factors and the eta file in O(nnz) per pass instead of the
// O(m²) a dense basis inverse costs, and a pivot appends one sparse eta in
// O(nnz(t)) instead of updating m² inverse entries.
//
// The factorization itself is a left-looking Gilbert–Peierls elimination
// with partial pivoting: columns are processed in basis order, each solved
// against the L computed so far (eliminations applied in ascending pivot
// position via a small min-heap, so discovery order never changes the
// arithmetic), and the pivot row is the remaining row of largest magnitude
// with ties broken toward the smallest row index. Every choice is a
// deterministic function of the matrix, which keeps warm- and cold-started
// solves byte-reproducible.
//
// Refactorization policy (see revised.pivot): the eta file is
// rebuilt into a fresh factorization when it grows past etaRefactorEvery
// updates, when its fill-in exceeds the factor size by etaFillSlack·m, or
// when a pivot magnitude falls under stabTol — whichever comes first. On
// refactorization the basic values and reduced costs are recomputed from
// scratch, bounding numerical drift.
package lp

import "math"

const (
	// etaRefactorEvery bounds the eta file length between refactorizations.
	// Tests override it to 1 to force the pure-LU path.
	defaultEtaRefactorEvery = 64
	// etaFillSlack scales the fill-in refactorization trigger: refactor when
	// the eta file holds more than nnz(LU) + etaFillSlack·m entries.
	etaFillSlack = 4
	// tinyPivot is the singularity threshold during factorization.
	tinyPivot = 1e-11
	// stabTol triggers a defensive refactorization before pivoting on a
	// suspiciously small tableau entry.
	stabTol = 1e-7
)

// luFactors is the sparse factorization P·B₀ = L·U. Position k of the
// basis was pivoted on original row pivrow[k]; pinv is the inverse
// permutation. L is unit lower triangular with the implicit diagonal
// dropped; its column k stores below-diagonal entries by original row
// (all of which pivot at positions > k). U's column k stores its
// above-diagonal entries by pivot position j < k; the diagonal is apart.
//
// Both triangles are flat compressed-column arrays: column k of L is
// lRows/lVals[lStart[k]:lStart[k+1]], and likewise for U. A solver keeps
// two factorizations and refactorizes into the idle one, so the arrays
// are reused across refactorizations.
type luFactors struct {
	m      int
	pivrow []int32
	pinv   []int32
	diag   []float64

	lStart []int32
	lRows  []int32
	lVals  []float64
	uStart []int32
	uRows  []int32
	uVals  []float64

	nnz int // total stored entries across L, U and the diagonal
}

// lCol and uCol return column k of L and of U.
func (f *luFactors) lCol(k int) ([]int32, []float64) {
	a, b := f.lStart[k], f.lStart[k+1]
	return f.lRows[a:b], f.lVals[a:b]
}

func (f *luFactors) uCol(k int) ([]int32, []float64) {
	a, b := f.uStart[k], f.uStart[k+1]
	return f.uRows[a:b], f.uVals[a:b]
}

// luWork is the factorization's scratch, kept across refactorizations.
// Between calls w is all zero and inCol and queued all false.
type luWork struct {
	w       []float64 // dense work column, by original row
	touched []int32   // rows scattered or filled this column
	inCol   []bool    // membership in touched
	queued  []bool    // position already in the heap
	heap    posHeap
}

// posHeap is a minimal int32 min-heap used to apply eliminations in
// ascending pivot-position order during factorization.
type posHeap []int32

func (h *posHeap) push(v int32) {
	*h = append(*h, v)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if (*h)[p] <= (*h)[i] {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

func (h *posHeap) pop() int32 {
	top := (*h)[0]
	last := len(*h) - 1
	(*h)[0] = (*h)[last]
	*h = (*h)[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < len(*h) && (*h)[l] < (*h)[s] {
			s = l
		}
		if r < len(*h) && (*h)[r] < (*h)[s] {
			s = r
		}
		if s == i {
			break
		}
		(*h)[i], (*h)[s] = (*h)[s], (*h)[i]
		i = s
	}
	return top
}

// factor computes the LU factorization of the m columns of sf selected
// by basis into f, reusing f's arrays. It reports false when the matrix is
// numerically singular (no pivot above tinyPivot in some column), in which
// case f holds garbage and the caller must fall back to a different basis.
func (f *luFactors) factor(sf *standardForm, basis []int, ws *luWork) bool {
	m := sf.m
	f.m = m
	f.nnz = 0
	for i := range f.pinv {
		f.pinv[i] = -1
	}
	f.lRows, f.lVals = f.lRows[:0], f.lVals[:0]
	f.uRows, f.uVals = f.uRows[:0], f.uVals[:0]
	f.lStart[0], f.uStart[0] = 0, 0

	w, inCol, queued := ws.w, ws.inCol, ws.queued
	touched := ws.touched[:0] // never outgrows its capacity m: rows are distinct
	for k := 0; k < m; k++ {
		rows, vals := sf.col(basis[k])
		for idx, r := range rows {
			w[r] = vals[idx]
			touched = append(touched, r)
			inCol[r] = true
			if p := f.pinv[r]; p >= 0 && !queued[p] {
				queued[p] = true
				ws.heap.push(p)
			}
		}
		// Eliminate with already-pivoted columns in ascending position
		// order; new fill can only appear at later positions or unpivoted
		// rows, so the heap order is an elimination order.
		for len(ws.heap) > 0 {
			j := ws.heap.pop()
			queued[j] = false
			v := w[f.pivrow[j]]
			if v == 0 {
				continue
			}
			f.uRows = append(f.uRows, j)
			f.uVals = append(f.uVals, v)
			lr, lv := f.lCol(int(j))
			for idx, r := range lr {
				if !inCol[r] {
					w[r] = 0
					touched = append(touched, r)
					inCol[r] = true
					if p := f.pinv[r]; p >= 0 && !queued[p] {
						queued[p] = true
						ws.heap.push(p)
					}
				}
				w[r] -= v * lv[idx]
			}
		}
		// Partial pivoting over the remaining rows: largest magnitude,
		// ties toward the smallest original row index.
		piv, best := int32(-1), 0.0
		for _, r := range touched {
			if f.pinv[r] >= 0 {
				continue
			}
			if a := math.Abs(w[r]); a > best || (a == best && piv >= 0 && r < piv && a > 0) {
				best, piv = a, r
			}
		}
		if piv < 0 || best <= tinyPivot {
			for _, r := range touched {
				w[r] = 0
				inCol[r] = false
			}
			return false
		}
		d := w[piv]
		f.diag[k] = d
		f.pivrow[k] = piv
		f.pinv[piv] = int32(k)
		lFrom := len(f.lRows)
		for _, r := range touched {
			if f.pinv[r] >= 0 || w[r] == 0 {
				continue
			}
			f.lRows = append(f.lRows, r)
			f.lVals = append(f.lVals, w[r]/d)
		}
		sortLCol(f.lRows[lFrom:], f.lVals[lFrom:])
		f.lStart[k+1] = int32(len(f.lRows))
		f.uStart[k+1] = int32(len(f.uRows))
		for _, r := range touched {
			w[r] = 0
			inCol[r] = false
		}
		touched = touched[:0]
	}
	f.nnz = len(f.lRows) + len(f.uRows) + m
	return true
}

// sortLCol orders an L column by original row index (insertion sort — the
// columns are short). A canonical order makes the transpose-solve
// accumulation independent of fill discovery order.
func sortLCol(rows []int32, vals []float64) {
	for i := 1; i < len(rows); i++ {
		r, v := rows[i], vals[i]
		j := i
		for j > 0 && rows[j-1] > r {
			rows[j], vals[j] = rows[j-1], vals[j-1]
			j--
		}
		rows[j], vals[j] = r, v
	}
}

// ftran solves B₀·x = w. On entry w is dense and indexed by original row;
// it is consumed (zeroed). The position-indexed solution is written to out.
func (f *luFactors) ftran(w, out []float64) {
	m := f.m
	for k := 0; k < m; k++ {
		v := w[f.pivrow[k]]
		if v != 0 {
			lr, lv := f.lCol(k)
			for idx, r := range lr {
				w[r] -= v * lv[idx]
			}
		}
	}
	for k := 0; k < m; k++ {
		r := f.pivrow[k]
		out[k] = w[r]
		w[r] = 0
	}
	for k := m - 1; k >= 0; k-- {
		t := out[k] / f.diag[k]
		out[k] = t
		if t != 0 {
			ur, uv := f.uCol(k)
			for idx, j := range ur {
				out[j] -= t * uv[idx]
			}
		}
	}
}

// btran solves yᵀ·B₀ = cᵀ. On entry c is dense and indexed by basis
// position; it is consumed. The original-row-indexed solution is written
// to out (fully overwritten).
func (f *luFactors) btran(c, out []float64) {
	m := f.m
	for k := 0; k < m; k++ {
		s := c[k]
		ur, uv := f.uCol(k)
		for idx, j := range ur {
			s -= uv[idx] * c[j]
		}
		c[k] = s / f.diag[k]
	}
	for k := m - 1; k >= 0; k-- {
		s := c[k]
		lr, lv := f.lCol(k)
		for idx, r := range lr {
			s -= lv[idx] * c[f.pinv[r]]
		}
		c[k] = s
	}
	for k := 0; k < m; k++ {
		out[f.pivrow[k]] = c[k]
		c[k] = 0
	}
}

// The eta file: eta q replaced basis position etaPos[q], whose FTRAN image
// at pivot time had diagonal etaDiag[q] and the off-diagonal entries (by
// position) etaRows/etaVals[etaStart[q]:etaStart[q+1]]. The arrays are
// flat and truncated, not freed, at each refactorization.
type etaFile struct {
	pos   []int32
	diag  []float64
	start []int32
	rows  []int32
	vals  []float64
	nnz   int
}

// len returns the number of etas.
func (e *etaFile) len() int { return len(e.pos) }

// reset empties the file.
func (e *etaFile) reset() {
	e.pos, e.diag = e.pos[:0], e.diag[:0]
	e.start = append(e.start[:0], 0)
	e.rows, e.vals = e.rows[:0], e.vals[:0]
	e.nnz = 0
}

// push closes the eta whose entries were appended to rows/vals since the
// last push.
func (e *etaFile) push(pos int32, diag float64) {
	e.pos = append(e.pos, pos)
	e.diag = append(e.diag, diag)
	e.start = append(e.start, int32(len(e.rows)))
	e.nnz += int(e.start[len(e.start)-1]-e.start[len(e.start)-2]) + 1
}

// ftran applies E⁻¹ for every eta, oldest first, to the position-indexed
// vector x in place.
func (e *etaFile) ftran(x []float64) {
	for q, p := range e.pos {
		xp := x[p] / e.diag[q]
		x[p] = xp
		if xp != 0 {
			a, b := e.start[q], e.start[q+1]
			for idx, i := range e.rows[a:b] {
				x[i] -= e.vals[int(a)+idx] * xp
			}
		}
	}
}

// btran applies E⁻ᵀ for every eta, newest first, to the position-indexed
// vector y in place.
func (e *etaFile) btran(y []float64) {
	for q := len(e.pos) - 1; q >= 0; q-- {
		p := e.pos[q]
		s := y[p]
		a, b := e.start[q], e.start[q+1]
		for idx, i := range e.rows[a:b] {
			s -= e.vals[int(a)+idx] * y[i]
		}
		y[p] = s / e.diag[q]
	}
}
