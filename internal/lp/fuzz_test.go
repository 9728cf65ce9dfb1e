package lp

import (
	"fmt"
	"math"
	"testing"
)

// fuzzUppers are the upper bounds decodeLP picks from; -1 means none.
var fuzzUppers = [4]float64{0, 1, 2.5, -1}

// decodeLP decodes data into a small general LP: 1–5 variables and 0–5
// rows of any sense, integer coefficients in [-2, 2], rhs in [-3, 3],
// upper bounds from {0, 1, 2.5, ∞} and integer costs in [-3, 3] plus a
// 1e-3 tie-break per variable. Bytes past the end of data read as 0.
func decodeLP(data []byte) *Problem {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	n, m := 1+next()%5, next()%6
	p := NewProblem()
	for v := 0; v < n; v++ {
		x := p.AddVariable(fmt.Sprintf("x%d", v))
		p.AddCost(x, float64(next()%7-3)+1e-3*float64(v+1))
		if u := fuzzUppers[next()%4]; u >= 0 {
			p.SetUpperBound(x, u)
		}
	}
	for r := 0; r < m; r++ {
		sense, rhs := Sense(next()%3), float64(next()%7-3)
		var idx []int
		var coeffs []float64
		for v := 0; v < n; v++ {
			if a := next()%5 - 2; a != 0 {
				idx = append(idx, v)
				coeffs = append(coeffs, float64(a))
			}
		}
		p.AddRow(fmt.Sprintf("r%d", r), idx, coeffs, sense, rhs)
	}
	return p
}

// FuzzSolveMatchesDense checks the sparse solver — presolve, decomposition
// and the revised simplex — against the dense tableau oracle on small
// general LPs: both must agree on whether there is an error, on the
// status, and on the optimal objective.
func FuzzSolveMatchesDense(f *testing.F) {
	// x0 (cost -3, unbounded above), x1 (u = 0) and an empty row 0 ≤ -3:
	// infeasible, however far x0 could improve the objective.
	f.Add([]byte{1, 1, 0, 3, 3, 0, 0, 0, 2, 2})
	// x0 + x1 ≥ 1 and x1 ≤ 2 with x1 ≤ 2.5, both at a positive cost.
	f.Add([]byte{1, 2, 4, 3, 5, 2, 1, 4, 3, 3, 0, 5, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeLP(data)
		sparse, errS := p.Solve()
		dense, errD := p.SolveDense()
		if (errS == nil) != (errD == nil) || sparse.Status != dense.Status {
			t.Fatalf("Solve: %s (err %v), SolveDense: %s (err %v)", sparse.Status, errS, dense.Status, errD)
		}
		if sparse.Status == Optimal && math.Abs(sparse.Objective-dense.Objective) > 1e-6 {
			t.Fatalf("objective: Solve %v, SolveDense %v", sparse.Objective, dense.Objective)
		}
	})
}
