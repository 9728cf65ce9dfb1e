// Per-solve scratch. Everything a solve needs between reading the problem
// and handing back its Solution — presolve's working state and reduced
// problem, the duplicate-row index, the decomposition, every component
// worker's carved buffers and the resolved warm basis — lives in one
// workspace. solveSparse borrows a workspace from a package-level pool and
// returns it when it ends, so a run of solves reuses the same buffers
// instead of rebuilding and dropping them for every problem.
//
// Nothing a caller keeps may alias a workspace: Solution.X, the Basis
// arrays and the Solution itself are fresh allocations, and the workspace
// drops its pointers into the caller's problem before it goes back to the
// pool. Buffers are reused in place, so every one the code reads before
// writing is cleared when it is taken (zeroed); the rest are only resized.
package lp

import "sync"

// workspace is one solve's scratch. The zero value is ready to use.
type workspace struct {
	// presolve: its result and reduced problem, and its working state.
	ps                      presolved
	red                     Problem
	dropRow                 []bool
	cost                    []float64
	dupOf, origIdx, colLive []int

	// mergeDuplicates' representatives and hash chains.
	reps          []repInfo
	repV, sharedV []int32
	repB, sharedB []uint64
	seen          map[uint64]int32

	// decompose: the decomposition, its index buffer and component counts.
	dec            decomposition
	decBuf, counts []int32
	comps          []component

	// solveDecomposed: component shapes and basis offsets, the reduced
	// solution, the workers' four carver buffers (whole, never carved
	// themselves), the workers and their outcomes.
	shapes []shape
	offset []int
	x      []float64
	raw    carver
	pool   []worker
	outs   []outcome

	// The warm index and the name maps it is resolved through.
	warm       warmIndex
	vars, rows map[string]int32
}

var workspaces = sync.Pool{New: func() any { return new(workspace) }}

// release drops the workspace's references to the solved problem and its
// names, so a pooled workspace keeps no caller's data alive.
func (ws *workspace) release() {
	ws.ps = presolved{}
	ws.red.Reset()
	clear(ws.vars)
	clear(ws.rows)
	for k := range ws.pool {
		ws.pool[k].sf.p, ws.pool[k].r.p = nil, nil
	}
}

// resize returns *buf at length n, reallocating only when its capacity is
// short. Elements keep whatever an earlier solve left in them.
func resize[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// zeroed is resize with every element cleared, for buffers that are read
// before they are written.
func zeroed[T any](buf *[]T, n int) []T {
	s := resize(buf, n)
	clear(s)
	return s
}

// emptyMap returns *m cleared, making it on first use.
func emptyMap[K comparable, V any](m *map[K]V, hint int) map[K]V {
	if *m == nil {
		*m = make(map[K]V, hint)
	} else {
		clear(*m)
	}
	return *m
}
