// Per-call scratch for window extraction. FindConflicts, BuildWindows,
// TraceStats and their by-ID forms each borrow one workspace from a
// package-level pool and put it back before they return, so a campaign's
// thousands of runs reuse the same per-address lists, per-thread indexes,
// call stacks and sample lists instead of rebuilding and dropping them
// for every trace. A workspace is never held across calls: keeping one
// per run until the round merges would keep one alive per test.
//
// Nothing a caller keeps may alias a workspace. Conflicts, windows, their
// candidate events, durations and API names are fresh allocations sized
// exactly; the workspace holds event positions (int32 indices into the
// trace), never pointers into it, except for FindConflicts' pair buffer,
// which is cleared before the put. The workspace's own name table hands
// out candidate keys, which windows keep; emptying the table drops only
// its references to them.
package window

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"

	"sherlock/internal/trace"
)

// workspace is one extraction's scratch, as the pool builds it.
type workspace struct {
	// FindConflicts: per-address event-index lists in first-seen order,
	// the addresses to walk in sorted order, same-thread run starts, each
	// listed event's site as a dense per-trace slot, the per-pair budget
	// (a slot pair packed into a uint64 indexes the counts) and the pairs
	// found.
	addrSlot map[uint64]int32
	lists    [][]int32
	addrs    []addrList
	runStart []int32
	siteSlot map[int]int32
	slotOf   []int32
	pairSlot map[uint64]int32
	perPair  []int32
	found    []Conflict

	// BuildWindows: per-thread event positions in time order and each
	// window's two position ranges.
	threadSlot map[int]int32
	threads    [][]int32
	spans      [][]int32

	// TraceStats: per-thread call stacks (slots in threadSlot), per name
	// ID the 1-based slot of its sample list (0: none yet) and whether
	// its library API was seen, the sample lists in first-seen order with
	// their IDs, and the library APIs in first-seen order. The per-ID
	// marks are reset after each call, so they stay sized to the largest
	// table seen.
	stacks     [][]open
	sampleSlot []int32
	apiSeen    []bool
	sampleIDs  []trace.NameID
	samples    [][]float64
	apis       []trace.NameID

	// The name-keyed entry points intern the names a call reads into a
	// table of the workspace's own, emptied per call, and record their
	// IDs by event position in ids.
	local *trace.Names
	ids   []trace.NameID
}

// addrList names one address's event-index list.
type addrList struct {
	addr uint64
	slot int32
}

// open is a method call awaiting its End event.
type open struct {
	name trace.NameID
	t    int64
}

var workspaces = sync.Pool{New: func() any {
	return &workspace{
		addrSlot:   map[uint64]int32{},
		siteSlot:   map[int]int32{},
		pairSlot:   map[uint64]int32{},
		threadSlot: map[int]int32{},
		local:      trace.NewNames(),
	}
}}

// nextList extends ls by one empty list, reusing the backing array a
// previous call left past len(ls).
func nextList[T any](ls [][]T) [][]T {
	if n := len(ls); n < cap(ls) {
		ls = ls[:n+1]
		ls[n] = ls[n][:0]
		return ls
	}
	return append(ls, nil)
}

// BuildWindows extracts every conflict's window from tr: all operations
// strictly between the pair, split by thread. It is BuildWindowsByID over
// the trace's names interned afresh: only the windowed events' names are
// hashed.
func BuildWindows(tr *trace.Trace, conflicts []Conflict) []Window {
	if len(conflicts) == 0 {
		return nil
	}
	ws := workspaces.Get().(*workspace)
	defer workspaces.Put(ws)
	return ws.windows(tr, conflicts)
}

// BuildWindowsByID extracts every conflict's window from tr, whose
// events' names have IDs ids (aligned with tr.Events) in names. It
// indexes the event positions of the conflicts' threads in time order
// and answers each window with two binary searches. Only the windowed
// events are copied out, into one exact-size array per trace that each
// window owns a capacity-clipped range of, so an admitted window pins no
// more of its trace than its own events; their keys come from names.
func BuildWindowsByID(tr *trace.Trace, names *trace.Names, ids []trace.NameID, conflicts []Conflict) []Window {
	if len(conflicts) == 0 {
		return nil
	}
	mustAlign(tr, ids)
	ws := workspaces.Get().(*workspace)
	defer workspaces.Put(ws)
	return ws.windowsByID(tr, names, ids, conflicts)
}

// windows is BuildWindows on this workspace: it interns the windowed
// events' names into the workspace's own table, once per event however
// many windows hold it.
func (ws *workspace) windows(tr *trace.Trace, conflicts []Conflict) []Window {
	ws.spanWindows(tr.Events, conflicts)
	ws.resetLocal(len(tr.Events))
	for _, ps := range ws.spans {
		for _, p := range ps {
			if ws.ids[p] == 0 {
				ws.ids[p] = ws.local.Intern(tr.Events[p].Name)
			}
		}
	}
	return ws.fillWindows(tr, ws.local, ws.ids, conflicts)
}

// windowsByID is BuildWindowsByID on this workspace.
func (ws *workspace) windowsByID(tr *trace.Trace, names *trace.Names, ids []trace.NameID, conflicts []Conflict) []Window {
	ws.spanWindows(tr.Events, conflicts)
	return ws.fillWindows(tr, names, ids, conflicts)
}

// mustAlign panics unless ids has one entry per event of tr.
func mustAlign(tr *trace.Trace, ids []trace.NameID) {
	if len(ids) != len(tr.Events) {
		panic(fmt.Sprintf("window: %d name IDs for %d events", len(ids), len(tr.Events)))
	}
}

// resetLocal empties the workspace's own name table and sizes ids to n
// zero IDs.
func (ws *workspace) resetLocal(n int) {
	ws.local.Reset()
	ws.ids = sized(ws.ids, n)
	clear(ws.ids)
}

// spanWindows finds each conflict's two position ranges (release side,
// then acquire side) in ws.spans.
func (ws *workspace) spanWindows(evs []trace.Event, conflicts []Conflict) {
	ws.indexThreads(evs, conflicts)
	ws.spans = ws.spans[:0]
	for _, c := range conflicts {
		rel := between(ws.threads[ws.threadSlot[c.A.Thread]], evs, c.A.Time, c.B.Time)
		acq := between(ws.threads[ws.threadSlot[c.B.Thread]], evs, c.A.Time, c.B.Time)
		ws.spans = append(ws.spans, rel, acq)
	}
}

// fillWindows builds the windows spanWindows located.
func (ws *workspace) fillWindows(tr *trace.Trace, names *trace.Names, ids []trace.NameID, conflicts []Conflict) []Window {
	total := 0
	for _, ps := range ws.spans {
		total += len(ps)
	}
	cands := make([]CandEvent, total)
	out := make([]Window, len(conflicts))
	for i, c := range conflicts {
		out[i] = Window{
			App: tr.App, Test: tr.Test,
			Pair:    PairID{First: c.A.Site, Second: c.B.Site},
			ThreadA: c.A.Thread,
			ThreadB: c.B.Thread,
			TA:      c.A.Time,
			TB:      c.B.Time,
		}
		out[i].RelEvents, cands = fill(cands, tr.Events, names, ids, ws.spans[2*i])
		out[i].AcqEvents, cands = fill(cands, tr.Events, names, ids, ws.spans[2*i+1])
	}
	return out
}

// indexThreads lists, per thread that takes part in a conflict, the
// positions of its events in time order. Events arrive time-ordered from
// the scheduler; a thread whose events do not is stably sorted.
func (ws *workspace) indexThreads(evs []trace.Event, conflicts []Conflict) {
	clear(ws.threadSlot)
	ws.threads = ws.threads[:0]
	for _, c := range conflicts {
		for _, th := range [2]int{c.A.Thread, c.B.Thread} {
			if _, ok := ws.threadSlot[th]; !ok {
				ws.threadSlot[th] = int32(len(ws.threads))
				ws.threads = nextList(ws.threads)
			}
		}
	}
	// Events come in same-thread runs, so remember the last thread's slot
	// (-1: not indexed) instead of looking every event up.
	last, slot := 0, int32(-1)
	for i := range evs {
		if th := evs[i].Thread; i == 0 || th != last {
			last, slot = th, -1
			if s, ok := ws.threadSlot[th]; ok {
				slot = s
			}
		}
		if slot >= 0 {
			ws.threads[slot] = append(ws.threads[slot], int32(i))
		}
	}
	byTime := func(i, j int32) int { return cmp.Compare(evs[i].Time, evs[j].Time) }
	for _, ps := range ws.threads {
		if !slices.IsSortedFunc(ps, byTime) {
			slices.SortStableFunc(ps, byTime)
		}
	}
}

// between returns the range of ps, a thread's time-sorted event
// positions, whose events fall strictly between lo and hi.
func between(ps []int32, evs []trace.Event, lo, hi int64) []int32 {
	start := sort.Search(len(ps), func(i int) bool { return evs[ps[i]].Time > lo })
	end := sort.Search(len(ps), func(i int) bool { return evs[ps[i]].Time >= hi })
	if start >= end {
		return nil
	}
	return ps[start:end]
}

// fill writes the candidate events at positions ps to the front of dst
// and returns them, capacity-clipped (nil when ps is empty), with the
// rest of dst. Keys come from names; a kind past KindEnd, which only a
// malformed trace carries, has its key built.
func fill(dst []CandEvent, evs []trace.Event, names *trace.Names, ids []trace.NameID, ps []int32) (window, rest []CandEvent) {
	if len(ps) == 0 {
		return nil, dst
	}
	for k, p := range ps {
		e := &evs[p]
		var key trace.Key
		if e.Kind <= trace.KindEnd {
			key = names.Key(ids[p], e.Kind)
		} else {
			key = trace.EventKey(e)
		}
		dst[k] = CandEvent{Key: key, Time: e.Time}
	}
	return dst[:len(ps):len(ps)], dst[len(ps):]
}

// sized returns s resliced to length n, reusing its capacity when it has
// enough; entries past the old length are not zeroed.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
