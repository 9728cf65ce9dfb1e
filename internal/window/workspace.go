// Per-call scratch for window extraction. FindConflicts, BuildWindows and
// TraceStats each borrow one workspace from a package-level pool and put
// it back before they return, so a campaign's
// thousands of runs reuse the same per-address lists, per-thread indexes,
// call stacks and sample lists instead of rebuilding and dropping them
// for every trace. A workspace is never held across calls: keeping one
// per run until the round merges would keep one alive per test.
//
// Nothing a caller keeps may alias a workspace. Conflicts, windows, their
// candidate events, durations and API names are fresh allocations sized
// exactly; the workspace holds event positions (int32 indices into the
// trace), never pointers into it, except for FindConflicts' pair buffer,
// which is cleared before the put.
package window

import (
	"cmp"
	"slices"
	"sort"
	"sync"

	"sherlock/internal/trace"
)

// maxKeyNames bounds the workspace's candidate-key table. The table
// survives across calls, so a test's keys are built once and found in
// every later run; past this many distinct names (uploaded traces can
// carry any number) it is cleared and starts over.
const maxKeyNames = 4096

// workspace is one extraction's scratch, as the pool builds it.
type workspace struct {
	// FindConflicts: per-address event-index lists in first-seen order,
	// the addresses to walk in sorted order, same-thread run starts, the
	// per-pair budget and the pairs found.
	addrSlot map[uint64]int32
	lists    [][]int32
	addrs    []addrList
	runStart []int32
	perPair  map[PairID]int
	found    []Conflict

	// BuildWindows: per-thread event positions in time order, each
	// window's two position ranges, and the candidate keys by name and
	// kind (kept across calls, see maxKeyNames).
	threadSlot map[int]int32
	threads    [][]int32
	spans      [][]int32
	keys       map[string]*[trace.KindEnd + 1]trace.Key

	// TraceStats: per-thread call stacks (slots in threadSlot), per-name
	// duration samples in first-seen order, and the library-API names.
	stacks   [][]open
	nameSlot map[string]int32
	names    []string
	samples  [][]float64
	apiSeen  map[string]struct{}
	apis     []string
}

// addrList names one address's event-index list.
type addrList struct {
	addr uint64
	slot int32
}

// open is a method call awaiting its End event.
type open struct {
	name string
	t    int64
}

var workspaces = sync.Pool{New: func() any {
	return &workspace{
		addrSlot:   map[uint64]int32{},
		perPair:    map[PairID]int{},
		threadSlot: map[int]int32{},
		keys:       map[string]*[trace.KindEnd + 1]trace.Key{},
		nameSlot:   map[string]int32{},
		apiSeen:    map[string]struct{}{},
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
// strictly between the pair, split by thread. It indexes the event
// positions of the conflicts' threads in time order and answers each
// window with two binary searches. Only the windowed events are copied
// out, into one exact-size array per trace that each window owns a
// capacity-clipped range of, so an admitted window pins no more of its
// trace than its own events.
func BuildWindows(tr *trace.Trace, conflicts []Conflict) []Window {
	if len(conflicts) == 0 {
		return nil
	}
	ws := workspaces.Get().(*workspace)
	defer workspaces.Put(ws)
	return ws.windows(tr, conflicts)
}

// windows is BuildWindows on this workspace (see BuildWindows).
func (ws *workspace) windows(tr *trace.Trace, conflicts []Conflict) []Window {
	evs := tr.Events
	ws.indexThreads(evs, conflicts)
	ws.spans = ws.spans[:0]
	total := 0
	for _, c := range conflicts {
		rel := between(ws.threads[ws.threadSlot[c.A.Thread]], evs, c.A.Time, c.B.Time)
		acq := between(ws.threads[ws.threadSlot[c.B.Thread]], evs, c.A.Time, c.B.Time)
		ws.spans = append(ws.spans, rel, acq)
		total += len(rel) + len(acq)
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
		out[i].RelEvents, cands = ws.fill(cands, evs, ws.spans[2*i])
		out[i].AcqEvents, cands = ws.fill(cands, evs, ws.spans[2*i+1])
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
// rest of dst.
func (ws *workspace) fill(dst []CandEvent, evs []trace.Event, ps []int32) (window, rest []CandEvent) {
	if len(ps) == 0 {
		return nil, dst
	}
	for k, p := range ps {
		e := &evs[p]
		dst[k] = CandEvent{Key: ws.key(e), Time: e.Time}
	}
	return dst[:len(ps):len(ps)], dst[len(ps):]
}

// key returns e's candidate key from the workspace's table, building it
// only the first time the table meets its name and kind.
func (ws *workspace) key(e *trace.Event) trace.Key {
	if e.Kind > trace.KindEnd {
		return trace.EventKey(e)
	}
	ks := ws.keys[e.Name]
	if ks == nil {
		if len(ws.keys) >= maxKeyNames {
			clear(ws.keys)
		}
		ks = new([trace.KindEnd + 1]trace.Key)
		ws.keys[e.Name] = ks
	}
	if ks[e.Kind] == "" {
		ks[e.Kind] = trace.EventKey(e)
	}
	return ks[e.Kind]
}
