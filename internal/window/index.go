// Indexed window extraction: BuildWindows extracts every conflict's window
// in one batch. A per-thread time-sorted index turns each window into two
// binary searches plus an output copy, so extracting W windows from a
// trace of N events costs O(N + W·(log N + K)) for window size K instead of
// the O(W·N) of scanning the trace once per conflict. App-1's traces (thousands of events, hundreds of
// conflicts per run) make this the Observer's hot path.
package window

import (
	"cmp"
	"slices"
	"sort"

	"sherlock/internal/trace"
)

// threadIndex holds one thread's candidate events in time order.
type threadIndex struct {
	times []int64
	cands []CandEvent
}

// Index is a reusable per-trace acceleration structure.
type Index struct {
	app, test string
	threads   map[int]*threadIndex
}

// NewIndex builds the per-thread index of a trace. Events arrive
// time-ordered from the scheduler; out-of-order inputs are sorted
// defensively.
//
// A counting pass sizes every thread's slices up front, carved from one
// backing array per field, so no slice grows an event at a time. Each
// distinct (kind, name) key is built once per trace and shared by every
// event that carries it.
func NewIndex(tr *trace.Trace) *Index {
	counts := map[int]int{}
	for i := range tr.Events {
		counts[tr.Events[i].Thread]++
	}
	idx := &Index{app: tr.App, test: tr.Test, threads: make(map[int]*threadIndex, len(counts))}
	times := make([]int64, len(tr.Events))
	cands := make([]CandEvent, len(tr.Events))
	off := 0
	for th, n := range counts {
		idx.threads[th] = &threadIndex{times: times[off : off : off+n], cands: cands[off : off : off+n]}
		off += n
	}
	keys := map[string]*[trace.KindEnd + 1]trace.Key{}
	for i := range tr.Events {
		e := &tr.Events[i]
		ti := idx.threads[e.Thread]
		ti.times = append(ti.times, e.Time)
		ti.cands = append(ti.cands, CandEvent{Key: cachedKey(keys, e), Time: e.Time})
	}
	byTime := func(a, b CandEvent) int { return cmp.Compare(a.Time, b.Time) }
	for _, ti := range idx.threads {
		if !slices.IsSortedFunc(ti.cands, byTime) {
			slices.SortStableFunc(ti.cands, byTime)
			for i, c := range ti.cands {
				ti.times[i] = c.Time
			}
		}
	}
	return idx
}

// cachedKey returns e's candidate key from keys, indexed by name then
// kind, building it only on the first event with that name and kind. A
// string-keyed map hashes faster than a (kind, name) struct key.
func cachedKey(keys map[string]*[trace.KindEnd + 1]trace.Key, e *trace.Event) trace.Key {
	if e.Kind > trace.KindEnd {
		return trace.EventKey(e)
	}
	ks := keys[e.Name]
	if ks == nil {
		ks = new([trace.KindEnd + 1]trace.Key)
		keys[e.Name] = ks
	}
	if ks[e.Kind] == "" {
		ks[e.Kind] = trace.EventKey(e)
	}
	return ks[e.Kind]
}

// between returns the thread's candidate events with lo < Time < hi, as a
// view over the index's backing array — no copy. Callers must treat the
// slice as read-only (the package-wide contract on window event slices);
// overlapping windows share the same backing elements.
func (ti *threadIndex) between(lo, hi int64) []CandEvent {
	if ti == nil {
		return nil
	}
	start := sort.Search(len(ti.times), func(i int) bool { return ti.times[i] > lo })
	end := sort.Search(len(ti.times), func(i int) bool { return ti.times[i] >= hi })
	if start >= end {
		return nil
	}
	return ti.cands[start:end:end]
}

// Window extracts one conflict's window using the index: all operations
// strictly between the pair, split by thread. The event slices are views
// over the index (read-only, possibly shared between overlapping windows)
// rather than fresh copies.
func (idx *Index) Window(c Conflict) Window {
	return Window{
		App: idx.app, Test: idx.test,
		Pair:      PairID{First: c.A.Site, Second: c.B.Site},
		ThreadA:   c.A.Thread,
		ThreadB:   c.B.Thread,
		TA:        c.A.Time,
		TB:        c.B.Time,
		RelEvents: idx.threads[c.A.Thread].between(c.A.Time, c.B.Time),
		AcqEvents: idx.threads[c.B.Thread].between(c.A.Time, c.B.Time),
	}
}

// BuildWindows extracts every conflict's window from tr in one pass over
// the trace plus two binary searches per conflict.
func BuildWindows(tr *trace.Trace, conflicts []Conflict) []Window {
	if len(conflicts) == 0 {
		return nil
	}
	idx := NewIndex(tr)
	out := make([]Window, 0, len(conflicts))
	for _, c := range conflicts {
		out = append(out, idx.Window(c))
	}
	return out
}
