package window

import (
	"reflect"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"sherlock/internal/apps"
	"sherlock/internal/sched"
	"sherlock/internal/trace"
)

// extractAllocs bounds the allocations of one App-1 run's extraction
// (FindConflicts, BuildWindows and TraceStats) on a warm pool: the
// conflicts, the windows, their one candidate-event array, the durations
// map with its flat sample array, and the API list. Measured with Go 1.24.
const extractAllocs = 7

// app1Trace returns the longest trace of App-1's tests at seed 1.
func app1Trace(t testing.TB) *trace.Trace {
	t.Helper()
	p, err := apps.ByName("App-1")
	if err != nil {
		t.Fatal(err)
	}
	var tr *trace.Trace
	for _, test := range p.Tests {
		res, err := sched.Run(p, test, sched.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if tr == nil || res.Trace.Len() > tr.Len() {
			tr = res.Trace
		}
	}
	return tr
}

// TestExtractAllocBound: once the pool holds a workspace grown to the
// trace, extracting a run allocates only what the caller keeps, so a
// workspace field rebuilt per call fails it.
func TestExtractAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop pooled state at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a GC would empty the pool
	tr := app1Trace(t)
	var cs []Conflict
	var ws []Window
	var apis []string
	extract := func() {
		cs = FindConflicts(tr, DefaultConfig())
		ws = BuildWindows(tr, cs)
		_, apis = TraceStats(tr)
	}
	extract() // warm the pool
	if len(ws) == 0 || len(apis) == 0 {
		t.Fatalf("App-1's trace gave %d windows and %d library APIs: the bound measures nothing", len(ws), len(apis))
	}
	if allocs := testing.AllocsPerRun(50, extract); allocs > extractAllocs {
		t.Errorf("one run's extraction allocates %.1f times, want at most %d", allocs, extractAllocs)
	}
}

// extraction is everything the engine keeps of one trace.
type extraction struct {
	windows   []Window
	durations map[string][]float64
	apis      []string
}

func extractOn(ws *workspace, tr *trace.Trace) extraction {
	var x extraction
	if cs := ws.conflicts(tr, DefaultConfig()); len(cs) > 0 {
		x.windows = ws.windows(tr, cs)
	}
	x.durations, x.apis = ws.durations(tr), ws.libAPIs(tr)
	return x
}

// deepCopy copies x into memory no workspace can reach.
func (x extraction) deepCopy() extraction {
	c := extraction{windows: slices.Clone(x.windows), durations: map[string][]float64{}, apis: slices.Clone(x.apis)}
	for i := range c.windows {
		c.windows[i].RelEvents = slices.Clone(c.windows[i].RelEvents)
		c.windows[i].AcqEvents = slices.Clone(c.windows[i].AcqEvents)
	}
	for name, ds := range x.durations {
		c.durations[name] = slices.Clone(ds)
	}
	return c
}

// cands counts x's candidate events.
func (x extraction) cands() int {
	n := 0
	for _, w := range x.windows {
		n += len(w.RelEvents) + len(w.AcqEvents)
	}
	return n
}

// TestWindowsOutliveWorkspace extracts a trace A, then C (fewer candidate
// events) and B (more), on the same workspace in both orders: nothing of
// A's extraction may change. A window, a duration list or the API list
// that aliased the workspace would be overwritten by C's, which fits in
// the buffers A grew, or by B's.
func TestWindowsOutliveWorkspace(t *testing.T) {
	var trs []*trace.Trace
	for _, name := range []string{"App-1", "App-2", "App-5"} {
		p, err := apps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, test := range p.Tests {
			res, err := sched.Run(p, test, sched.Options{Seed: 2})
			if err != nil {
				t.Fatal(err)
			}
			// Keep the traces every part of the extraction has output for.
			x := extractOn(workspaces.New().(*workspace), res.Trace)
			if len(x.windows) > 0 && len(x.durations) > 0 && len(x.apis) > 0 {
				trs = append(trs, res.Trace)
			}
		}
	}
	size := func(tr *trace.Trace) int { return extractOn(workspaces.New().(*workspace), tr).cands() }
	slices.SortStableFunc(trs, func(a, b *trace.Trace) int { return size(a) - size(b) })
	c, a, b := trs[len(trs)/4], trs[3*len(trs)/4], trs[len(trs)-1]
	if !(0 < size(c) && size(c) < size(a) && size(a) < size(b)) {
		t.Fatalf("candidate events: C %d, A %d, B %d; want 0 < C < A < B", size(c), size(a), size(b))
	}

	var got extraction
	for _, later := range [][]*trace.Trace{{c, b}, {b, c}} {
		ws := workspaces.New().(*workspace)
		got = extractOn(ws, a)
		want := got.deepCopy()
		for _, tr := range later {
			extractOn(ws, tr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatal("extracting other traces on the same workspace changed A's extraction")
		}
	}
	for i, w := range got.windows {
		if cap(w.RelEvents) != len(w.RelEvents) || cap(w.AcqEvents) != len(w.AcqEvents) {
			t.Fatalf("window %d's events are not capacity-clipped: appending to them would overwrite a neighbour", i)
		}
	}
	for name, ds := range got.durations {
		if cap(ds) != len(ds) {
			t.Fatalf("%s's duration samples are not capacity-clipped", name)
		}
	}
}

// TestConcurrentExtractionMatchesSequential extracts the same traces from
// several goroutines at once through the pooled functions: every result
// must equal the sequential one, so no two calls share a workspace.
func TestConcurrentExtractionMatchesSequential(t *testing.T) {
	var trs []*trace.Trace
	for _, name := range []string{"App-1", "App-2", "App-5"} {
		p, err := apps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, test := range p.Tests {
			res, err := sched.Run(p, test, sched.Options{Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			trs = append(trs, res.Trace)
		}
	}
	extract := func(tr *trace.Trace) extraction {
		var x extraction
		x.windows = BuildWindows(tr, FindConflicts(tr, DefaultConfig()))
		x.durations, x.apis = TraceStats(tr)
		return x
	}
	want := make([]extraction, len(trs))
	for i, tr := range trs {
		want[i] = extract(tr).deepCopy()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range trs {
				i := (k + g*len(trs)/4) % len(trs) // each goroutine starts elsewhere
				if got := extract(trs[i]); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d, trace %d: extraction differs from the sequential one", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestKeyTableBounded: the workspace's key table survives across calls
// but never holds more than maxKeyNames names, however many a trace
// carries, and a key found after a reset is still right.
func TestKeyTableBounded(t *testing.T) {
	ws := workspaces.New().(*workspace)
	for i := 0; i < 3*maxKeyNames; i++ {
		e := &trace.Event{Kind: trace.Kind(i % 4), Name: "C::f" + string(rune('a'+i%26)) + string(rune(i))}
		if got := ws.key(e); got != trace.EventKey(e) {
			t.Fatalf("key %q, want %q", got, trace.EventKey(e))
		}
		if len(ws.keys) > maxKeyNames {
			t.Fatalf("key table holds %d names, bound %d", len(ws.keys), maxKeyNames)
		}
	}
}

// methodDurationsRef is TraceStats' durations as they were before the
// workspace: a fresh map of stacks and a fresh sample map per trace. It
// stays as the oracle for the pooled version.
func methodDurationsRef(tr *trace.Trace) map[string][]float64 {
	stacks := map[int][]open{}
	out := map[string][]float64{}
	for i := range tr.Events {
		e := &tr.Events[i]
		switch e.Kind {
		case trace.KindBegin:
			stacks[e.Thread] = append(stacks[e.Thread], open{e.Name, e.Time})
		case trace.KindEnd:
			st := stacks[e.Thread]
			for len(st) > 0 {
				top := st[len(st)-1]
				st = st[:len(st)-1]
				if top.name == e.Name {
					out[e.Name] = append(out[e.Name], float64(e.Time-top.t))
					break
				}
			}
			stacks[e.Thread] = st
		}
	}
	return out
}

// FuzzBuildWindows runs the pooled extractor on arbitrary, possibly
// out-of-order traces, on one workspace every earlier input dirtied.
// Every window must equal the whole-trace BuildWindow scan over the
// stably time-sorted trace, and the durations must equal the map-based
// reference's.
func FuzzBuildWindows(f *testing.F) {
	f.Add([]byte{2, 40, 10, 1, 1, 1, 10, 5, 0, 2, 0, 0, 1, 3})
	f.Add([]byte{0, 0xff, 0xf0, 1, 1, 1, 0x20, 6, 0, 2, 0, 1, 0x12, 4})
	f.Add([]byte{14, 100, 5, 4, 1, 0, 5, 9, 0, 1, 0x80, 4, 1, 2, 0, 1, 0, 3, 0xf8, 5, 3, 1})
	f.Add(runSeed())
	ws := workspaces.New().(*workspace)
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, cfg := fuzzTrace(data)
		cs := ws.conflicts(tr, cfg)
		if !reflect.DeepEqual(cs, FindConflicts(tr, cfg)) {
			t.Fatal("conflicts on a dirtied workspace differ from a pooled one's")
		}
		if len(cs) > 0 {
			sorted := stableTimeSorted(tr)
			for i, w := range ws.windows(tr, cs) {
				if want := BuildWindow(sorted, cs[i]); !reflect.DeepEqual(w, want) {
					t.Fatalf("conflict %d:\n got  %+v\n want %+v", i, w, want)
				}
			}
		}
		if got, want := ws.durations(tr), methodDurationsRef(tr); !reflect.DeepEqual(got, want) {
			t.Fatalf("durations %v, want %v", got, want)
		}
	})
}
