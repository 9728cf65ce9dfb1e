package window

import (
	"fmt"
	"reflect"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"

	"sherlock/internal/apps"
	"sherlock/internal/sched"
	"sherlock/internal/trace"
)

// extractAllocs bounds the allocations of one App-1 run's extraction on
// the engine's path (FindConflicts, BuildWindowsByID and TraceStatsByID)
// on a warm pool: the conflicts, the windows, their one candidate-event
// array, and the statistics' sample list, flat sample array and API list.
// Measured with Go 1.24.
const extractAllocs = 6

// app1Run returns the run of App-1's tests at seed 1 with the longest
// trace, and App-1's event-name table.
func app1Run(t testing.TB) (*sched.Result, *trace.Names) {
	t.Helper()
	p, err := apps.ByName("App-1")
	if err != nil {
		t.Fatal(err)
	}
	var run *sched.Result
	for _, test := range p.Tests {
		res, err := sched.Run(p, test, sched.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if run == nil || res.Trace.Len() > run.Trace.Len() {
			run = res
		}
	}
	return run, p.EventNames()
}

// TestExtractAllocBound: once the pool holds a workspace grown to the
// trace, extracting a run by name ID allocates only what the caller
// keeps, so a workspace field rebuilt per call, or a name hashed into a
// fresh map, fails it.
func TestExtractAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop pooled state at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a GC would empty the pool
	run, names := app1Run(t)
	tr := run.Trace
	var cs []Conflict
	var ws []Window
	var st Stats
	extract := func() {
		cs = FindConflicts(tr, DefaultConfig())
		ws = BuildWindowsByID(tr, names, run.NameIDs, cs)
		st = TraceStatsByID(tr, names, run.NameIDs)
	}
	extract() // warm the pool
	if len(ws) == 0 || len(st.Durations) == 0 || len(st.LibAPIs) == 0 {
		t.Fatalf("App-1's trace gave %d windows, %d timed names and %d library APIs: the bound measures nothing",
			len(ws), len(st.Durations), len(st.LibAPIs))
	}
	if allocs := testing.AllocsPerRun(50, extract); allocs > extractAllocs {
		t.Errorf("one run's extraction allocates %.1f times, want at most %d", allocs, extractAllocs)
	}
}

// extraction is everything the engine keeps of one trace, by both paths:
// the name-keyed windows and statistics, and the statistics by ID.
type extraction struct {
	windows   []Window
	durations map[string][]float64
	apis      []string
	stats     Stats
}

// extractOn extracts run on ws by name, and its statistics by ID in
// names as well.
func extractOn(ws *workspace, run *sched.Result, names *trace.Names) extraction {
	var x extraction
	if cs := ws.conflicts(run.Trace, DefaultConfig()); len(cs) > 0 {
		x.windows = ws.windows(run.Trace, cs)
	}
	x.durations, x.apis = ws.traceStats(run.Trace)
	x.stats = ws.traceStatsByID(run.Trace, names, run.NameIDs)
	return x
}

// deepCopy copies x into memory no workspace can reach.
func (x extraction) deepCopy() extraction {
	c := extraction{windows: slices.Clone(x.windows), durations: map[string][]float64{}, apis: slices.Clone(x.apis),
		stats: Stats{Names: x.stats.Names, Durations: slices.Clone(x.stats.Durations), LibAPIs: slices.Clone(x.stats.LibAPIs)}}
	for i := range c.windows {
		c.windows[i].RelEvents = slices.Clone(c.windows[i].RelEvents)
		c.windows[i].AcqEvents = slices.Clone(c.windows[i].AcqEvents)
	}
	for name, ds := range x.durations {
		c.durations[name] = slices.Clone(ds)
	}
	for i := range c.stats.Durations {
		c.stats.Durations[i].Values = slices.Clone(c.stats.Durations[i].Values)
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
// A's extraction may change. A window, a key of the workspace's emptied
// name table, a duration list or an API list that aliased the workspace
// would be overwritten by C's, which fits in the buffers A grew, or by
// B's.
func TestWindowsOutliveWorkspace(t *testing.T) {
	type run struct {
		res   *sched.Result
		names *trace.Names
	}
	var runs []run
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
			x := extractOn(workspaces.New().(*workspace), res, p.EventNames())
			if len(x.windows) > 0 && len(x.durations) > 0 && len(x.apis) > 0 {
				runs = append(runs, run{res, p.EventNames()})
			}
		}
	}
	extract := func(ws *workspace, r run) extraction { return extractOn(ws, r.res, r.names) }
	size := func(r run) int { return extract(workspaces.New().(*workspace), r).cands() }
	slices.SortStableFunc(runs, func(a, b run) int { return size(a) - size(b) })
	c, a, b := runs[len(runs)/4], runs[3*len(runs)/4], runs[len(runs)-1]
	if !(0 < size(c) && size(c) < size(a) && size(a) < size(b)) {
		t.Fatalf("candidate events: C %d, A %d, B %d; want 0 < C < A < B", size(c), size(a), size(b))
	}

	var got extraction
	for _, later := range [][]run{{c, b}, {b, c}} {
		ws := workspaces.New().(*workspace)
		got = extract(ws, a)
		want := got.deepCopy()
		for _, r := range later {
			extract(ws, r)
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
	for _, smp := range got.stats.Durations {
		if cap(smp.Values) != len(smp.Values) {
			t.Fatalf("name %d's duration samples are not capacity-clipped", smp.Name)
		}
	}
}

// TestConcurrentExtractionMatchesSequential extracts the same traces from
// several goroutines at once through the pooled functions, by name and
// by ID: every result must equal the sequential one, so no two calls
// share a workspace.
func TestConcurrentExtractionMatchesSequential(t *testing.T) {
	type run struct {
		res   *sched.Result
		names *trace.Names
	}
	var runs []run
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
			runs = append(runs, run{res, p.EventNames()})
		}
	}
	extract := func(r run) extraction {
		var x extraction
		tr := r.res.Trace
		cs := FindConflicts(tr, DefaultConfig())
		x.windows = BuildWindows(tr, cs)
		if byID := BuildWindowsByID(tr, r.names, r.res.NameIDs, cs); !reflect.DeepEqual(byID, x.windows) {
			t.Errorf("%s/%s: windows by ID differ from windows by name", tr.App, tr.Test)
		}
		x.durations, x.apis = TraceStats(tr)
		x.stats = TraceStatsByID(tr, r.names, r.res.NameIDs)
		return x
	}
	want := make([]extraction, len(runs))
	for i, r := range runs {
		want[i] = extract(r).deepCopy()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range runs {
				i := (k + g*len(runs)/4) % len(runs) // each goroutine starts elsewhere
				if got := extract(runs[i]); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d, trace %d: extraction differs from the sequential one", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestKeyTableBounded: the name-keyed extractors take candidate keys
// from the workspace's own name table, emptied per call, so it holds
// only the names one call read, however many earlier traces carried, and
// a key it gave out stays right after later calls empty it.
func TestKeyTableBounded(t *testing.T) {
	ws := workspaces.New().(*workspace)
	trace1 := func(prefix string, n int) (*trace.Trace, []Conflict) {
		tr := mkTrace()
		for i := 0; i < n; i++ {
			tr.Events = append(tr.Events, trace.Event{Time: int64(i), Thread: i % 2,
				Kind: trace.Kind(i % 4), Name: fmt.Sprintf("%s::m%d", prefix, i)})
		}
		evs := tr.Events
		return tr, []Conflict{{A: &evs[0], B: &evs[n-1]}}
	}
	big, bigCs := trace1("Big", 3000)
	first := ws.windows(big, bigCs)
	want := first[0].RelEvents[0].Key
	if want != trace.EventKey(&big.Events[2]) {
		t.Fatalf("key %q, want %q", want, trace.EventKey(&big.Events[2]))
	}
	small, smallCs := trace1("Small", 10)
	for _, w := range ws.windows(small, smallCs) {
		for _, e := range append(w.RelEvents, w.AcqEvents...) {
			if !strings.HasPrefix(e.Key.Name(), "Small::") {
				t.Fatalf("a window of the small trace holds key %q", e.Key)
			}
		}
	}
	if n := ws.local.Len(); n != 8 {
		t.Fatalf("the workspace's table holds %d names after a call that read 8", n)
	}
	if got := first[0].RelEvents[0].Key; got != want {
		t.Fatalf("an earlier window's key changed to %q, want %q", got, want)
	}
}

// methodDurationsRef is TraceStats' durations as they were before the
// workspace and name IDs: a fresh map of stacks of names and a fresh
// sample map per trace. It stays as the oracle for the pooled version.
func methodDurationsRef(tr *trace.Trace) map[string][]float64 {
	type open struct {
		name string
		t    int64
	}
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

// fuzzNames are the names FuzzBuildWindows gives events, by site.
var fuzzNames = []string{"C::f", "C::g", "D::h"}

// FuzzBuildWindows runs the pooled extractor on arbitrary, possibly
// out-of-order traces, by name ID and by name, on one workspace every
// earlier input dirtied. Each event is named by its site, and the name
// table holds a decoy and enters the trace's names backwards, so IDs
// follow neither the trace nor the names' order. Every window must equal
// the whole-trace BuildWindow scan over the stably time-sorted trace,
// whose keys are trace.EventKey's, and the durations and library APIs
// must equal the map-based references'.
func FuzzBuildWindows(f *testing.F) {
	f.Add([]byte{2, 40, 10, 1, 1, 1, 10, 5, 0, 2, 0, 0, 1, 3})
	f.Add([]byte{0, 0xff, 0xf0, 1, 1, 1, 0x20, 6, 0, 2, 0, 1, 0x12, 4})
	f.Add([]byte{14, 100, 5, 4, 1, 0, 5, 9, 0, 1, 0x80, 4, 1, 2, 0, 1, 0, 3, 0xf8, 5, 3, 1})
	f.Add(runSeed())
	ws := workspaces.New().(*workspace)
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, cfg := fuzzTrace(data)
		names := trace.NewNames()
		names.Intern("Decoy::d")
		ids := make([]trace.NameID, len(tr.Events))
		for i := len(tr.Events) - 1; i >= 0; i-- {
			tr.Events[i].Name = fuzzNames[tr.Events[i].Site%len(fuzzNames)]
			ids[i] = names.Intern(tr.Events[i].Name)
		}
		cs := ws.conflicts(tr, cfg)
		if !reflect.DeepEqual(cs, FindConflicts(tr, cfg)) {
			t.Fatal("conflicts on a dirtied workspace differ from a pooled one's")
		}
		if len(cs) > 0 {
			sorted := stableTimeSorted(tr)
			byName := ws.windows(tr, cs)
			for i, w := range ws.windowsByID(tr, names, ids, cs) {
				if want := BuildWindow(sorted, cs[i]); !reflect.DeepEqual(w, want) {
					t.Fatalf("conflict %d:\n got  %+v\n want %+v", i, w, want)
				}
				if !reflect.DeepEqual(byName[i], w) {
					t.Fatalf("conflict %d: the window by name differs from the window by ID", i)
				}
			}
		}
		wantDurs, wantAPIs := methodDurationsRef(tr), libAPIsRef(tr)
		durs, apis := statsByName(ws.traceStatsByID(tr, names, ids))
		if !reflect.DeepEqual(durs, wantDurs) || !reflect.DeepEqual(apis, wantAPIs) {
			t.Fatalf("by ID: durations %v and APIs %v, want %v and %v", durs, apis, wantDurs, wantAPIs)
		}
		if durs, apis := ws.traceStats(tr); !reflect.DeepEqual(durs, wantDurs) || !reflect.DeepEqual(apis, wantAPIs) {
			t.Fatalf("by name: durations %v and APIs %v, want %v and %v", durs, apis, wantDurs, wantAPIs)
		}
	})
}

// libAPIsRef is TraceStats' library APIs by a map: the distinct names of
// library events, sorted (nil if none).
func libAPIsRef(tr *trace.Trace) []string {
	seen := map[string]bool{}
	var out []string
	for _, e := range tr.Events {
		if e.Lib && !seen[e.Name] {
			seen[e.Name] = true
			out = append(out, e.Name)
		}
	}
	slices.Sort(out)
	return out
}

// statsByName renders statistics by ID the way TraceStats returns them.
func statsByName(s Stats) (map[string][]float64, []string) {
	durs := map[string][]float64{}
	for _, smp := range s.Durations {
		durs[s.Names.Name(smp.Name)] = smp.Values
	}
	var apis []string
	for _, id := range s.LibAPIs {
		apis = append(apis, s.Names.Name(id))
	}
	slices.Sort(apis)
	return durs, apis
}
