package window

import (
	"math/rand"
	"runtime/debug"
	"sort"
	"testing"
	"testing/quick"

	"sherlock/internal/apps"
	"sherlock/internal/sched"
	"sherlock/internal/trace"
)

// ev builds a trace event tersely.
func ev(t int64, th int, kind trace.Kind, name string, addr uint64) trace.Event {
	acc := trace.AccNone
	switch kind {
	case trace.KindRead:
		acc = trace.AccRead
	case trace.KindWrite:
		acc = trace.AccWrite
	}
	return trace.Event{Time: t, Thread: th, Kind: kind, Name: name, Addr: addr, Site: int(addr)*100 + int(t%97), Acc: acc}
}

func mkTrace(events ...trace.Event) *trace.Trace {
	return &trace.Trace{App: "a", Test: "t", Events: events}
}

// findConflictsRef is FindConflicts as it was before the pair loop read
// events in place: per-address lists of event copies, compared by value.
// It stays as the differential oracle for the index-based version on
// time-ordered traces.
func findConflictsRef(tr *trace.Trace, cfg Config) []Conflict {
	type acc struct {
		ev trace.Event
	}
	byAddr := map[uint64][]acc{}
	for _, e := range tr.Events {
		if !e.ConflictEligible() {
			continue
		}
		if e.Lib && !cfg.UseUnsafeAPIs {
			continue
		}
		byAddr[e.Addr] = append(byAddr[e.Addr], acc{ev: e})
	}
	addrs := make([]uint64, 0, len(byAddr))
	for a := range byAddr {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	var out []Conflict
	perPair := map[PairID]int{}
	for _, a := range addrs {
		evs := byAddr[a]
		for j := 1; j < len(evs); j++ {
			b := evs[j].ev
			for i := j - 1; i >= 0; i-- {
				a := evs[i].ev
				if b.Time-a.Time > cfg.Near {
					break
				}
				if a.Thread == b.Thread {
					continue
				}
				if a.Acc != trace.AccWrite && b.Acc != trace.AccWrite {
					continue
				}
				pid := PairID{First: a.Site, Second: b.Site}
				if perPair[pid] >= cfg.PerPairCap {
					continue
				}
				perPair[pid]++
				out = append(out, Conflict{A: &a, B: &b})
			}
		}
	}
	return out
}

// BuildWindow extracts the acquire/release window of one conflict from the
// trace: all operations strictly between the pair, split by thread. It
// scans the whole trace per conflict and stays as the reference that the
// indexed BuildWindows is checked against.
func BuildWindow(tr *trace.Trace, c Conflict) Window {
	w := Window{
		App: tr.App, Test: tr.Test,
		Pair:    PairID{First: c.A.Site, Second: c.B.Site},
		ThreadA: c.A.Thread, ThreadB: c.B.Thread,
		TA: c.A.Time, TB: c.B.Time,
	}
	for i := range tr.Events {
		e := &tr.Events[i]
		if e.Time <= c.A.Time || e.Time >= c.B.Time {
			continue
		}
		switch e.Thread {
		case c.A.Thread:
			w.RelEvents = append(w.RelEvents, CandEvent{Key: trace.EventKey(e), Time: e.Time})
		case c.B.Thread:
			w.AcqEvents = append(w.AcqEvents, CandEvent{Key: trace.EventKey(e), Time: e.Time})
		}
	}
	return w
}

func TestFindConflictsBasics(t *testing.T) {
	tr := mkTrace(
		ev(100, 0, trace.KindWrite, "C::x", 1),
		ev(200, 1, trace.KindRead, "C::x", 1),
		ev(300, 1, trace.KindRead, "C::y", 2), // different address: no pair
		ev(400, 0, trace.KindRead, "C::x", 1), // read-read with 200: no pair
	)
	cfg := DefaultConfig()
	cs := FindConflicts(tr, cfg)
	if len(cs) != 1 {
		t.Fatalf("conflicts = %d, want 1 (write@100 → read@200)", len(cs))
	}
	if cs[0].A.Time != 100 || cs[0].B.Time != 200 {
		t.Errorf("wrong pair: %v", cs[0])
	}
}

func TestFindConflictsSameThreadExcluded(t *testing.T) {
	tr := mkTrace(
		ev(100, 0, trace.KindWrite, "C::x", 1),
		ev(200, 0, trace.KindRead, "C::x", 1),
	)
	if cs := FindConflicts(tr, DefaultConfig()); len(cs) != 0 {
		t.Fatalf("same-thread accesses must not conflict, got %d", len(cs))
	}
}

func TestFindConflictsNearFilter(t *testing.T) {
	tr := mkTrace(
		ev(100, 0, trace.KindWrite, "C::x", 1),
		ev(100+2_000_000, 1, trace.KindRead, "C::x", 1), // 2 ms later
	)
	cfg := DefaultConfig() // Near = 1 ms
	if cs := FindConflicts(tr, cfg); len(cs) != 0 {
		t.Fatal("pair outside Near must be filtered")
	}
	cfg.Near = 3_000_000
	if cs := FindConflicts(tr, cfg); len(cs) != 1 {
		t.Fatal("pair inside enlarged Near must be found")
	}
}

func TestFindConflictsUnsafeAPIs(t *testing.T) {
	add := trace.Event{Time: 100, Thread: 0, Kind: trace.KindBegin,
		Name: "List::Add", Addr: 5, Site: 1, Lib: true, Unsafe: true, Acc: trace.AccWrite}
	get := trace.Event{Time: 200, Thread: 1, Kind: trace.KindBegin,
		Name: "List::get_Item", Addr: 5, Site: 2, Lib: true, Unsafe: true, Acc: trace.AccRead}
	tr := mkTrace(add, get)
	cfg := DefaultConfig()
	if cs := FindConflicts(tr, cfg); len(cs) != 1 {
		t.Fatal("unsafe API pair should conflict when UseUnsafeAPIs")
	}
	cfg.UseUnsafeAPIs = false
	if cs := FindConflicts(tr, cfg); len(cs) != 0 {
		t.Fatal("unsafe API pair must be ignored when the API list is off")
	}
}

func TestFindConflictsPerPairCap(t *testing.T) {
	var events []trace.Event
	// 40 write/read alternations at the same two static sites.
	for i := 0; i < 40; i++ {
		w := ev(int64(i*100+10), 0, trace.KindWrite, "C::x", 1)
		w.Site = 7
		r := ev(int64(i*100+60), 1, trace.KindRead, "C::x", 1)
		r.Site = 8
		events = append(events, w, r)
	}
	cfg := DefaultConfig()
	cs := FindConflicts(mkTrace(events...), cfg)
	count := map[PairID]int{}
	for _, c := range cs {
		count[PairID{c.A.Site, c.B.Site}]++
	}
	for pid, n := range count {
		if n > cfg.PerPairCap {
			t.Errorf("pair %v produced %d conflicts, cap is %d", pid, n, cfg.PerPairCap)
		}
	}
}

func TestBuildWindowSplitsByThread(t *testing.T) {
	a := ev(100, 0, trace.KindWrite, "C::x", 1)
	b := ev(500, 1, trace.KindRead, "C::x", 1)
	tr := mkTrace(
		a,
		ev(150, 0, trace.KindWrite, "C::flag", 2),  // release cand
		ev(200, 1, trace.KindRead, "C::flag", 2),   // acquire cand
		ev(300, 2, trace.KindWrite, "C::other", 3), // third thread: neither
		ev(600, 0, trace.KindWrite, "C::late", 4),  // after TB: excluded
		b,
	)
	w := BuildWindow(tr, Conflict{A: &a, B: &b})
	if len(w.RelEvents) != 1 || w.RelEvents[0].Key != trace.KeyFor(trace.KindWrite, "C::flag") {
		t.Errorf("release events = %v", w.RelEvents)
	}
	if len(w.AcqEvents) != 1 || w.AcqEvents[0].Key != trace.KeyFor(trace.KindRead, "C::flag") {
		t.Errorf("acquire events = %v", w.AcqEvents)
	}
}

func TestWindowRacyRules(t *testing.T) {
	// Empty both sides: racy.
	w := Window{}
	if !w.Racy() {
		t.Error("empty window must be racy")
	}
	// Release side all reads: racy.
	w = Window{
		RelEvents: []CandEvent{{Key: trace.KeyFor(trace.KindRead, "C::a")}},
		AcqEvents: []CandEvent{{Key: trace.KeyFor(trace.KindRead, "C::a")}},
	}
	if !w.RacyRelease() || w.RacyAcquire() {
		t.Error("all-read release side is racy; read on acquire side is fine")
	}
	// Method events never disqualify: a blocked call's before-event can
	// predate the window, so presence of an End on the acquire side or a
	// Begin on the release side blocks the racy conclusion.
	w = Window{
		RelEvents: []CandEvent{{Key: trace.KeyFor(trace.KindBegin, "C::m")}},
		AcqEvents: []CandEvent{{Key: trace.KeyFor(trace.KindEnd, "C::m")}},
	}
	if w.Racy() {
		t.Error("method events must not trigger data-race observations")
	}
	// Acquire side all writes: racy.
	w = Window{
		RelEvents: []CandEvent{{Key: trace.KeyFor(trace.KindWrite, "C::a")}},
		AcqEvents: []CandEvent{{Key: trace.KeyFor(trace.KindWrite, "C::b")}},
	}
	if !w.RacyAcquire() || w.RacyRelease() {
		t.Error("all-write acquire side is racy; write on release side is fine")
	}
}

// TestUniqueCounts: a window side counts every occurrence of a key into
// its occurrence sum but the key only once into its window count and its
// distinct-candidate list, and a key the previous side held is not
// carried over.
func TestUniqueCounts(t *testing.T) {
	o := NewObservations(DefaultConfig())
	k := trace.KeyFor(trace.KindRead, "C::f")
	stale := trace.KeyFor(trace.KindWrite, "C::stale")
	o.countSide([]CandEvent{{Key: stale}})
	from := len(o.arena)
	o.countSide([]CandEvent{{Key: k}, {Key: k}, {Key: k}})
	got := o.arena[from:]
	id := o.keyIDs[k]
	if len(got) != 1 || got[0] != id {
		t.Errorf("distinct candidates = %v, want [%d]", got, id)
	}
	if o.occSum[id] != 3 || o.winCnt[id] != 1 {
		t.Errorf("occurrences %d in %d windows, want 3 in 1", o.occSum[id], o.winCnt[id])
	}
	if o.winCnt[o.keyIDs[stale]] != 1 {
		t.Error("the earlier side's key was counted again")
	}
}

func TestMethodDurations(t *testing.T) {
	tr := mkTrace(
		trace.Event{Time: 100, Thread: 0, Kind: trace.KindBegin, Name: "C::outer"},
		trace.Event{Time: 150, Thread: 0, Kind: trace.KindBegin, Name: "C::inner"},
		trace.Event{Time: 250, Thread: 0, Kind: trace.KindEnd, Name: "C::inner"},
		trace.Event{Time: 400, Thread: 0, Kind: trace.KindEnd, Name: "C::outer"},
		trace.Event{Time: 120, Thread: 1, Kind: trace.KindBegin, Name: "C::inner"},
		trace.Event{Time: 180, Thread: 1, Kind: trace.KindEnd, Name: "C::inner"},
	)
	d, _ := TraceStats(tr)
	if len(d["C::outer"]) != 1 || d["C::outer"][0] != 300 {
		t.Errorf("outer durations = %v", d["C::outer"])
	}
	if len(d["C::inner"]) != 2 {
		t.Errorf("inner durations = %v", d["C::inner"])
	}
}

func TestObservationsAccumulation(t *testing.T) {
	o := NewObservations(DefaultConfig())
	k := trace.KeyFor(trace.KindWrite, "C::f")
	w1 := Window{Pair: PairID{First: 1, Second: 2}, RelEvents: []CandEvent{{Key: k}, {Key: k}},
		AcqEvents: []CandEvent{{Key: trace.KeyFor(trace.KindRead, "C::f")}}}
	w2 := Window{Pair: PairID{First: 1, Second: 2}, RelEvents: []CandEvent{{Key: k}, {Key: k}, {Key: k}, {Key: k}},
		AcqEvents: []CandEvent{{Key: trace.KeyFor(trace.KindRead, "C::f")}}}
	o.AddWindows([]Window{w1, w2})
	if got := o.AvgOccurrence(k); got != 3 { // (2+4)/2
		t.Errorf("AvgOccurrence = %v, want 3", got)
	}
	if len(o.Windows) != 2 || len(o.ActiveWindows()) != 2 {
		t.Errorf("windows = %d active = %d", len(o.Windows), len(o.ActiveWindows()))
	}
}

func TestObservationsPerPairCapAcrossRuns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PerPairCap = 3
	o := NewObservations(cfg)
	k := trace.KeyFor(trace.KindWrite, "C::f")
	for i := 0; i < 10; i++ {
		o.AddWindows([]Window{{Pair: PairID{First: 1, Second: 2},
			RelEvents: []CandEvent{{Key: k}},
			AcqEvents: []CandEvent{{Key: trace.KeyFor(trace.KindRead, "C::f")}}}})
	}
	if len(o.Windows) != 3 {
		t.Errorf("accumulated %d windows, cap 3", len(o.Windows))
	}
}

func TestObservationsRacyPairExclusion(t *testing.T) {
	o := NewObservations(DefaultConfig())
	racy := Window{Pair: PairID{First: 5, Second: 6}} // empty: racy
	ok := Window{Pair: PairID{First: 1, Second: 2},
		RelEvents: []CandEvent{{Key: trace.KeyFor(trace.KindWrite, "C::f")}},
		AcqEvents: []CandEvent{{Key: trace.KeyFor(trace.KindRead, "C::f")}}}
	// A later good-looking window of the same racy pair stays excluded.
	late := Window{Pair: PairID{First: 5, Second: 6},
		RelEvents: []CandEvent{{Key: trace.KeyFor(trace.KindWrite, "C::g")}},
		AcqEvents: []CandEvent{{Key: trace.KeyFor(trace.KindRead, "C::g")}}}
	o.AddWindows([]Window{racy, ok, late})
	if !o.RacyPairs[PairID{First: 5, Second: 6}] {
		t.Fatal("racy pair not recorded")
	}
	act := o.ActiveWindows()
	if len(act) != 1 || act[0].Pair != (PairID{First: 1, Second: 2}) {
		t.Errorf("active windows = %v", act)
	}
}

func TestCVPercentiles(t *testing.T) {
	o := NewObservations(DefaultConfig())
	tr := mkTrace(
		// stable: durations 100, 100
		trace.Event{Time: 0, Thread: 0, Kind: trace.KindBegin, Name: "C::stable"},
		trace.Event{Time: 100, Thread: 0, Kind: trace.KindEnd, Name: "C::stable"},
		trace.Event{Time: 200, Thread: 0, Kind: trace.KindBegin, Name: "C::stable"},
		trace.Event{Time: 300, Thread: 0, Kind: trace.KindEnd, Name: "C::stable"},
		// varying: durations 10, 1000
		trace.Event{Time: 400, Thread: 0, Kind: trace.KindBegin, Name: "C::vary"},
		trace.Event{Time: 410, Thread: 0, Kind: trace.KindEnd, Name: "C::vary"},
		trace.Event{Time: 500, Thread: 0, Kind: trace.KindBegin, Name: "C::vary"},
		trace.Event{Time: 1500, Thread: 0, Kind: trace.KindEnd, Name: "C::vary"},
	)
	o.AddTraceStats(tr)
	ps := o.CVPercentiles()
	if ps["C::vary"] <= ps["C::stable"] {
		t.Errorf("varying method must rank above stable: %v vs %v", ps["C::vary"], ps["C::stable"])
	}
}

// Property: every window candidate lies strictly between the pair and on
// the right thread.
func TestBuildWindowProperty(t *testing.T) {
	f := func(times []uint16, threads []uint8) bool {
		if len(times) == 0 {
			return true
		}
		n := len(times)
		if len(threads) < n {
			return true
		}
		a := ev(10, 0, trace.KindWrite, "C::x", 1)
		b := ev(70000, 1, trace.KindRead, "C::x", 1)
		events := []trace.Event{a}
		for i := 0; i < n; i++ {
			e := ev(int64(times[i])+11, int(threads[i]%3), trace.KindWrite, "C::o", 9)
			events = append(events, e)
		}
		events = append(events, b)
		w := BuildWindow(mkTrace(events...), Conflict{A: &a, B: &b})
		for _, c := range w.RelEvents {
			if c.Time <= a.Time || c.Time >= b.Time {
				return false
			}
		}
		for _, c := range w.AcqEvents {
			if c.Time <= a.Time || c.Time >= b.Time {
				return false
			}
		}
		return len(w.RelEvents)+len(w.AcqEvents) <= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// BuildWindows must be observationally equivalent to per-conflict
// BuildWindow, across randomized traces.
func TestBuildWindowsEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		tr := &trace.Trace{App: "a", Test: "t"}
		tm := int64(0)
		nAddrs := 1 + rng.Intn(3)
		for i := 0; i < 60; i++ {
			tm += int64(1 + rng.Intn(120))
			kind := trace.Kind(rng.Intn(4))
			acc := trace.AccNone
			addr := uint64(0)
			if kind == trace.KindRead {
				acc = trace.AccRead
				addr = uint64(1 + rng.Intn(nAddrs))
			} else if kind == trace.KindWrite {
				acc = trace.AccWrite
				addr = uint64(1 + rng.Intn(nAddrs))
			}
			tr.Events = append(tr.Events, trace.Event{
				Time: tm, Thread: rng.Intn(3), Kind: kind,
				Name: "C::x", Addr: addr, Site: 1 + rng.Intn(10), Acc: acc,
			})
		}
		cfg := DefaultConfig()
		conflicts := FindConflicts(tr, cfg)
		batch := BuildWindows(tr, conflicts)
		if len(batch) != len(conflicts) {
			t.Fatalf("trial %d: %d windows for %d conflicts", trial, len(batch), len(conflicts))
		}
		for i, c := range conflicts {
			single := BuildWindow(tr, c)
			if !windowsEqual(single, batch[i]) {
				t.Fatalf("trial %d conflict %d:\n single %+v\n batch  %+v", trial, i, single, batch[i])
			}
		}
	}
}

// TestBuildWindowsAllocsFlatInEvents: BuildWindows copies out only the
// windowed events and finds their keys in the pooled workspace's table,
// so for a fixed set of conflicts its allocation count does not grow
// with the number of events in the trace.
func TestBuildWindowsAllocsFlatInEvents(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop pooled state at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a GC would empty the pool
	build := func(n int) (*trace.Trace, []Conflict) {
		tr := mkTrace()
		kinds := []trace.Kind{trace.KindRead, trace.KindWrite, trace.KindBegin, trace.KindEnd}
		for i := 0; i < n; i++ {
			tr.Events = append(tr.Events, trace.Event{Time: int64(i), Thread: i % 3,
				Kind: kinds[i%4], Name: []string{"C::x", "C::y", "C::m"}[i%3]})
		}
		evs := tr.Events
		return tr, []Conflict{{A: &evs[0], B: &evs[31]}, {A: &evs[4], B: &evs[50]}, {A: &evs[60], B: &evs[62]}}
	}
	allocs := func(n int) float64 {
		tr, cs := build(n)
		BuildWindows(tr, cs) // grow the pooled workspace to this trace
		return testing.AllocsPerRun(20, func() { BuildWindows(tr, cs) })
	}
	if a, b := allocs(120), allocs(12_000); a != b {
		t.Fatalf("BuildWindows allocates %.0f times on 120 events and %.0f on 12,000, want equal", a, b)
	}
}

func windowsEqual(a, b Window) bool {
	if a.Pair != b.Pair || a.TA != b.TA || a.TB != b.TB ||
		a.ThreadA != b.ThreadA || a.ThreadB != b.ThreadB {
		return false
	}
	if len(a.RelEvents) != len(b.RelEvents) || len(a.AcqEvents) != len(b.AcqEvents) {
		return false
	}
	for i := range a.RelEvents {
		if a.RelEvents[i] != b.RelEvents[i] {
			return false
		}
	}
	for i := range a.AcqEvents {
		if a.AcqEvents[i] != b.AcqEvents[i] {
			return false
		}
	}
	return true
}

// BenchmarkFindConflicts measures conflict-pair detection (now with the
// sorted address walk) on an App-1-sized trace.
func BenchmarkFindConflicts(b *testing.B) {
	tr, _ := benchTrace()
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FindConflicts(tr, cfg)
	}
}

// BenchmarkFindConflictsRacy measures the walk on the largest trace of a
// racy generated app run the way a campaign's later rounds run it: every
// true release delayed by the Perturber's 100,000 virtual ns. The delays
// stretch its flag spin loops into long same-thread runs of reads on one
// address, the case that made the unskipped walk quadratic.
func BenchmarkFindConflictsRacy(b *testing.B) {
	p, err := apps.ByName("gen:2,profile=racy,size=16")
	if err != nil {
		b.Fatal(err)
	}
	plan := map[trace.Key]int64{}
	for k, role := range p.Truth.Syncs {
		if role == trace.RoleRelease {
			plan[k] = 100_000
		}
	}
	var tr *trace.Trace
	for _, test := range p.Tests {
		res, err := sched.Run(p, test, sched.Options{Seed: 1, Delays: plan})
		if err != nil {
			b.Fatal(err)
		}
		if tr == nil || res.Trace.Len() > tr.Len() {
			tr = res.Trace
		}
	}
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FindConflicts(tr, cfg)
	}
}

// BenchmarkBuildWindows vs the naive path, on an App-1-sized trace.
func BenchmarkBuildWindows(b *testing.B) {
	tr, conflicts := benchTrace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildWindows(tr, conflicts)
	}
}

// BenchmarkTraceStats measures one trace's statistics on App-1's longest
// trace at seed 1: by the scheduler's name IDs, as the engine extracts
// them, and by name, interning the names as an uploaded trace's are.
func BenchmarkTraceStats(b *testing.B) {
	run, names := app1Run(b)
	b.Run("byID", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			TraceStatsByID(run.Trace, names, run.NameIDs)
		}
	})
	b.Run("byName", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			TraceStats(run.Trace)
		}
	})
}

func BenchmarkBuildWindowNaive(b *testing.B) {
	tr, conflicts := benchTrace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range conflicts {
			BuildWindow(tr, c)
		}
	}
}

func benchTrace() (*trace.Trace, []Conflict) {
	rng := rand.New(rand.NewSource(5))
	tr := &trace.Trace{App: "bench", Test: "t"}
	tm := int64(0)
	for i := 0; i < 1200; i++ {
		tm += int64(1 + rng.Intn(50))
		kind := trace.Kind(rng.Intn(4))
		acc := trace.AccNone
		addr := uint64(0)
		if kind == trace.KindRead {
			acc, addr = trace.AccRead, uint64(1+rng.Intn(6))
		} else if kind == trace.KindWrite {
			acc, addr = trace.AccWrite, uint64(1+rng.Intn(6))
		}
		tr.Events = append(tr.Events, trace.Event{
			Time: tm, Thread: rng.Intn(4), Kind: kind,
			Name: "C::x", Addr: addr, Site: 1 + rng.Intn(40), Acc: acc,
		})
	}
	return tr, FindConflicts(tr, DefaultConfig())
}
