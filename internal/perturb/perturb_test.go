package perturb

import (
	"math/rand"
	"slices"
	"testing"

	"sherlock/internal/sched"
	"sherlock/internal/trace"
	"sherlock/internal/window"
)

func wk(n string) trace.Key { return trace.KeyFor(trace.KindWrite, n) }
func rk(n string) trace.Key { return trace.KeyFor(trace.KindRead, n) }
func bk(n string) trace.Key { return trace.KeyFor(trace.KindBegin, n) }
func ek(n string) trace.Key { return trace.KeyFor(trace.KindEnd, n) }

func TestBuildPlan(t *testing.T) {
	p := BuildPlan([]trace.Key{wk("C::f"), ek("C::m")}, 500)
	if len(p) != 2 || p[wk("C::f")] != 500 || p[ek("C::m")] != 500 {
		t.Errorf("plan = %v", p)
	}
	if BuildPlan(nil, 500) != nil {
		t.Error("empty release set must yield nil plan")
	}
}

// Window under test: a at t=100 (thread 0), b at t=1000 (thread 1), release
// candidates r1(write X, t=200), r2(write Y, t=400), acquire candidates
// q1(read, t=300), q2(read, t=700).
func testWindow() window.Window {
	return window.Window{
		Pair: window.PairID{First: 1, Second: 2}, ThreadA: 0, ThreadB: 1, TA: 100, TB: 1000,
		RelEvents: []window.CandEvent{
			{Key: wk("C::x"), Time: 200},
			{Key: wk("C::y"), Time: 400},
		},
		AcqEvents: []window.CandEvent{
			{Key: rk("C::q"), Time: 300},
			{Key: rk("C::p"), Time: 700},
		},
	}
}

func TestRefineNoDelaysPassthrough(t *testing.T) {
	w := testWindow()
	out := Refine([]window.Window{w}, nil)
	if len(out) != 1 || len(out[0].RelEvents) != 2 || len(out[0].AcqEvents) != 2 {
		t.Errorf("pass-through failed: %+v", out)
	}
}

func TestRefineNotPropagated(t *testing.T) {
	// Delay before the write at t=400 (delay [390, 1490]); b at t=1000
	// executed during the delay → not propagated → release window trims to
	// before 390, dropping wk(C::y)... wait, the delayed op is C::y itself
	// whose delayed instance would now be outside the original window; the
	// recorded Start is inside.
	d := sched.DelayInstance{Key: wk("C::y"), Thread: 0, Start: 390, End: 1490}
	out := Refine([]window.Window{testWindow()}, []sched.DelayInstance{d})
	rel := out[0].RelEvents
	if len(rel) != 1 || rel[0].Key != wk("C::x") {
		t.Errorf("release events after non-propagation = %v, want only C::x", rel)
	}
	// Acquire side untouched.
	if len(out[0].AcqEvents) != 2 {
		t.Errorf("acquire events = %v", out[0].AcqEvents)
	}
}

func TestRefinePropagated(t *testing.T) {
	// Delay [190, 690] before the write at ~t=200; b at t=1000 waited
	// (after delay end) → propagated → acquire window keeps the last
	// acquire-capable event before 690 (q1 at 300) and everything after.
	d := sched.DelayInstance{Key: wk("C::x"), Thread: 0, Start: 190, End: 690}
	out := Refine([]window.Window{testWindow()}, []sched.DelayInstance{d})
	acq := out[0].AcqEvents
	if len(acq) != 2 {
		t.Fatalf("acquire events = %v, want q at 300 kept as last-before-gap plus p at 700", acq)
	}
	// Release side untouched on propagation.
	if len(out[0].RelEvents) != 2 {
		t.Errorf("release events = %v", out[0].RelEvents)
	}
}

func TestRefinePropagatedDropsEarlyNoise(t *testing.T) {
	w := testWindow()
	// Add early noise on the acquire side well before the gap.
	w.AcqEvents = append([]window.CandEvent{
		{Key: rk("C::noise"), Time: 150},
		{Key: rk("C::noise2"), Time: 200},
	}, w.AcqEvents...)
	d := sched.DelayInstance{Key: wk("C::x"), Thread: 0, Start: 290, End: 690}
	out := Refine([]window.Window{w}, []sched.DelayInstance{d})
	for _, e := range out[0].AcqEvents {
		if e.Key == rk("C::noise") || e.Key == rk("C::noise2") {
			t.Errorf("early noise %v survived refinement: %v", e.Key, out[0].AcqEvents)
		}
	}
	// q1 at t=300 is the last acquire-capable before the gap end: kept.
	found := false
	for _, e := range out[0].AcqEvents {
		if e.Key == rk("C::q") {
			found = true
		}
	}
	if !found {
		t.Error("last-before-gap acquire candidate was dropped")
	}
}

func TestRefineIgnoresOtherThreads(t *testing.T) {
	d := sched.DelayInstance{Key: wk("C::x"), Thread: 5, Start: 390, End: 1490}
	out := Refine([]window.Window{testWindow()}, []sched.DelayInstance{d})
	if len(out[0].RelEvents) != 2 || len(out[0].AcqEvents) != 2 {
		t.Error("delay on unrelated thread must not refine the window")
	}
}

func TestRefineIgnoresAcquireCapableDelays(t *testing.T) {
	// A delay before a read/begin says nothing about releases.
	d := sched.DelayInstance{Key: bk("C::m"), Thread: 0, Start: 390, End: 1490}
	out := Refine([]window.Window{testWindow()}, []sched.DelayInstance{d})
	if len(out[0].RelEvents) != 2 {
		t.Error("acquire-capable delayed key must not trim the release window")
	}
}

func TestRefineDelayOutsideWindow(t *testing.T) {
	before := sched.DelayInstance{Key: wk("C::x"), Thread: 0, Start: 50, End: 80}
	after := sched.DelayInstance{Key: wk("C::x"), Thread: 0, Start: 1200, End: 1500}
	out := Refine([]window.Window{testWindow()}, []sched.DelayInstance{before, after})
	if len(out[0].RelEvents) != 2 || len(out[0].AcqEvents) != 2 {
		t.Error("delays outside (TA, TB) must not refine the window")
	}
}

func TestRefineCanEmptyReleaseWindow(t *testing.T) {
	// Non-propagation with the delay starting right after TA empties the
	// release side — a data-race observation the Observer will record.
	d := sched.DelayInstance{Key: wk("C::x"), Thread: 0, Start: 150, End: 1490}
	out := Refine([]window.Window{testWindow()}, []sched.DelayInstance{d})
	if len(out[0].RelEvents) != 0 {
		t.Errorf("release events = %v, want empty", out[0].RelEvents)
	}
	if !out[0].RacyRelease() {
		t.Error("emptied release window must read as a data-race observation")
	}
}

// TestSortedRefineAllocatesOnlyOutput: an extracted window's event lists
// are time-sorted, so trimming them takes a subslice, and a refine that
// trims both sides of every window allocates only its output []Window.
func TestSortedRefineAllocatesOnlyOutput(t *testing.T) {
	ws := []window.Window{testWindow(), testWindow(), testWindow()}
	delays := []sched.DelayInstance{
		{Key: wk("C::x"), Thread: 0, Start: 190, End: 750},  // propagated: acquire trims
		{Key: wk("C::y"), Thread: 0, Start: 390, End: 1490}, // not propagated: release trims
	}
	var out []window.Window
	allocs := testing.AllocsPerRun(50, func() { out = Refine(ws, delays) })
	if allocs != 1 {
		t.Errorf("a sorted refine allocates %.0f times, want 1", allocs)
	}
	rel, acq := out[0].RelEvents, out[0].AcqEvents
	if len(rel) != 1 || rel[0].Time != 200 || len(acq) != 1 || acq[0].Time != 700 {
		t.Fatalf("refined to release %v, acquire %v", rel, acq)
	}
	if cap(rel) != len(rel) || cap(acq) != len(acq) {
		t.Error("a trimmed list must be capacity-clipped, so appending to it cannot overwrite the window's events")
	}
}

// TestRefineUnsortedTrimsLikeCopyingFilter: a window whose event lists
// are not time-sorted still trims to exactly the events a filter over the
// whole list keeps, in their order; sorted lists trim the same way.
func TestRefineUnsortedTrimsLikeCopyingFilter(t *testing.T) {
	keep := func(evs []window.CandEvent, ok func(int64) bool) []window.CandEvent {
		var out []window.CandEvent
		for _, e := range evs {
			if ok(e.Time) {
				out = append(out, e)
			}
		}
		return out
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		evs := make([]window.CandEvent, rng.Intn(12))
		for i := range evs {
			evs[i] = window.CandEvent{Key: wk("C::x"), Time: int64(rng.Intn(20))}
		}
		if trial%2 == 0 {
			slices.SortFunc(evs, func(a, b window.CandEvent) int { return int(a.Time - b.Time) })
		}
		cut := int64(rng.Intn(22) - 1)
		if got, want := filterBefore(evs, cut), keep(evs, func(t int64) bool { return t < cut }); !slices.Equal(got, want) {
			t.Fatalf("filterBefore(%v, %d) = %v, want %v", evs, cut, got, want)
		}
		if got, want := filterAtOrAfter(evs, cut), keep(evs, func(t int64) bool { return t >= cut }); !slices.Equal(got, want) {
			t.Fatalf("filterAtOrAfter(%v, %d) = %v, want %v", evs, cut, got, want)
		}
	}

	w := testWindow()
	w.RelEvents = []window.CandEvent{{Key: wk("C::y"), Time: 400}, {Key: wk("C::x"), Time: 200}, {Key: wk("C::z"), Time: 380}}
	w.AcqEvents = []window.CandEvent{{Key: rk("C::p"), Time: 700}, {Key: rk("C::q"), Time: 300}, {Key: rk("C::r"), Time: 800}}
	out := Refine([]window.Window{w}, []sched.DelayInstance{
		{Key: wk("C::y"), Thread: 0, Start: 390, End: 1490},
		{Key: wk("C::x"), Thread: 0, Start: 190, End: 750},
	})
	wantRel := []window.CandEvent{{Key: wk("C::x"), Time: 200}, {Key: wk("C::z"), Time: 380}}
	wantAcq := []window.CandEvent{{Key: rk("C::p"), Time: 700}, {Key: rk("C::r"), Time: 800}}
	if !slices.Equal(out[0].RelEvents, wantRel) || !slices.Equal(out[0].AcqEvents, wantAcq) {
		t.Errorf("unsorted window refined to release %v, acquire %v; want %v, %v",
			out[0].RelEvents, out[0].AcqEvents, wantRel, wantAcq)
	}
}
