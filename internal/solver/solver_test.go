package solver

import (
	"math/rand"
	"slices"
	"testing"

	"sherlock/internal/trace"
	"sherlock/internal/window"
)

func wk(n string) trace.Key { return trace.KeyFor(trace.KindWrite, n) }
func rk(n string) trace.Key { return trace.KeyFor(trace.KindRead, n) }
func bk(n string) trace.Key { return trace.KeyFor(trace.KindBegin, n) }
func ek(n string) trace.Key { return trace.KeyFor(trace.KindEnd, n) }

func cands(keys ...trace.Key) []window.CandEvent {
	out := make([]window.CandEvent, len(keys))
	for i, k := range keys {
		out[i] = window.CandEvent{Key: k, Time: int64(i + 1)}
	}
	return out
}

// obsWith builds observations from explicit windows.
func obsWith(ws ...window.Window) *window.Observations {
	o := window.NewObservations(window.DefaultConfig())
	for i := range ws {
		if ws[i].Pair == (window.PairID{}) {
			ws[i].Pair = window.PairID{First: 2*i + 1, Second: 2*i + 2}
		}
	}
	o.AddWindows(ws)
	return o
}

func solveOK(t *testing.T, o *window.Observations, cfg Config) *Result {
	t.Helper()
	r, err := Solve(o, cfg)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return r
}

func TestSingleWindowInference(t *testing.T) {
	o := obsWith(window.Window{
		RelEvents: cands(wk("C::f")),
		AcqEvents: cands(rk("C::f")),
	})
	r := solveOK(t, o, DefaultConfig())
	if r.Releases[wk("C::f")] < 0.9 {
		t.Errorf("write release prob = %v", r.Releases[wk("C::f")])
	}
	if r.Acquires[rk("C::f")] < 0.9 {
		t.Errorf("read acquire prob = %v", r.Acquires[rk("C::f")])
	}
}

func TestReadAcqWriteRelProperty(t *testing.T) {
	// A read can never be inferred as a release even if it is the only
	// candidate on the release side.
	o := obsWith(window.Window{
		RelEvents: cands(rk("C::g")),
		AcqEvents: cands(rk("C::f")),
	})
	r := solveOK(t, o, DefaultConfig())
	if _, exists := r.Releases[rk("C::g")]; exists {
		t.Error("read must have no release variable under Read-Acq & Write-Rel")
	}
	// Under the ablation, the variable exists and gets picked. (The
	// all-read release side also makes this window a data-race
	// observation, so re-enable it for the ablated solve.)
	cfg := DefaultConfig()
	cfg.Hyp.ReadAcqWriteRel = false
	cfg.KeepRacyWindows = true
	r = solveOK(t, o, cfg)
	if r.Releases[rk("C::g")] < 0.9 {
		t.Errorf("ablated: read release prob = %v", r.Releases[rk("C::g")])
	}
}

func TestSharedCandidatePreferred(t *testing.T) {
	// Three windows each contain a distinct method-end plus one shared
	// API end. Minimizing sync count must pick the shared one.
	shared := ek("Lib::Exit")
	o := obsWith(
		window.Window{RelEvents: cands(ek("C::m1"), shared), AcqEvents: cands(rk("C::f"))},
		window.Window{RelEvents: cands(ek("C::m2"), shared), AcqEvents: cands(rk("C::f"))},
		window.Window{RelEvents: cands(ek("C::m3"), shared), AcqEvents: cands(rk("C::f"))},
	)
	r := solveOK(t, o, DefaultConfig())
	if r.Releases[shared] < 0.9 {
		t.Errorf("shared candidate prob = %v; releases=%v", r.Releases[shared], r.ReleaseSet)
	}
	for _, m := range []trace.Key{ek("C::m1"), ek("C::m2"), ek("C::m3")} {
		if r.Releases[m] > 0.1 {
			t.Errorf("distinct candidate %s got prob %v, want ~0", m, r.Releases[m])
		}
	}
}

func TestRareHypothesisPenalizesFrequentOps(t *testing.T) {
	// Candidate A occurs 30 times per window (a popular read), candidate B
	// once; both cover all windows. B must win.
	popular := rk("C::popular")
	seldom := rk("C::seldom")
	var popularEvents []window.CandEvent
	for i := 0; i < 30; i++ {
		popularEvents = append(popularEvents, window.CandEvent{Key: popular, Time: int64(i + 1)})
	}
	mk := func(pair window.PairID) window.Window {
		return window.Window{
			Pair:      pair,
			RelEvents: cands(wk("C::w")),
			AcqEvents: append(cands(seldom), popularEvents...),
		}
	}
	o := obsWith(mk(window.PairID{First: 1, Second: 2}), mk(window.PairID{First: 3, Second: 4}))
	r := solveOK(t, o, DefaultConfig())
	if r.Acquires[seldom] < 0.9 {
		t.Errorf("rare candidate prob = %v", r.Acquires[seldom])
	}
	if r.Acquires[popular] > 0.1 {
		t.Errorf("popular candidate prob = %v, want ~0", r.Acquires[popular])
	}
}

func TestWithoutMostlyProtectedNothingInferred(t *testing.T) {
	o := obsWith(window.Window{
		RelEvents: cands(wk("C::f")),
		AcqEvents: cands(rk("C::f")),
	})
	cfg := DefaultConfig()
	cfg.Hyp.MostlyProtected = false
	r := solveOK(t, o, cfg)
	if len(r.AcquireSet)+len(r.ReleaseSet) != 0 {
		t.Errorf("without Mostly-Protected the solver must infer nothing, got %v %v",
			r.AcquireSet, r.ReleaseSet)
	}
}

func TestWithoutRareEverythingInWindowsTagged(t *testing.T) {
	// Without the rare hypothesis there is no cost to tagging ops, so
	// every capable candidate in a window side can saturate.
	o := obsWith(window.Window{
		RelEvents: cands(wk("C::a"), wk("C::b"), ek("C::m")),
		AcqEvents: cands(rk("C::a")),
	})
	cfg := DefaultConfig()
	cfg.Hyp.SyncsAreRare = false
	cfg.Hyp.MostlyPaired = false
	cfg.Hyp.AcqTimeVaries = false
	r := solveOK(t, o, cfg)
	// At least as many releases as the default config would produce; the
	// default should pick exactly one.
	if len(r.ReleaseSet) < 1 {
		t.Errorf("releases = %v", r.ReleaseSet)
	}
	rDefault := solveOK(t, o, DefaultConfig())
	if len(rDefault.ReleaseSet) != 1 {
		t.Errorf("default config releases = %v, want exactly 1", rDefault.ReleaseSet)
	}
}

func TestMostlyPairedFieldBonus(t *testing.T) {
	// Window 1 pins write:C::v as release. Window 2's acquire side offers
	// read:C::v and read:C::u — pairing must break the tie toward read:C::v.
	o := obsWith(
		window.Window{RelEvents: cands(wk("C::v")), AcqEvents: cands(rk("C::z"))},
		window.Window{RelEvents: cands(wk("C::v")), AcqEvents: cands(rk("C::v"), rk("C::u"))},
	)
	r := solveOK(t, o, DefaultConfig())
	if r.Acquires[rk("C::v")] < 0.9 {
		t.Errorf("paired read prob = %v (acquires=%v)", r.Acquires[rk("C::v")], r.AcquireSet)
	}
	if r.Acquires[rk("C::u")] > 0.1 {
		t.Errorf("unpaired read prob = %v, want ~0", r.Acquires[rk("C::u")])
	}
}

func TestMostlyPairedClassBonus(t *testing.T) {
	// begin:Lock::Enter is pinned as acquire by windows; a tie on the
	// release side between end:Lock::Exit and end:Other::M should break
	// toward the same class.
	o := obsWith(
		window.Window{RelEvents: cands(wk("C::w1")), AcqEvents: cands(bk("Lock::Enter"))},
		window.Window{RelEvents: cands(ek("Lock::Exit"), ek("Other::M")), AcqEvents: cands(bk("Lock::Enter"))},
	)
	cfg := DefaultConfig()
	cfg.Hyp.AcqTimeVaries = false // no duration data in synthetic windows
	r := solveOK(t, o, cfg)
	if r.Releases[ek("Lock::Exit")] < 0.9 {
		t.Errorf("same-class release prob = %v (releases=%v)", r.Releases[ek("Lock::Exit")], r.ReleaseSet)
	}
}

func TestAcqTimeVariesPrefersVaryingMethod(t *testing.T) {
	o := window.NewObservations(window.DefaultConfig())
	// Two candidate begins tie on a window; duration stats differ.
	o.AddWindows([]window.Window{{
		Pair:      window.PairID{First: 1, Second: 2},
		RelEvents: cands(wk("C::w")),
		AcqEvents: cands(bk("C::stable"), bk("C::vary")),
	}})
	tr := &trace.Trace{Events: []trace.Event{
		{Time: 0, Kind: trace.KindBegin, Name: "C::stable"},
		{Time: 100, Kind: trace.KindEnd, Name: "C::stable"},
		{Time: 200, Kind: trace.KindBegin, Name: "C::stable"},
		{Time: 301, Kind: trace.KindEnd, Name: "C::stable"},
		{Time: 400, Kind: trace.KindBegin, Name: "C::vary"},
		{Time: 410, Kind: trace.KindEnd, Name: "C::vary"},
		{Time: 500, Kind: trace.KindBegin, Name: "C::vary"},
		{Time: 2500, Kind: trace.KindEnd, Name: "C::vary"},
	}}
	o.AddTraceStats(tr)
	r := solveOK(t, o, DefaultConfig())
	if r.Acquires[bk("C::vary")] < 0.9 {
		t.Errorf("varying method prob = %v", r.Acquires[bk("C::vary")])
	}
	if r.Acquires[bk("C::stable")] > 0.1 {
		t.Errorf("stable method prob = %v, want ~0", r.Acquires[bk("C::stable")])
	}
}

func TestSingleRoleConstraint(t *testing.T) {
	// A lib API appearing as both acquire (its begin) and release (its
	// end) across windows can satisfy only one role.
	api := "Lib::UpgradeToWriterLock"
	o := window.NewObservations(window.DefaultConfig())
	var ws []window.Window
	for i := 0; i < 3; i++ {
		ws = append(ws,
			window.Window{Pair: window.PairID{First: 10 + i, Second: 20 + i},
				RelEvents: cands(ek(api)), AcqEvents: cands(rk("C::f"))},
			window.Window{Pair: window.PairID{First: 30 + i, Second: 40 + i},
				RelEvents: cands(wk("C::f")), AcqEvents: cands(bk(api))},
		)
	}
	o.AddWindows(ws)
	// Mark the API as a library call site.
	o.AddTraceStats(&trace.Trace{Events: []trace.Event{
		{Time: 1, Kind: trace.KindBegin, Name: api, Lib: true},
		{Time: 2, Kind: trace.KindEnd, Name: api, Lib: true},
	}})
	r := solveOK(t, o, DefaultConfig())
	both := r.Acquires[bk(api)] >= 0.9 && r.Releases[ek(api)] >= 0.9
	if both {
		t.Error("Single-Role violated: API inferred as both acquire and release")
	}
	// Ablation allows both.
	cfg := DefaultConfig()
	cfg.Hyp.SingleRole = false
	r = solveOK(t, o, cfg)
	if !(r.Acquires[bk(api)] >= 0.9 && r.Releases[ek(api)] >= 0.9) {
		t.Errorf("without Single-Role both roles should be inferable: acq=%v rel=%v",
			r.Acquires[bk(api)], r.Releases[ek(api)])
	}
}

func TestRacyWindowsDropped(t *testing.T) {
	racy := window.Window{Pair: window.PairID{First: 1, Second: 2},
		AcqEvents: cands(rk("C::f"))} // empty release side: racy
	o := obsWith(racy)
	r := solveOK(t, o, DefaultConfig())
	if len(r.AcquireSet) != 0 {
		t.Errorf("racy window must not drive inference, got %v", r.AcquireSet)
	}
	cfg := DefaultConfig()
	cfg.KeepRacyWindows = true
	r = solveOK(t, o, cfg)
	if r.Acquires[rk("C::f")] < 0.9 {
		t.Errorf("KeepRacyWindows should re-enable the term, prob=%v", r.Acquires[rk("C::f")])
	}
}

func TestLambdaMonotonicity(t *testing.T) {
	// Increasing lambda must never increase the number of inferred syncs.
	mk := func() *window.Observations {
		return obsWith(
			window.Window{RelEvents: cands(wk("C::a")), AcqEvents: cands(rk("C::a"))},
			window.Window{RelEvents: cands(wk("C::b")), AcqEvents: cands(rk("C::b"))},
			window.Window{RelEvents: cands(ek("C::m")), AcqEvents: cands(bk("C::m2"))},
		)
	}
	prev := 1 << 30
	for _, lam := range []float64{0.1, 0.5, 1, 5, 50} {
		cfg := DefaultConfig()
		cfg.Lambda = lam
		r := solveOK(t, mk(), cfg)
		n := len(r.AcquireSet) + len(r.ReleaseSet)
		if n > prev {
			t.Errorf("lambda %v inferred %d > previous %d", lam, n, prev)
		}
		prev = n
	}
	// At extreme lambda nothing is worth inferring.
	cfg := DefaultConfig()
	cfg.Lambda = 1000
	r := solveOK(t, mk(), cfg)
	if len(r.AcquireSet)+len(r.ReleaseSet) != 0 {
		t.Error("extreme lambda should suppress all inference")
	}
}

func TestEmptyObservations(t *testing.T) {
	o := window.NewObservations(window.DefaultConfig())
	r := solveOK(t, o, DefaultConfig())
	if len(r.AcquireSet)+len(r.ReleaseSet) != 0 {
		t.Error("no observations, no inference")
	}
}

func TestResultSyncsMap(t *testing.T) {
	o := obsWith(window.Window{
		RelEvents: cands(wk("C::f")),
		AcqEvents: cands(rk("C::f")),
	})
	cfg := DefaultConfig()
	r := solveOK(t, o, cfg)
	if !slices.Equal(r.ReleaseSet, []trace.Key{wk("C::f")}) || !slices.Equal(r.AcquireSet, []trace.Key{rk("C::f")}) {
		t.Errorf("ReleaseSet %v AcquireSet %v, want the write released and the read acquired", r.ReleaseSet, r.AcquireSet)
	}
	if r.Releases[wk("C::f")] < cfg.Threshold || r.Releases[rk("C::f")] >= cfg.Threshold {
		t.Errorf("Releases = %v misreports the roles", r.Releases)
	}
}

// Property test: random observation sets must always solve, with all
// probabilities in [0,1], deterministic output, and every active window
// side either covered by an inferred candidate or paid for by the
// Mostly-Protected slack (i.e. the LP is never trivially degenerate).
func TestSolverPropertiesOnRandomObservations(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	keys := []trace.Key{
		rk("F.C::a"), wk("F.C::a"), rk("F.C::b"), wk("F.C::b"),
		bk("F.L::enter"), ek("F.L::exit"), bk("F.M::run"), ek("F.M::run"),
	}
	for trial := 0; trial < 40; trial++ {
		o := window.NewObservations(window.DefaultConfig())
		nWin := 1 + rng.Intn(8)
		var ws []window.Window
		for w := 0; w < nWin; w++ {
			win := window.Window{
				Pair: window.PairID{First: rng.Intn(6) + 1, Second: rng.Intn(6) + 10},
				TA:   int64(w * 100), TB: int64(w*100 + 90),
			}
			for k := 0; k < 1+rng.Intn(4); k++ {
				win.RelEvents = append(win.RelEvents,
					window.CandEvent{Key: keys[rng.Intn(len(keys))], Time: win.TA + int64(k) + 1})
			}
			for k := 0; k < 1+rng.Intn(4); k++ {
				win.AcqEvents = append(win.AcqEvents,
					window.CandEvent{Key: keys[rng.Intn(len(keys))], Time: win.TA + int64(k) + 2})
			}
			ws = append(ws, win)
		}
		o.AddWindows(ws)

		r1 := solveOK(t, o, DefaultConfig())
		for k, p := range r1.Acquires {
			if p < -1e-6 || p > 1+1e-6 {
				t.Fatalf("trial %d: acquire prob out of range: %s=%v", trial, k, p)
			}
		}
		for k, p := range r1.Releases {
			if p < -1e-6 || p > 1+1e-6 {
				t.Fatalf("trial %d: release prob out of range: %s=%v", trial, k, p)
			}
		}
		// Determinism.
		r2 := solveOK(t, o, DefaultConfig())
		if r1.Objective != r2.Objective ||
			len(r1.AcquireSet) != len(r2.AcquireSet) ||
			len(r1.ReleaseSet) != len(r2.ReleaseSet) {
			t.Fatalf("trial %d: non-deterministic solve", trial)
		}
		// Single-Role never violated for lib APIs... (none marked lib here);
		// instead check role exclusivity has no key inferred as both roles
		// when both variables exist (the ReadAcqWriteRel default forbids it
		// structurally, so check the ablated encoding too).
		cfg := DefaultConfig()
		cfg.Hyp.ReadAcqWriteRel = false
		r3 := solveOK(t, o, cfg)
		for k := range r3.Acquires {
			if r3.Acquires[k] >= cfg.Threshold && r3.Releases[k] >= cfg.Threshold {
				t.Fatalf("trial %d: %s inferred as both roles", trial, k)
			}
		}
	}
}

// The LP objective reported must match the objective recomputed from the
// returned probabilities (cross-check of the encoding plumbing): since the
// auxiliary variables are internal, verify instead that adding an
// irrelevant observation never decreases the optimum (monotone costs).
func TestSolverObjectiveMonotonicity(t *testing.T) {
	base := obsWith(window.Window{
		RelEvents: cands(wk("M.C::f")),
		AcqEvents: cands(rk("M.C::f")),
	})
	r1 := solveOK(t, base, DefaultConfig())

	more := obsWith(
		window.Window{RelEvents: cands(wk("M.C::f")), AcqEvents: cands(rk("M.C::f"))},
		window.Window{Pair: window.PairID{First: 7, Second: 8},
			RelEvents: cands(wk("M.C::g")), AcqEvents: cands(rk("M.C::g"))},
	)
	r2 := solveOK(t, more, DefaultConfig())
	if r2.Objective < r1.Objective-1e-9 {
		t.Errorf("objective decreased with more observations: %v -> %v", r1.Objective, r2.Objective)
	}
}
