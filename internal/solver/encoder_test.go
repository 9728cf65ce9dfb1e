package solver

import (
	"errors"
	"math"
	"sort"
	"strings"
	"testing"

	"sherlock/internal/lp"
	"sherlock/internal/trace"
	"sherlock/internal/window"
)

// growRound appends a batch of windows to o, the way a Perturber round
// does. Round r introduces one new field key and reuses earlier ones, so
// successive problems share most of their structure.
func growRound(o *window.Observations, r int) {
	f := func(i int) string { return "C::f" + string(rune('a'+i%8)) }
	var ws []window.Window
	for i := 0; i < 3; i++ {
		ws = append(ws, window.Window{
			Pair:      window.PairID{First: 100*r + 2*i + 1, Second: 100*r + 2*i + 2},
			RelEvents: cands(wk(f(r+i)), bk("C::m"+string(rune('a'+r%4)))),
			AcqEvents: cands(rk(f(r+i)), rk(f(i))),
		})
	}
	o.AddWindows(ws)
}

// TestEncoderMatchesOneShot grows an accumulator over several rounds and
// checks, each round, that the persistent warm-starting Encoder and a fresh
// one-shot Solve agree exactly: same sync sets, same probabilities, and
// objectives within 1e-6.
func TestEncoderMatchesOneShot(t *testing.T) {
	cfg := DefaultConfig()
	o := window.NewObservations(window.DefaultConfig())
	enc := NewEncoder(cfg)
	var basis *lp.Basis
	warmRounds := 0
	for r := 0; r < 6; r++ {
		growRound(o, r)
		inc, b, err := enc.Solve(o, basis)
		if err != nil {
			t.Fatalf("round %d: encoder solve: %v", r, err)
		}
		basis = b
		fresh := solveOK(t, o, cfg)
		if inc.WarmStarted {
			warmRounds++
		}
		if math.Abs(inc.Objective-fresh.Objective) > 1e-6 {
			t.Fatalf("round %d: encoder obj %v, fresh obj %v", r, inc.Objective, fresh.Objective)
		}
		assertSameSets(t, r, inc, fresh)
		for k, p := range fresh.Acquires {
			if math.Abs(inc.Acquires[k]-p) > 1e-6 {
				t.Fatalf("round %d: acquire prob for %s: encoder %v, fresh %v", r, k, inc.Acquires[k], p)
			}
		}
		for k, p := range fresh.Releases {
			if math.Abs(inc.Releases[k]-p) > 1e-6 {
				t.Fatalf("round %d: release prob for %s: encoder %v, fresh %v", r, k, inc.Releases[k], p)
			}
		}
	}
	if warmRounds == 0 {
		t.Fatal("warm start never engaged across 6 growing rounds")
	}
}

func assertSameSets(t *testing.T, round int, a, b *Result) {
	t.Helper()
	if !equalKeys(a.AcquireSet, b.AcquireSet) {
		t.Fatalf("round %d: acquire sets differ: %v vs %v", round, a.AcquireSet, b.AcquireSet)
	}
	if !equalKeys(a.ReleaseSet, b.ReleaseSet) {
		t.Fatalf("round %d: release sets differ: %v vs %v", round, a.ReleaseSet, b.ReleaseSet)
	}
}

func equalKeys(a, b []trace.Key) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestEncoderRetiresRacyRows marks a pair racy between rounds and checks
// the Encoder still matches the one-shot path (rows retired at emit time).
func TestEncoderRetiresRacyRows(t *testing.T) {
	cfg := DefaultConfig()
	cfg.KeepRacyWindows = false
	o := window.NewObservations(window.DefaultConfig())
	enc := NewEncoder(cfg)
	o.AddWindows([]window.Window{{
		Pair:      window.PairID{First: 1, Second: 2},
		RelEvents: cands(wk("C::x"), bk("C::m")),
		AcqEvents: cands(rk("C::x")),
	}})
	first, basis, err := enc.Solve(o, nil)
	if err != nil {
		t.Fatalf("round 1: %v", err)
	}
	// Round 2: the same pair produces a racy (all-read release side)
	// window, retiring both of its accumulated MP row groups.
	o.AddWindows([]window.Window{{
		Pair:      window.PairID{First: 1, Second: 2},
		RelEvents: cands(rk("C::y")),
		AcqEvents: cands(rk("C::x")),
	}, {
		Pair:      window.PairID{First: 3, Second: 4},
		RelEvents: cands(wk("C::z")),
		AcqEvents: cands(rk("C::z")),
	}})
	inc, _, err := enc.Solve(o, basis)
	if err != nil {
		t.Fatalf("round 2: %v", err)
	}
	fresh := solveOK(t, o, cfg)
	assertSameSets(t, 2, inc, fresh)
	if math.Abs(inc.Objective-fresh.Objective) > 1e-6 {
		t.Fatalf("round 2: encoder obj %v, fresh obj %v", inc.Objective, fresh.Objective)
	}
	_ = first
}

// TestEncoderDetectsReset swaps in a brand-new accumulator (the engine's
// no-accumulation mode) and checks the cache rebuilds instead of mixing
// stale windows in.
func TestEncoderDetectsReset(t *testing.T) {
	cfg := DefaultConfig()
	enc := NewEncoder(cfg)
	o1 := obsWith(window.Window{
		RelEvents: cands(wk("C::a")),
		AcqEvents: cands(rk("C::a")),
	})
	if _, _, err := enc.Solve(o1, nil); err != nil {
		t.Fatal(err)
	}
	o2 := obsWith(window.Window{
		RelEvents: cands(wk("C::b")),
		AcqEvents: cands(rk("C::b")),
	})
	inc, _, err := enc.Solve(o2, nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh := solveOK(t, o2, cfg)
	assertSameSets(t, 0, inc, fresh)
	if _, stale := inc.Releases[wk("C::a")]; stale {
		t.Fatal("stale key from previous accumulator leaked into reset encoder")
	}
}

// TestIterationLimitSurfaced checks that a too-small pivot budget is
// reported as a wrapped lp.ErrIterationLimit carrying the problem
// dimensions, not returned as a silent suboptimal vertex.
func TestIterationLimitSurfaced(t *testing.T) {
	o := window.NewObservations(window.DefaultConfig())
	for r := 0; r < 4; r++ {
		growRound(o, r)
	}
	cfg := DefaultConfig()
	cfg.MaxLPIters = 1
	_, err := Solve(o, cfg)
	if err == nil {
		t.Fatal("expected iteration-limit error, got nil")
	}
	if !errors.Is(err, lp.ErrIterationLimit) {
		t.Fatalf("error does not wrap lp.ErrIterationLimit: %v", err)
	}
	if !errors.Is(err, lp.ErrNotOptimal) {
		t.Fatalf("error does not wrap lp.ErrNotOptimal: %v", err)
	}
	if !strings.Contains(err.Error(), "vars") || !strings.Contains(err.Error(), "constraints") {
		t.Fatalf("error lacks problem-size context: %v", err)
	}
}

// TestSortedUniqueKeys pins the map-free dedup helper against the obvious
// map-based reference, on a fresh scratch slice and on one a longer call
// left dirty.
func TestSortedUniqueKeys(t *testing.T) {
	e := NewEncoder(DefaultConfig())
	for _, evs := range [][]window.CandEvent{
		cands(wk("C::b"), wk("C::a"), wk("C::b"), rk("C::a"), wk("C::a")),
		cands(wk("C::d"), wk("C::c")),
	} {
		got := e.sortedUniqueKeys(evs)
		ref := map[trace.Key]bool{}
		for _, e := range evs {
			ref[e.Key] = true
		}
		want := make([]trace.Key, 0, len(ref))
		for k := range ref {
			want = append(want, k)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if !equalKeys(got, want) {
			t.Fatalf("sortedUniqueKeys = %v, want %v", got, want)
		}
	}
	if e.sortedUniqueKeys(nil) != nil {
		t.Fatal("empty input must return nil")
	}
}
