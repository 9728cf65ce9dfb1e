package solver

import (
	"errors"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
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

// TestEncoderCacheKeyOrder: over syncs that each bring keys sorting
// before, between and after the cached ones, the encoder's key list stays
// sorted with every position equal to its index, and every cached
// window's candidate lists hold exactly its distinct keys in key order,
// against a map-and-sort reference.
func TestEncoderCacheKeyOrder(t *testing.T) {
	cfg := window.DefaultConfig()
	obs := window.NewObservations(cfg)
	e := NewEncoder(DefaultConfig())
	batches := [][]window.Window{
		{{Pair: window.PairID{First: 1, Second: 2},
			RelEvents: cands(wk("C::m"), wk("C::b"), wk("C::m")), AcqEvents: cands(rk("C::m"))}},
		{{Pair: window.PairID{First: 3, Second: 4},
			RelEvents: cands(wk("C::z"), wk("C::a"), wk("C::m")), AcqEvents: cands(rk("C::c"), rk("C::a"), rk("C::c"))},
			{Pair: window.PairID{First: 5, Second: 6}, RelEvents: cands(wk("C::b"))}},
		{{Pair: window.PairID{First: 7, Second: 8},
			RelEvents: cands(wk("C::0"), wk("C::n"), wk("C::zz")), AcqEvents: cands(rk("C::b"), rk("C::m"))}},
	}
	sortedDistinct := func(evs []window.CandEvent) []trace.Key {
		set := map[trace.Key]bool{}
		for _, ev := range evs {
			set[ev.Key] = true
		}
		var out []trace.Key
		for k := range set {
			out = append(out, k)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	keysOf := func(ins []*keyInfo) []trace.Key {
		var out []trace.Key
		for _, in := range ins {
			out = append(out, in.key)
		}
		return out
	}
	for _, batch := range batches {
		obs.AddWindows(batch)
		e.sync(obs)
		for pos, in := range e.keys {
			if int(in.pos) != pos || (pos > 0 && e.keys[pos-1].key >= in.key) {
				t.Fatalf("keys out of order at %d: %v", pos, keysOf(e.keys))
			}
		}
		for wi := range obs.Windows {
			w := &obs.Windows[wi]
			if got, want := keysOf(e.winRel[wi]), sortedDistinct(w.RelEvents); !equalKeys(got, want) {
				t.Fatalf("window %d release candidates %v, want %v", wi, got, want)
			}
			if got, want := keysOf(e.winAcq[wi]), sortedDistinct(w.AcqEvents); !equalKeys(got, want) {
				t.Fatalf("window %d acquire candidates %v, want %v", wi, got, want)
			}
		}
	}
}

// TestIndexNamesConcurrent: encoders on many goroutines name index-named
// windows from the one process-wide table while it grows; every name
// must read as it would be built fresh. Run under -race.
func TestIndexNamesConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < 3000; i += 1 + g {
				got := indexNamesOf(i)
				id := "w" + strconv.Itoa(i)
				if got.mpRel != "mp_rel("+id+")" || got.mpAcq != "mp_acq("+id+")" {
					t.Errorf("window %d named %+v", i, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
