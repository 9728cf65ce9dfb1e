package window

import (
	"math/rand"
	"testing"

	"sherlock/internal/trace"
)

// capContentionTrace spreads conflicting accesses over many addresses that
// all collapse onto ONE static pair, so the shared PerPairCap budget binds
// and the address iteration order decides which conflicts are selected.
// Before FindConflicts sorted its address walk, this trace produced a
// different surviving set on (almost) every run.
func capContentionTrace() *trace.Trace {
	tr := &trace.Trace{App: "det", Test: "t"}
	for a := 1; a <= 30; a++ {
		base := int64(a * 1000)
		w := ev(base+10, 0, trace.KindWrite, "C::x", uint64(a))
		w.Site = 7
		r := ev(base+20, 1, trace.KindRead, "C::x", uint64(a))
		r.Site = 8
		tr.Events = append(tr.Events, w, r)
	}
	return tr
}

// sameConflict compares conflicts by their identifying event fields
// (trace.Event itself is not comparable).
func sameConflict(a, b Conflict) bool {
	id := func(e trace.Event) [4]int64 {
		return [4]int64{e.Time, int64(e.Thread), int64(e.Site), int64(e.Addr)}
	}
	return id(*a.A) == id(*b.A) && id(*a.B) == id(*b.B)
}

// TestFindConflictsDeterministic is the regression test for the
// nondeterministic byAddr map walk: 20 extractions of the same trace must
// select the identical conflict sequence, even with the cap binding.
func TestFindConflictsDeterministic(t *testing.T) {
	tr := capContentionTrace()
	cfg := DefaultConfig()
	cfg.PerPairCap = 5
	first := FindConflicts(tr, cfg)
	if len(first) != cfg.PerPairCap {
		t.Fatalf("cap must bind for this test: got %d conflicts, want %d", len(first), cfg.PerPairCap)
	}
	// With a sorted address walk, the lowest addresses win the budget.
	for i, c := range first {
		if c.A.Addr != uint64(i+1) {
			t.Fatalf("conflict %d at addr %d, want %d (sorted address order)", i, c.A.Addr, i+1)
		}
	}
	for run := 1; run < 20; run++ {
		cs := FindConflicts(tr, cfg)
		if len(cs) != len(first) {
			t.Fatalf("run %d: %d conflicts, first run had %d", run, len(cs), len(first))
		}
		for i := range cs {
			if !sameConflict(cs[i], first[i]) {
				t.Fatalf("run %d: conflict %d = %+v, first run had %+v", run, i, cs[i], first[i])
			}
		}
	}
}

// TestFindConflictsDeterministicRandomTrace repeats the check on a bigger
// randomized trace where many pairs contend for their caps.
func TestFindConflictsDeterministicRandomTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tr := &trace.Trace{App: "det", Test: "t"}
	tm := int64(0)
	for i := 0; i < 2000; i++ {
		tm += int64(1 + rng.Intn(20))
		acc := trace.AccRead
		kind := trace.KindRead
		if rng.Intn(2) == 0 {
			acc, kind = trace.AccWrite, trace.KindWrite
		}
		tr.Events = append(tr.Events, trace.Event{
			Time: tm, Thread: rng.Intn(4), Kind: kind,
			Name: "C::x", Addr: uint64(1 + rng.Intn(50)), Site: 1 + rng.Intn(6), Acc: acc,
		})
	}
	cfg := DefaultConfig()
	cfg.PerPairCap = 3
	first := FindConflicts(tr, cfg)
	if len(first) == 0 {
		t.Fatal("random trace produced no conflicts; test is vacuous")
	}
	for run := 1; run < 20; run++ {
		cs := FindConflicts(tr, cfg)
		if len(cs) != len(first) {
			t.Fatalf("run %d: %d conflicts, first run had %d", run, len(cs), len(first))
		}
		for i := range cs {
			if !sameConflict(cs[i], first[i]) {
				t.Fatalf("run %d: conflict %d differs", run, i)
			}
		}
	}
}

// TestObservationsClone checks Clone independence: mutating the clone (or
// the original) leaves the other's statistics and windows untouched.
func TestObservationsClone(t *testing.T) {
	o := NewObservations(DefaultConfig())
	o.AddWindows([]Window{{
		Pair:      PairID{First: 1, Second: 2},
		RelEvents: []CandEvent{{Key: trace.KeyFor(trace.KindWrite, "C::x"), Time: 1}},
		AcqEvents: []CandEvent{{Key: trace.KeyFor(trace.KindRead, "C::x"), Time: 2}},
	}})
	k := trace.KeyFor(trace.KindWrite, "C::x")
	c := o.Clone()
	if len(c.Windows) != 1 || c.AvgOccurrence(k) != o.AvgOccurrence(k) {
		t.Fatal("clone does not match original")
	}
	c.AddWindows([]Window{{
		Pair:      PairID{First: 3, Second: 4},
		RelEvents: []CandEvent{{Key: k, Time: 1}, {Key: k, Time: 2}},
		AcqEvents: []CandEvent{{Key: trace.KeyFor(trace.KindRead, "C::x"), Time: 3}},
	}})
	if len(o.Windows) != 1 {
		t.Fatalf("original grew with the clone: %d windows", len(o.Windows))
	}
	if o.AvgOccurrence(k) != 1 {
		t.Fatalf("original stats mutated by clone: avgOcc = %v", o.AvgOccurrence(k))
	}
	if c.AvgOccurrence(k) <= 1 {
		t.Fatalf("clone stats did not accumulate: avgOcc = %v", c.AvgOccurrence(k))
	}
}
