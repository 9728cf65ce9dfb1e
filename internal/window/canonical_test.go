package window

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"sherlock/internal/trace"
)

// uidWindow builds a window carrying a checkpoint-style UID
// "<trace>:<ordinal>". racy windows have a lone read on the release side.
func uidWindow(traceKey string, ord int, pair PairID, racy bool) Window {
	relKind := "write"
	if racy {
		relKind = "read"
	}
	return Window{
		App: "a", Test: "t", Pair: pair, UID: fmt.Sprintf("%s:%d", traceKey, ord),
		ThreadA: 0, ThreadB: 1, TA: int64(ord * 100), TB: int64(ord*100 + 50),
		RelEvents: []CandEvent{{Key: trace.Key(fmt.Sprintf("%s:C::f%d", relKind, ord%3)), Time: int64(ord*100 + 10)}},
		AcqEvents: []CandEvent{{Key: trace.Key(fmt.Sprintf("read:C::g%d", ord%2)), Time: int64(ord*100 + 20)}},
	}
}

// stateOf snapshots every externally observable piece of accumulator state.
func stateOf(o *Observations) map[string]any {
	uids := make([]string, len(o.Windows))
	for i := range o.Windows {
		uids[i] = o.Windows[i].UID
	}
	occ := map[trace.Key][2]float64{}
	for id, k := range o.keys {
		if o.winCnt[id] != 0 {
			occ[k] = [2]float64{float64(o.occSum[id]), float64(o.winCnt[id])}
		}
	}
	racy := map[PairID]bool{}
	for p := range o.RacyPairs {
		racy[p] = true
	}
	pp := map[PairID]int{}
	for p, n := range o.perPair {
		if n != 0 {
			pp[p] = n
		}
	}
	return map[string]any{"uids": uids, "occ": occ, "racy": racy, "perpair": pp}
}

// TestCanonicalAdmissionOrderIndependent: feeding the same window set in
// any order through AddWindowsCanonical must land on the identical state a
// sequential AddWindows over canonical (sorted-UID) order produces — with
// more windows than the per-pair cap so eviction paths run, and with racy
// windows so RacyPairs recomputation runs.
func TestCanonicalAdmissionOrderIndependent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PerPairCap = 3

	// Three "traces"; ordinals up to 12 so the lone pair overflows the cap
	// 4x over. Trace keys chosen so plain string order of "t10:..." vs
	// "t2:..." would NOT matter, but ordinals 2 vs 10 within a trace would
	// mis-sort under plain string compare — exercising numeric UID order.
	pair := PairID{First: 1, Second: 2}
	other := PairID{First: 3, Second: 4}
	var all []Window
	for _, tk := range []string{"ta", "tb", "tc"} {
		for ord := 0; ord < 12; ord++ {
			all = append(all, uidWindow(tk, ord, pair, ord == 11))
		}
		all = append(all, uidWindow(tk, 12, other, false))
	}

	// Reference: sequential first-come admission over canonical order.
	sorted := append([]Window(nil), all...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && canonicalUIDLess(sorted[j].UID, sorted[j-1].UID); j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	ref := NewObservations(cfg)
	ref.AddWindows(sorted)
	want := stateOf(ref)

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		shuffled := append([]Window(nil), all...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		o := NewObservations(cfg)
		// Deliver in two batches to exercise repeated folding.
		cut := rng.Intn(len(shuffled))
		o.AddWindowsCanonical(shuffled[:cut])
		o.AddWindowsCanonical(shuffled[cut:])
		if got := stateOf(o); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: canonical state diverged\n got: %v\nwant: %v", trial, got, want)
		}
	}

	// Canonical admission over already-sorted input must equal AddWindows
	// bit for bit too (the fast path a full sorted replay takes).
	inOrder := NewObservations(cfg)
	inOrder.AddWindowsCanonical(sorted)
	if got := stateOf(inOrder); !reflect.DeepEqual(got, want) {
		t.Fatalf("in-order canonical state differs from AddWindows:\n got: %v\nwant: %v", got, want)
	}
}

// TestCanonicalUIDOrder pins the numeric-ordinal compare: ordinal 10 sorts
// after ordinal 2, and malformed UIDs fall back to string order.
func TestCanonicalUIDOrder(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"k:2", "k:10", true},
		{"k:10", "k:2", false},
		{"a:9", "b:1", true},
		{"k:1", "k:1", false},
		{"plain", "k:1", true}, // malformed → string order ("plain" > "k:1" is false... )
	}
	// Recompute the last case honestly: "plain" vs "k:1" under string order.
	cases[4].want = "plain" < "k:1"
	for _, c := range cases {
		if got := canonicalUIDLess(c.a, c.b); got != c.want {
			t.Errorf("canonicalUIDLess(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}
