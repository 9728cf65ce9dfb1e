package window

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"sherlock/internal/trace"
)

// fuzzKeys is the key alphabet of FuzzObservationsKeyTable: few enough
// that windows share keys, of every kind so racy windows occur.
var fuzzKeys = func() []trace.Key {
	var ks []trace.Key
	for _, name := range []string{"C::f", "C::g"} {
		for k := trace.KindRead; k <= trace.KindEnd; k++ {
			ks = append(ks, trace.KeyFor(k, name))
		}
	}
	return ks
}()

// tableState is what the key table reports: per key its (occurrence sum,
// window count) when it is in an admitted window, and per admitted
// window its UID and its distinct release and acquire candidates.
type tableState struct {
	occ   map[trace.Key][2]int
	uids  []string
	cands [][2][]trace.Key
}

// stateOfTable reads an accumulator's key table by key string.
func stateOfTable(o *Observations) tableState {
	st := tableState{occ: map[trace.Key][2]int{}}
	for id, k := range o.keys {
		if o.winCnt[id] != 0 || o.occSum[id] != 0 {
			st.occ[k] = [2]int{o.occSum[id], o.winCnt[id]}
		}
	}
	for i := range o.Windows {
		st.uids = append(st.uids, o.Windows[i].UID)
		rel, acq := o.Candidates(i)
		var c [2][]trace.Key
		for side, ids := range [2][]KeyID{rel, acq} {
			for _, id := range ids {
				c[side] = append(c[side], o.Key(id))
			}
		}
		st.cands = append(st.cands, c)
	}
	return st
}

// referenceState derives the same state from a list of admitted windows
// with maps, the way the accumulator kept it before the key table.
func referenceState(ws []Window) tableState {
	st := tableState{occ: map[trace.Key][2]int{}}
	for i := range ws {
		st.uids = append(st.uids, ws[i].UID)
		var c [2][]trace.Key
		for side, evs := range [2][]CandEvent{ws[i].RelEvents, ws[i].AcqEvents} {
			n := map[trace.Key]int{}
			for _, e := range evs {
				if n[e.Key] == 0 {
					c[side] = append(c[side], e.Key)
				}
				n[e.Key]++
			}
			for k, m := range n {
				v := st.occ[k]
				st.occ[k] = [2]int{v[0] + m, v[1] + 1}
			}
		}
		st.cands = append(st.cands, c)
	}
	return st
}

// admitted is the reference admission: the first PerPairCap windows of
// each pair in offer order (canonical order for canonical admission).
func admitted(offered []Window, cap int, canonical bool) []Window {
	ws := append([]Window(nil), offered...)
	if canonical {
		sort.SliceStable(ws, func(i, j int) bool { return canonicalUIDLess(ws[i].UID, ws[j].UID) })
	}
	perPair := map[PairID]int{}
	var out []Window
	for _, w := range ws {
		if perPair[w.Pair] < cap {
			perPair[w.Pair]++
			out = append(out, w)
		}
	}
	return out
}

// fuzzBatches decodes fuzz bytes into batches of windows over fuzzKeys,
// with unique UIDs (a fuzzed trace prefix and a running ordinal) and
// three pairs, and the batch after which to take snapshots.
func fuzzBatches(data []byte) (batches [][]Window, snapAt int) {
	snapAt = -1
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	ord := 0
	for len(data) > 0 && len(batches) < 32 {
		op := next()
		if op%8 == 7 && snapAt < 0 {
			snapAt = len(batches)
			continue
		}
		var batch []Window
		for n := int(op%4) + 1; n > 0; n-- {
			shape := next()
			w := Window{
				App: "a", Test: "t",
				Pair: PairID{First: int(shape % 3), Second: 9},
				UID:  fmt.Sprintf("t%d:%d", shape>>6, ord),
			}
			ord++
			for i, sz := 0, int(shape>>2)%4; i < sz; i++ {
				w.RelEvents = append(w.RelEvents, CandEvent{Key: fuzzKeys[int(next())%len(fuzzKeys)]})
			}
			for i, sz := 0, int(shape>>4)%4; i < sz; i++ {
				w.AcqEvents = append(w.AcqEvents, CandEvent{Key: fuzzKeys[int(next())%len(fuzzKeys)]})
			}
			batch = append(batch, w)
		}
		batches = append(batches, batch)
	}
	return batches, snapAt
}

// FuzzObservationsKeyTable plays random AddWindows sequences, or
// AddWindowsCanonical sequences whose late canonically-earlier windows
// evict admitted ones, against map-based references: the admitted
// windows, each key's occurrence sum and window count, and each
// window's distinct candidates. At a fuzzed point it takes two clones,
// and a shell copy of one (as the solver benchmarks replay snapshots),
// then keeps adding to the source and to the other clone: each must
// match its own reference, and the untouched clone and the shell must
// still read as they did when taken.
func FuzzObservationsKeyTable(f *testing.F) {
	f.Add([]byte{0, 3, 0x5d, 1, 2, 3, 0x31, 4, 5, 7, 2, 0x7e, 0, 1, 2, 3, 4, 5})
	f.Add([]byte{1, 3, 0x5d, 1, 2, 3, 0x31, 4, 5, 7, 3, 0x3e, 0, 1, 2, 3, 4, 5, 0xc1, 6, 0x02, 0x41})
	// A clone that wrote into its source's spare arena capacity would
	// corrupt the source's later windows on this input.
	f.Add([]byte("0000010a0117020000017100000001110"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		canonical := data[0]&1 == 1
		batches, snapAt := fuzzBatches(data[1:])
		cfg := DefaultConfig()
		cfg.PerPairCap = 3
		add := func(o *Observations, ws []Window) {
			if canonical {
				o.AddWindowsCanonical(ws)
			} else {
				o.AddWindows(ws)
			}
		}
		check := func(what string, o *Observations, offered []Window) {
			t.Helper()
			want := referenceState(admitted(offered, cfg.PerPairCap, canonical))
			if got := stateOfTable(o); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: key table\n got %+v\nwant %+v", what, got, want)
			}
		}
		o := NewObservations(cfg)
		var offered []Window
		var still *Observations // a clone left untouched
		var shell Observations  // a shell copy of it
		var stillWant tableState
		var other *Observations // a clone that keeps growing on its own
		var otherOffered []Window
		for i, batch := range batches {
			if i == snapAt {
				still, other = o.Clone(), o.Clone()
				shell = *still
				stillWant = stateOfTable(still)
				otherOffered = append([]Window(nil), offered...)
			}
			add(o, batch)
			offered = append(offered, batch...)
			check(fmt.Sprintf("source after batch %d", i), o, offered)
			if other != nil {
				// The clone gets the batch reversed under other UIDs, so its
				// admissions and evictions differ from the source's.
				rev := append([]Window(nil), batch...)
				for l, r := 0, len(rev)-1; l < r; l, r = l+1, r-1 {
					rev[l], rev[r] = rev[r], rev[l]
				}
				for k := range rev {
					rev[k].UID = "u" + rev[k].UID[1:]
				}
				add(other, rev)
				otherOffered = append(otherOffered, rev...)
				check(fmt.Sprintf("clone after batch %d", i), other, otherOffered)
			}
		}
		if still != nil {
			if got := stateOfTable(still); !reflect.DeepEqual(got, stillWant) {
				t.Fatalf("an untouched clone changed:\n got %+v\nwant %+v", got, stillWant)
			}
			if got := stateOfTable(&shell); !reflect.DeepEqual(got, stillWant) {
				t.Fatalf("a shell copy of a clone changed:\n got %+v\nwant %+v", got, stillWant)
			}
		}
	})
}
