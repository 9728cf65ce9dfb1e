package window

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"sherlock/internal/apps"
	"sherlock/internal/gen"
	"sherlock/internal/prog"
	"sherlock/internal/sched"
	"sherlock/internal/trace"
)

// conflictConfigs spans the knobs FindConflicts reads: a cap that binds
// at once, a middling one and the paper's default, each with and without
// the unsafe-API list.
func conflictConfigs() []Config {
	var cfgs []Config
	for _, capN := range []int{1, 3, 15} {
		for _, unsafe := range []bool{true, false} {
			cfg := DefaultConfig()
			cfg.PerPairCap = capN
			cfg.UseUnsafeAPIs = unsafe
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// randomConflictTrace draws a time-ordered trace over a few addresses and
// threads, with repeated timestamps, library calls and a site pool small
// enough for the per-pair cap to bind.
func randomConflictTrace(rng *rand.Rand, n int) *trace.Trace {
	tr := &trace.Trace{App: "a", Test: "t"}
	tm := int64(0)
	nAddrs := 1 + rng.Intn(6)
	for i := 0; i < n; i++ {
		tm += int64(rng.Intn(400_000)) // 0 repeats the previous timestamp
		e := trace.Event{Time: tm, Thread: rng.Intn(4), Kind: trace.Kind(rng.Intn(4)),
			Name: fmt.Sprintf("C::m%d", rng.Intn(3)), Site: 1 + rng.Intn(12)}
		switch e.Kind {
		case trace.KindRead:
			e.Acc, e.Addr = trace.AccRead, uint64(1+rng.Intn(nAddrs))
		case trace.KindWrite:
			e.Acc, e.Addr = trace.AccWrite, uint64(1+rng.Intn(nAddrs))
		case trace.KindBegin:
			if rng.Intn(3) == 0 {
				e.Lib, e.Unsafe = true, true
				e.Acc = trace.AccRead + trace.Acc(rng.Intn(2))
				e.Addr = uint64(1 + rng.Intn(nAddrs))
			}
		}
		tr.Events = append(tr.Events, e)
	}
	return tr
}

// randomRunTrace draws a trace of long same-thread runs on one or two
// addresses: run lengths are geometric with a floor of 50, and a run
// often starts at its predecessor's last timestamp. Half the traces step
// time slowly enough that whole runs sit inside the default Near, half
// fast enough that a run spans more than Near (the cut-off lands inside
// runs). With outOfOrder a few events are swapped so times run backwards.
func randomRunTrace(rng *rand.Rand, n int, outOfOrder bool) *trace.Trace {
	tr := &trace.Trace{App: "runs", Test: "t"}
	tm := int64(0)
	nAddrs, nThreads := 1+rng.Intn(2), 2+rng.Intn(3)
	step := []int{2_000, 60_000}[rng.Intn(2)]
	thread := 0
	for len(tr.Events) < n {
		thread = (thread + 1 + rng.Intn(nThreads-1)) % nThreads
		runLen := 50
		for rng.Intn(40) != 0 {
			runLen++
		}
		for k := 0; k < runLen && len(tr.Events) < n; k++ {
			if k > 0 || rng.Intn(2) == 0 {
				tm += int64(rng.Intn(step))
			}
			e := trace.Event{Time: tm, Thread: thread, Kind: trace.KindRead, Name: "C::f",
				Addr: uint64(1 + rng.Intn(nAddrs)), Site: 1 + rng.Intn(8), Acc: trace.AccRead}
			switch rng.Intn(5) {
			case 0, 1:
				e.Kind, e.Acc = trace.KindWrite, trace.AccWrite
			case 2:
				e.Kind, e.Name, e.Lib, e.Unsafe = trace.KindBegin, "List::Add", true, true
				e.Acc = trace.AccRead + trace.Acc(rng.Intn(2))
			}
			tr.Events = append(tr.Events, e)
		}
	}
	if outOfOrder {
		for k := 0; k < 1+n/100; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			tr.Events[i], tr.Events[j] = tr.Events[j], tr.Events[i]
		}
	}
	return tr
}

// appTraces runs every test of p under two scheduler seeds.
func appTraces(t *testing.T, p *prog.Program) []*trace.Trace {
	t.Helper()
	var out []*trace.Trace
	for _, test := range p.Tests {
		for seed := int64(1); seed <= 2; seed++ {
			res, err := sched.Run(p, test, sched.Options{Seed: seed})
			if err != nil {
				t.Fatalf("%s/%s seed %d: %v", p.Name, test.Name, seed, err)
			}
			out = append(out, res.Trace)
		}
	}
	return out
}

// campaignTraces returns the traces of the 8 built-in apps and of
// gen:1..4 for every profile at sizes 4 and 16 — the campaign benchmark's
// program mix.
func campaignTraces(t *testing.T) []*trace.Trace {
	t.Helper()
	var trs []*trace.Trace
	for _, p := range apps.All() {
		trs = append(trs, appTraces(t, p)...)
	}
	for _, profile := range gen.Profiles {
		for _, size := range []int{4, 16} {
			for seed := 1; seed <= 4; seed++ {
				p, err := apps.ByName(fmt.Sprintf("gen:%d,profile=%s,size=%d", seed, profile, size))
				if err != nil {
					t.Fatal(err)
				}
				trs = append(trs, appTraces(t, p)...)
			}
		}
	}
	return trs
}

// TestFindConflictsMatchesReference pins the index-based FindConflicts to
// the by-value reference: the same conflicts in the same order, on random
// traces, on traces of long same-thread runs (the walk's run skip) and on
// every trace of the campaign program mix, under every cap and unsafe-API
// setting. The reference reads out-of-order traces stably time-sorted, as
// FindConflicts does.
func TestFindConflictsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var trs []*trace.Trace
	for i := 0; i < 100; i++ {
		trs = append(trs, randomConflictTrace(rng, 20+rng.Intn(200)))
	}
	for i := 0; i < 40; i++ {
		trs = append(trs, randomRunTrace(rng, 200+rng.Intn(1000), i%4 == 3))
	}
	trs = append(trs, campaignTraces(t)...)
	total := 0
	for _, cfg := range conflictConfigs() {
		for i, tr := range trs {
			got, want := FindConflicts(tr, cfg), findConflictsRef(stableTimeSorted(tr), cfg)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trace %d (%s/%s) cap %d unsafe %v: %d conflicts, reference %d",
					i, tr.App, tr.Test, cfg.PerPairCap, cfg.UseUnsafeAPIs, len(got), len(want))
			}
			total += len(got)
		}
	}
	if total == 0 {
		t.Fatal("no conflicts found at all: the comparison proves nothing")
	}
}

// TestFindConflictsWideSites: the per-pair budget must keep every site
// pair apart whatever ints an uploaded trace's sites are. Random traces
// get sites that agree in their low 32 bits, or differ only in sign, and
// must match the reference, whose budget is keyed by the sites
// themselves.
func TestFindConflictsWideSites(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	wide := []func(int) int{
		func(s int) int { return s },
		func(s int) int { return s + 1<<32 },
		func(s int) int { return -s },
		func(s int) int { return s | math.MinInt },
	}
	total := 0
	for i := 0; i < 60; i++ {
		tr := randomConflictTrace(rng, 50+rng.Intn(300))
		for k := range tr.Events {
			e := &tr.Events[k]
			e.Site = wide[e.Site%len(wide)](e.Site / len(wide))
		}
		for _, cfg := range conflictConfigs() {
			got, want := FindConflicts(tr, cfg), findConflictsRef(tr, cfg)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trace %d cap %d unsafe %v: %d conflicts, reference %d",
					i, cfg.PerPairCap, cfg.UseUnsafeAPIs, len(got), len(want))
			}
			total += len(got)
		}
	}
	if total == 0 {
		t.Fatal("no conflicts found at all: the comparison proves nothing")
	}
}

// stableTimeSorted returns a copy of tr with its events stably sorted by
// time.
func stableTimeSorted(tr *trace.Trace) *trace.Trace {
	c := *tr
	c.Events = slices.Clone(tr.Events)
	slices.SortStableFunc(c.Events, func(a, b trace.Event) int { return cmp.Compare(a.Time, b.Time) })
	return &c
}

// TestFindConflictsOutOfOrderTrace is the regression test for uploaded
// traces whose times run backwards: the pair must come out in time order,
// so its window holds the release candidate between the two accesses.
func TestFindConflictsOutOfOrderTrace(t *testing.T) {
	read := ev(300, 1, trace.KindRead, "C::x", 1)
	read.Site = 2
	write := ev(100, 0, trace.KindWrite, "C::x", 1)
	write.Site = 1
	rel := ev(200, 0, trace.KindWrite, "C::flag", 9)
	rel.Acc, rel.Addr = trace.AccNone, 0 // a candidate, not an access
	tr := mkTrace(read, write, rel)

	cs := FindConflicts(tr, DefaultConfig())
	if len(cs) != 1 {
		t.Fatalf("conflicts = %d, want 1", len(cs))
	}
	if got := (PairID{First: cs[0].A.Site, Second: cs[0].B.Site}); got != (PairID{First: 1, Second: 2}) {
		t.Fatalf("pair = %v, want {1 2} (write@100 before read@300)", got)
	}
	ws := BuildWindows(tr, cs)
	if len(ws[0].RelEvents) != 1 || ws[0].RelEvents[0].Key != trace.KeyFor(trace.KindWrite, "C::flag") {
		t.Fatalf("release candidates = %v, want the C::flag write", ws[0].RelEvents)
	}
}

// TestFindConflictsShuffledEqualsSorted: shuffling a trace's events must
// not change its conflicts — they equal those of the stable time-sorted
// shuffle, under every cap and unsafe-API setting.
func TestFindConflictsShuffledEqualsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		tr := randomConflictTrace(rng, 10+rng.Intn(120))
		rng.Shuffle(len(tr.Events), func(i, j int) { tr.Events[i], tr.Events[j] = tr.Events[j], tr.Events[i] })
		sorted := stableTimeSorted(tr)
		for _, cfg := range conflictConfigs() {
			got, want := FindConflicts(tr, cfg), FindConflicts(sorted, cfg)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d cap %d unsafe %v: shuffled trace gives %d conflicts, sorted %d",
					trial, cfg.PerPairCap, cfg.UseUnsafeAPIs, len(got), len(want))
			}
		}
	}
}

// fuzzTrace decodes fuzz bytes into a config and an event list. The
// first two bytes pick PerPairCap (1..16), Near and the unsafe-API
// switch; every further 4 bytes make one event whose time moves by a
// signed delta, so times can repeat or run backwards.
func fuzzTrace(data []byte) (*trace.Trace, Config) {
	cfg := DefaultConfig()
	if len(data) >= 2 {
		cfg.PerPairCap = 1 + int(data[0]%16)
		cfg.Near = int64(data[1]&0x7f) * 4
		cfg.UseUnsafeAPIs = data[1]&0x80 == 0
		data = data[2:]
	}
	tr := &trace.Trace{App: "fuzz", Test: "t"}
	tm := int64(0)
	for ; len(data) >= 4; data = data[4:] {
		tm += int64(int8(data[0]))
		e := trace.Event{Time: tm, Thread: int(data[1] % 4), Kind: trace.Kind(data[2] % 4),
			Name: "C::f", Addr: uint64(data[1] >> 2 % 4), Site: int(data[3] % 8)}
		switch {
		case e.Kind == trace.KindRead:
			e.Acc = trace.AccRead
		case e.Kind == trace.KindWrite:
			e.Acc = trace.AccWrite
		case data[2]&0x10 != 0:
			e.Lib, e.Unsafe = true, true
			e.Acc = trace.AccRead + trace.Acc(data[2]>>5&1)
		}
		tr.Events = append(tr.Events, e)
	}
	return tr, cfg
}

// runSeed encodes, in fuzzTrace's format, four same-thread runs of 60
// accesses on two addresses, Near 160: each run spans about 300 time
// units, every run starts at its predecessor's last timestamp, and one
// step runs backwards.
func runSeed() []byte {
	rng := rand.New(rand.NewSource(19))
	data := []byte{3, 40}
	for run := 0; run < 4; run++ {
		for k := 0; k < 60; k++ {
			delta := int8(rng.Intn(10))
			switch {
			case k == 0:
				delta = 0
			case run == 2 && k == 30:
				delta = -40
			}
			addr := byte(1 + rng.Intn(2))
			data = append(data, byte(delta), byte(run%3)|addr<<2, byte(rng.Intn(2)), byte(rng.Intn(8)))
		}
	}
	return data
}

// FuzzFindConflicts checks FindConflicts' contract on arbitrary, possibly
// out-of-order traces: every pair is time-ordered, within Near, on one
// address, cross-thread, with a write, and under the per-pair cap; the
// result equals that of the trace stably sorted by time; and on
// time-ordered input it equals the by-value reference.
func FuzzFindConflicts(f *testing.F) {
	f.Add([]byte{2, 40, 10, 1, 1, 1, 10, 5, 0, 2, 0, 0, 1, 3})
	f.Add([]byte{0, 0xff, 0xf0, 1, 1, 1, 0x20, 6, 0, 2, 0, 1, 0x12, 4})
	f.Add([]byte{14, 100, 5, 4, 1, 0, 5, 9, 0, 1, 0x80, 4, 1, 2, 0, 1, 0, 3})
	f.Add(runSeed())
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, cfg := fuzzTrace(data)
		cs := FindConflicts(tr, cfg)
		perPair := map[PairID]int{}
		for _, c := range cs {
			a, b := c.A, c.B
			switch {
			case a.Time > b.Time:
				t.Fatalf("pair out of time order: %d after %d", a.Time, b.Time)
			case b.Time-a.Time > cfg.Near:
				t.Fatalf("pair %d..%d farther apart than Near %d", a.Time, b.Time, cfg.Near)
			case a.Addr != b.Addr || !a.ConflictEligible() || !b.ConflictEligible():
				t.Fatalf("pair is not two accesses to one address: %v / %v", a, b)
			case a.Thread == b.Thread:
				t.Fatalf("same-thread pair on thread %d", a.Thread)
			case a.Acc != trace.AccWrite && b.Acc != trace.AccWrite:
				t.Fatal("pair without a write")
			case !cfg.UseUnsafeAPIs && (a.Lib || b.Lib):
				t.Fatal("library access paired with the unsafe-API list off")
			}
			pid := PairID{First: a.Site, Second: b.Site}
			if perPair[pid]++; perPair[pid] > cfg.PerPairCap {
				t.Fatalf("pair %v over cap %d", pid, cfg.PerPairCap)
			}
		}
		sorted := stableTimeSorted(tr)
		sortedCs := FindConflicts(sorted, cfg)
		if !reflect.DeepEqual(cs, sortedCs) {
			t.Fatal("conflicts differ from the stable time-sorted trace's")
		}
		if !reflect.DeepEqual(sortedCs, findConflictsRef(sorted, cfg)) {
			t.Fatal("time-ordered trace: conflicts differ from the reference")
		}
	})
}
