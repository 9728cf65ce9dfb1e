package sched

import (
	"reflect"
	"runtime/debug"
	"testing"

	"sherlock/internal/apps"
	"sherlock/internal/prog"
	"sherlock/internal/trace"
)

// builtinRun returns a built-in app's test and options that delay every
// true release, as a Perturber round does.
func builtinRun(t *testing.T, app, test string, seed int64) (*prog.Program, *prog.Test, Options) {
	t.Helper()
	p, err := apps.ByName(app)
	if err != nil {
		t.Fatal(err)
	}
	plan := map[trace.Key]int64{}
	for k, role := range p.Truth.Syncs {
		if role == trace.RoleRelease {
			plan[k] = 100_000
		}
	}
	for _, tt := range p.Tests {
		if tt.Name == test {
			return p, tt, Options{Seed: seed, Delays: plan, HiddenMethods: p.Truth.HiddenMethods}
		}
	}
	t.Fatalf("%s has no test %s", app, test)
	return nil, nil, Options{}
}

// TestRunAllocBound pins what one scheduler run allocates once the pools
// are warm: its Result, trace header and delays, and the per-run objects
// the program's statements create (frames, reader sets, wait closures).
// Resource and field state lives in the machine's ID-indexed tables, so
// it costs nothing per run; a table or thread struct rebuilt per run
// would add several. Easter_ManyReaders joins threads that have
// already finished, whose joins allocate nothing: building the wait
// closures before the thread blocks costs it 2 more allocations per run.
// Bounds are the measured counts, which are exact for a given Go release;
// GC is paused so the pools keep what the warm-up put in them.
func TestRunAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop pooled state at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, c := range []struct {
		test         string
		noPlan, plan float64
	}{
		{"Tests::GetOrAdd_Concurrent", 17, 24},
		{"Tests::Easter_ManyReaders", 16, 18},
	} {
		p, test, planned := builtinRun(t, "App-2", c.test, 1)
		unplanned := planned
		unplanned.Delays = nil
		for _, r := range []struct {
			name string
			opt  Options
			max  float64
		}{
			{"no plan", unplanned, c.noPlan},
			{"plan", planned, c.plan},
		} {
			run := func() {
				res, err := Run(p, test, r.opt)
				if err != nil {
					t.Fatal(err)
				}
				res.Recycle()
			}
			run() // warm the pools
			if allocs := testing.AllocsPerRun(100, run); allocs > r.max {
				t.Errorf("%s, %s: a run allocates %.1f times, want at most %.0f", c.test, r.name, allocs, r.max)
			}
		}
	}
}

// snapshot is everything a Result reports, detached from its buffers.
type snapshot struct {
	trace      []byte
	delays     []DelayInstance
	deadlocked bool
	steps      int
	virtual    int64
}

func snap(t *testing.T, res *Result) snapshot {
	t.Helper()
	return snapshot{traceOf(t, res), append([]DelayInstance(nil), res.Delays...),
		res.Deadlocked, res.Steps, res.VirtualDuration}
}

// TestPooledMachineLeavesNoState: a run on a machine and generator that
// another program's run has used (more threads, another distribution)
// reports exactly what the first run of it did, and recycling one run's
// result disturbs no other result.
func TestPooledMachineLeavesNoState(t *testing.T) {
	pa, ta, oa := builtinRun(t, "App-2", "Tests::GetOrAdd_Concurrent", 5)
	pb, tb, ob := builtinRun(t, "App-1", "TelemetryBufferTests::TwoProducers", 9)
	ob.StepDist = DistZipf

	run := func(p *prog.Program, test *prog.Test, opt Options) *Result {
		res, err := Run(p, test, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	resA := run(pa, ta, oa)
	first := snap(t, resA)
	if len(first.delays) == 0 {
		t.Fatal("run A injected no delay; the check proves nothing")
	}
	resB := run(pb, tb, ob)
	second := snap(t, resB)
	resA.Recycle()
	if got := snap(t, run(pa, ta, oa)); !reflect.DeepEqual(got, first) {
		t.Fatal("run A changed after a run of another program on the pooled machine")
	}
	if !reflect.DeepEqual(resA.Delays, first.delays) || resA.Steps != first.steps ||
		resA.VirtualDuration != first.virtual {
		t.Fatal("Recycle and later runs changed run A's delays or counters")
	}
	if got := snap(t, resB); !reflect.DeepEqual(got, second) {
		t.Fatal("recycling run A and running again changed run B's result")
	}
}

// TestReleasedMachineIsEmpty: a machine goes back to the pool holding
// nothing of its run: every map empty, no pointer into the program, the
// options, the generator or the Result, every ID-indexed table empty with
// its whole kept capacity zeroed, and every pooled thread struct zero
// apart from its emptied stack. Only scalars that newMachine overwrites
// and the key buffer's bytes survive. The check walks the struct's
// fields, so a field added later is held to it too.
func TestReleasedMachineIsEmpty(t *testing.T) {
	p, test, opt := builtinRun(t, "App-1", "TelemetryBufferTests::TwoProducers", 3)
	opt.StepDist = DistZipf
	// sync.Pool may drop a machine (it does at random under the race
	// detector), so retry until the run's machine comes back.
	for try := 0; ; try++ {
		if _, err := Run(p, test, opt); err != nil {
			t.Fatal(err)
		}
		m := machinePool.Get().(*machine)
		if cap(m.threads) == 0 {
			if try == 20 {
				t.Fatal("no run's machine came back from the pool")
			}
			continue
		}
		v := reflect.ValueOf(m).Elem()
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), v.Type().Field(i).Name
			switch {
			case name == "keyBuf" || name == "threads":
			case name == "names" || name == "cells" || name == "hidden":
				if f.Len() != 0 {
					t.Errorf("released machine's %s has length %d", name, f.Len())
				}
				if f.Cap() == 0 {
					t.Errorf("released machine's %s kept no capacity; the check proves nothing", name)
				}
				kept := f.Slice(0, f.Cap())
				for j := 0; j < kept.Len(); j++ {
					if !kept.Index(j).IsZero() {
						t.Errorf("released machine's %s keeps state at index %d of its capacity", name, j)
						break
					}
				}
			case f.Kind() == reflect.Map && f.Len() != 0:
				t.Errorf("released machine's %s holds %d entries", name, f.Len())
			case f.Kind() == reflect.Slice || f.Kind() == reflect.Pointer || f.Kind() == reflect.Struct:
				if !f.IsZero() {
					t.Errorf("released machine's %s is still set", name)
				}
			}
		}
		if len(m.threads) != 0 {
			t.Errorf("released machine lists %d threads", len(m.threads))
		}
		for _, th := range m.threads[:cap(m.threads)] {
			if th == nil {
				continue
			}
			for _, f := range th.stack[:cap(th.stack)] {
				if f != nil {
					t.Fatal("a pooled thread's stack still points at a frame")
				}
			}
			if !reflect.DeepEqual(*th, thread{stack: th.stack}) || len(th.stack) != 0 {
				t.Fatalf("a pooled thread kept state: %+v", *th)
			}
		}
		machinePool.Put(m)
		return
	}
}
