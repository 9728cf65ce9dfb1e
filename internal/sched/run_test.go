package sched

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"sherlock/internal/apps"
	"sherlock/internal/gen"
	"sherlock/internal/prog"
	"sherlock/internal/trace"
)

// TestStepSeenStatementAllocFree pins the step loop's key handling: once
// a statement or a method exit has run in a run, stepping it again
// allocates nothing, with no delay plan and with one that misses it.
// Tracing is off so the only possible allocations are the step's own.
// The names are longer than the 32 bytes a non-escaping string
// concatenation may build on the stack, so a key rendered per step would
// show.
func TestStepSeenStatementAllocFree(t *testing.T) {
	const field = "Microsoft.ApplicationInsights.Channel.InMemoryTransmitter::flushFlag"
	const method = "Microsoft.ApplicationInsights.Channel.InMemoryTransmitter::Flush"
	p := prog.New("alloc", "Alloc")
	p.AddMethod(method, prog.Rd(field, "o"))
	p.AddTest("T", prog.Rd(field, "o"))
	p.MustFinalize()
	plan := map[trace.Key]int64{}
	for i := 0; i < 12; i++ {
		plan[prog.WK(fmt.Sprintf("C::other%d", i))] = 100
	}
	plans := map[string]Options{
		"no plan": {DisableTracing: true},
		"plan":    {DisableTracing: true, Delays: plan},
	}
	for name, opt := range plans {
		m := newMachine(p, p.Tests[0], opt, rand.New(rand.NewSource(1)))
		th := m.newThread(0)
		body := &frame{stmts: p.Tests[0].Body}
		th.stack = []*frame{body}
		m.step(th) // first instance: resolves the object, address and keys
		if allocs := testing.AllocsPerRun(1000, func() {
			body.pc = 0
			m.step(th)
		}); allocs != 0 {
			t.Errorf("%s: stepping a seen Read allocates %.1f times, want 0", name, allocs)
		}

		exit := &frame{stmts: p.Methods[method].Body, method: p.Methods[method]}
		step := func() {
			exit.pc = len(exit.stmts)
			th.stack = append(th.stack[:1], exit)
			m.step(th)
		}
		step()
		if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
			t.Errorf("%s: a seen method exit allocates %.1f times, want 0", name, allocs)
		}
	}
}

// TestPooledRNGLeavesNoState: generators are recycled between runs, so a
// run in between — another seed, the zipf distribution — must not change
// the trace a seed produces, byte for byte.
func TestPooledRNGLeavesNoState(t *testing.T) {
	p := genProgram(4)
	a := traceBytes(t, p, Options{Seed: 7})
	b := traceBytes(t, p, Options{Seed: 8, StepDist: DistZipf})
	if bytes.Equal(a, b) {
		t.Fatal("different seeds and distributions gave one trace; the check proves nothing")
	}
	if again := traceBytes(t, p, Options{Seed: 7}); !bytes.Equal(a, again) {
		t.Fatal("seed 7 gave a different trace after a zipf run of seed 8")
	}
}

// TestRecycledBufferDoesNotChangeTrace: event buffers are recycled between
// runs, so a short run on the buffer the longest built-in run left behind
// must produce the trace a fresh buffer does, byte for byte. No other test
// of this package recycles, so the first run of the short test below
// draws a fresh buffer.
func TestRecycledBufferDoesNotChangeTrace(t *testing.T) {
	var long, short *prog.Test
	var longP, shortP *prog.Program
	longN, shortN := -1, -1
	for _, p := range apps.All() {
		for _, test := range p.Tests {
			res, err := Run(p, test, Options{Seed: 3, HiddenMethods: p.Truth.HiddenMethods})
			if err != nil {
				t.Fatal(err)
			}
			if n := res.Trace.Len(); n > longN {
				long, longP, longN = test, p, n
			}
			if n := res.Trace.Len(); shortN < 0 || n < shortN {
				short, shortP, shortN = test, p, n
			}
		}
	}
	if shortN >= longN {
		t.Fatalf("shortest run has %d events, longest %d: the check proves nothing", shortN, longN)
	}
	want := runBytes(t, shortP, short, Options{Seed: 3})

	// sync.Pool may drop a buffer (it does at random under the race
	// detector), so retry until a short run is seen on the long run's
	// buffer.
	reused := false
	for try := 0; try < 20 && !reused; try++ {
		res, err := Run(longP, long, Options{Seed: 3, HiddenMethods: longP.Truth.HiddenMethods})
		if err != nil {
			t.Fatal(err)
		}
		res.Recycle()
		if res.Trace.Events != nil {
			t.Fatal("Recycle left Trace.Events set")
		}
		res.Recycle() // a second call is a no-op
		again, err := Run(shortP, short, Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		reused = cap(again.Trace.Events) >= longN
		if got := traceOf(t, again); !bytes.Equal(got, want) {
			t.Fatalf("try %d: the short run's trace changed after a recycled long run", try)
		}
	}
	if !reused {
		t.Fatal("no short run drew the long run's recycled buffer")
	}

	res, err := Run(shortP, short, Options{Seed: 3, DisableTracing: true})
	if err != nil {
		t.Fatal(err)
	}
	steps := res.Steps
	res.Recycle()
	if res.Trace == nil || res.Trace.Events != nil || res.Steps != steps {
		t.Fatal("Recycle of an untraced run changed its result")
	}
}

// traceBytes runs p's first test under opt and returns its serialized
// trace.
func traceBytes(t *testing.T, p *prog.Program, opt Options) []byte {
	t.Helper()
	return runBytes(t, p, p.Tests[0], opt)
}

// runBytes runs test under opt and returns its serialized trace.
func runBytes(t *testing.T, p *prog.Program, test *prog.Test, opt Options) []byte {
	t.Helper()
	res, err := Run(p, test, opt)
	if err != nil {
		t.Fatal(err)
	}
	return traceOf(t, res)
}

// traceOf serializes a run's trace.
func traceOf(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.Trace.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkRun executes every test of the eight built-in apps once per
// op, without a delay plan (a campaign's first round) and with every true
// release delayed (what the Perturber's later rounds look like). Each
// result is recycled, as the inference engine does.
func BenchmarkRun(b *testing.B) {
	type job struct {
		p    *prog.Program
		t    *prog.Test
		plan map[trace.Key]int64
	}
	var jobs []job
	for _, p := range apps.All() {
		plan := map[trace.Key]int64{}
		for k, role := range p.Truth.Syncs {
			if role == trace.RoleRelease {
				plan[k] = 100_000
			}
		}
		for _, t := range p.Tests {
			jobs = append(jobs, job{p, t, plan})
		}
	}
	for _, planned := range []bool{false, true} {
		name := "noplan"
		if planned {
			name = "plan"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, j := range jobs {
					opt := Options{Seed: 1, HiddenMethods: j.p.Truth.HiddenMethods}
					if planned {
						opt.Delays = j.plan
					}
					res, err := Run(j.p, j.t, opt)
					if err != nil {
						b.Fatal(err)
					}
					res.Recycle()
				}
			}
		})
	}
}

// TestNameIDsNameEveryEvent: a run reports, aligned with its events after
// the time sort, each event's name ID in the program's event-name table,
// over every built-in and generated app of the campaign mix with a delay
// plan (so the sort moves events) and the apps' hidden methods; Recycle
// drops the IDs with the events.
func TestNameIDsNameEveryEvent(t *testing.T) {
	names := apps.Names()
	for _, profile := range gen.Profiles {
		for _, size := range []int{4, 16} {
			for k := 1; k <= 4; k++ {
				names = append(names, gen.Spec{Seed: int64(k), Profile: profile, Size: size}.Name())
			}
		}
	}
	events := 0
	for _, name := range names {
		p, err := apps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		plan := map[trace.Key]int64{}
		for k, role := range p.Truth.Syncs {
			if role == trace.RoleRelease {
				plan[k] = 100_000
			}
		}
		table := p.EventNames()
		for _, test := range p.Tests {
			res, err := Run(p, test, Options{Seed: 1, Delays: plan, HiddenMethods: p.Truth.HiddenMethods})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.NameIDs) != res.Trace.Len() {
				t.Fatalf("%s/%s: %d name IDs for %d events", name, test.Name, len(res.NameIDs), res.Trace.Len())
			}
			for i, id := range res.NameIDs {
				if id <= 0 || int(id) > table.Len() || table.Name(id) != res.Trace.Events[i].Name {
					t.Fatalf("%s/%s: event %d (%s) has name ID %d", name, test.Name, i, res.Trace.Events[i].Name, id)
				}
			}
			events += res.Trace.Len()
			res.Recycle()
			if res.NameIDs != nil {
				t.Fatal("Recycle kept the name IDs")
			}
		}
	}
	if events == 0 {
		t.Fatal("no events: the check proves nothing")
	}
}
