package sched

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"sherlock/internal/apps"
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

		exit := &frame{stmts: p.Methods[method].Body, isMethod: true, method: method}
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

// TestEventsHintDoesNotChangeTrace: the capacity hint presizes the trace
// buffer and nothing else, whether it undershoots, matches or overshoots.
func TestEventsHintDoesNotChangeTrace(t *testing.T) {
	p := genProgram(5)
	want := traceBytes(t, p, Options{Seed: 3})
	for _, hint := range []int{1, 17, 10_000} {
		if !bytes.Equal(traceBytes(t, p, Options{Seed: 3, EventsHint: hint}), want) {
			t.Fatalf("hint %d changed the trace", hint)
		}
	}
}

// traceBytes runs p's first test under opt and returns its serialized
// trace.
func traceBytes(t *testing.T, p *prog.Program, opt Options) []byte {
	t.Helper()
	res, err := Run(p, p.Tests[0], opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Trace.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkRun executes every test of the eight built-in apps once per
// op, without a delay plan (a campaign's first round) and with every true
// release delayed (what the Perturber's later rounds look like).
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
					if _, err := Run(j.p, j.t, opt); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
