package sched

import (
	"math/rand"
	"testing"

	"sherlock/internal/prog"
)

// accessMachine returns a fresh machine for a program whose one test
// reads fields: (field, slot) pairs in order.
func accessMachine(t *testing.T, fields ...[2]string) (*machine, []prog.Stmt) {
	t.Helper()
	p := prog.New("addr", "Addr")
	var body []prog.Stmt
	for _, f := range fields {
		body = append(body, prog.Rd(f[0], f[1]))
	}
	p.AddTest("T", body...)
	p.MustFinalize()
	return newMachine(p, p.Tests[0], Options{}, rand.New(rand.NewSource(1))), body
}

// TestAddrFirstSeenOrder: addresses are handed out in first-access order,
// 8 bytes apart, one per (field, object) instance, whatever characters the
// field name holds, and the receiver's object id is taken on its first
// access as before.
func TestAddrFirstSeenOrder(t *testing.T) {
	m, body := accessMachine(t,
		[2]string{"C::f", "a"},
		[2]string{"C::g", "a"},
		[2]string{"C::f", "b"},
		[2]string{"C::f", "a"},
		[2]string{"C::f#1", "b"},
		[2]string{"C::f", ""},
		[2]string{"C::g", "a"},
	)
	want := []uint64{0x1000, 0x1008, 0x1010, 0x1000, 0x1018, 0x1020, 0x1008}
	for i, s := range body {
		if got := m.access(s.(*prog.Read).Compiled()).addr; got != want[i] {
			t.Errorf("access %d: address %#x, want %#x", i, got, want[i])
		}
	}
	if m.nextObjID != 3 {
		t.Errorf("took %d object ids, want 2 (slots a and b; the empty slot has none)", m.nextObjID-1)
	}
}

// TestAddrSeenPathAllocFree pins the hot path of every field access: a
// field instance already seen in the run resolves without allocating.
func TestAddrSeenPathAllocFree(t *testing.T) {
	m, body := accessMachine(t, [2]string{"k8s.ByteBuffer::endOfFile", "o42"})
	c := body[0].(*prog.Read).Compiled()
	want := m.access(c).addr
	allocs := testing.AllocsPerRun(1000, func() {
		if m.access(c).addr != want {
			t.Fatal("address of a seen field instance changed")
		}
	})
	if allocs != 0 {
		t.Fatalf("seen-path access allocates %.1f times per call, want 0", allocs)
	}
}

// TestUncompiledStatementFailsLoudly: a statement added after the
// program was finalized carries zero IDs. Running it must panic with
// errNotCompiled rather than share the spare zero entry of a table with
// every other such statement. Each statement kind that resolves a name
// is tried: a field access, a call, a lock and a fork.
func TestUncompiledStatementFailsLoudly(t *testing.T) {
	for _, late := range []prog.Stmt{
		prog.Wr("C::g", "o", 1),
		prog.Do("C::m", "o"),
		prog.Lock("l"),
		prog.Go(prog.ForkThread, "C::m", "o", "h"),
	} {
		p := prog.New("late", "Late")
		p.AddMethod("C::m", prog.Rd("C::f", "o"))
		p.AddTest("T", prog.Rd("C::f", "o"))
		p.MustFinalize()
		p.Tests[0].Body = append(p.Tests[0].Body, late)
		func() {
			defer func() {
				if r := recover(); r != errNotCompiled {
					t.Errorf("%T added after Finalize: run recovered %v, want errNotCompiled", late, r)
				}
			}()
			Run(p, p.Tests[0], Options{Seed: 1})
		}()
	}
}
