package prog

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// compiledProgram uses every kind of name more than once, across methods
// and tests, with equal names of different kinds and an init test.
func compiledProgram() *Program {
	p := New("app", "App")
	p.AddMethod("C::worker",
		Rd("C::f", "o"), Wr("C::f", "p", 1), Spin("C::f", "o", 1, 10),
		Lock("x"), Unlock("x"), Set("x"), Wait("x"), PostQ("x"),
		Rendezvous("x", 2), RdLock("x"), RdUnlock("x"))
	p.AddMethod("C::init", Wr("C::g", "o", 1), &HiddenAcquire{Lock: "x"}, &HiddenRelease{Lock: "x"})
	p.AddMethod("C::h", ListAdd("o"))
	p.AddTest("T1",
		Do("C::worker", "o"),
		Go(ForkThread, "C::worker", "p", "h1"),
		JoinT("h1"),
		Rep(2, Rd("C::f", "o"), All("x", "y")),
		RecvQ("x", "C::h", "q"),
		&HiddenSignal{Sem: "y"}, &HiddenWait{Sem: "x"})
	p.AddTestWithInit("T2", "C::init",
		Rd("C::f", "p"),
		Then("h1", "C::h", "", "h2"),
		Await("h2"),
		&EnsureInit{Class: "C", Ctor: "C::init"},
		&FinalizeObj{Slot: "o", Method: "C::h"},
		&HiddenFork{Method: "C::worker", Slot: "o", Handle: "h3"})
	return p
}

// walkStmts calls visit on every statement of p's methods (in name order)
// and tests, loop bodies included.
func walkStmts(p *Program, visit func(Stmt)) {
	var walk func([]Stmt)
	walk = func(ss []Stmt) {
		for _, s := range ss {
			visit(s)
			if l, ok := s.(*Loop); ok {
				walk(l.Body)
			}
		}
	}
	names := make([]string, 0, len(p.Methods))
	for name := range p.Methods {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		walk(p.Methods[name].Body)
	}
	for _, t := range p.Tests {
		walk(t.Body)
	}
}

// compiledNames lists a statement's (name, ID) pairs: its slot, its field
// instance, its resource, its bound handle, its method and its
// semaphores, each name qualified by its table and kind.
func compiledNames(s Stmt) map[string]ID {
	c := s.(interface{ Compiled() *Compiled }).Compiled()
	out := map[string]ID{}
	add := func(name string, id ID) { out[name] = id }
	obj := func(slot string) {
		if slot == "" {
			add("obj:", c.Obj)
			return
		}
		add("name:"+slot, c.Obj)
	}
	switch st := s.(type) {
	case *Read:
		obj(st.Slot)
		add("cell:"+st.Field+"@"+st.Slot, c.Cell)
	case *Write:
		obj(st.Slot)
		add("cell:"+st.Field+"@"+st.Slot, c.Cell)
	case *SpinUntil:
		obj(st.Slot)
		add("cell:"+st.Field+"@"+st.Slot, c.Cell)
	case *Call:
		obj(st.Slot)
		add("method:"+st.Method, c.Method)
	case *Fork:
		obj(st.Slot)
		add("name:$handle$"+st.Handle, c.Handle)
		add("method:"+st.Method, c.Method)
	case *HiddenFork:
		obj(st.Slot)
		add("name:$handle$"+st.Handle, c.Handle)
		add("method:"+st.Method, c.Method)
	case *ContinueWith:
		obj(st.Slot)
		add("name:$handle$"+st.Handle, c.Res)
		add("name:$handle$"+st.NewHandle, c.Handle)
		add("method:"+st.Method, c.Method)
	case *Join:
		add("name:$handle$"+st.Handle, c.Res)
	case *LibWait:
		add("name:$handle$"+st.Handle, c.Res)
	case *Post:
		add("name:$queue$"+st.Queue, c.Res)
	case *Receive:
		obj(st.HandlerSlot)
		add("name:$queue$"+st.Queue, c.Res)
		add("method:"+st.Handler, c.Method)
	case *FinalizeObj:
		obj(st.Slot)
		add("method:"+st.Method, c.Method)
	case *UnsafeCall:
		obj(st.Slot)
	case *EnsureInit:
		add("name:$init$"+st.Class, c.Res)
		add("method:"+st.Ctor, c.Method)
	case *AcquireLock:
		add("name:$lock$"+st.Lock, c.Res)
	case *ReleaseLock:
		add("name:$lock$"+st.Lock, c.Res)
	case *HiddenAcquire:
		add("name:$lock$"+st.Lock, c.Res)
	case *HiddenRelease:
		add("name:$lock$"+st.Lock, c.Res)
	case *RWAcquireRead:
		add("name:$rw$"+st.Lock, c.Res)
	case *RWReleaseRead:
		add("name:$rw$"+st.Lock, c.Res)
	case *SemSet:
		add("name:$sem$"+st.Sem, c.Res)
	case *SemWait:
		add("name:$sem$"+st.Sem, c.Res)
	case *HiddenSignal:
		add("name:$sem$"+st.Sem, c.Res)
	case *HiddenWait:
		add("name:$sem$"+st.Sem, c.Res)
	case *WaitAll:
		for i, sem := range st.Sems {
			add("name:$sem$"+sem, c.Sems[i])
		}
	case *BarrierWait:
		add("name:$barrier$"+st.Barrier, c.Res)
	}
	return out
}

// TestCompiledIDs: across methods and tests, equal names get equal IDs and
// distinct names distinct IDs within each table (names, cells, methods);
// every ID lies in its table's range; an empty slot compiles to NoObject;
// and method IDs resolve to the methods they name.
func TestCompiledIDs(t *testing.T) {
	p := compiledProgram()
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	byName := map[string]ID{}
	byID := map[string]string{} // table + ID → name
	check := func(name string, id ID) {
		table, _, _ := strings.Cut(name, ":")
		if name == "obj:" {
			if id != NoObject {
				t.Errorf("empty slot compiled to %d, want NoObject", id)
			}
			return
		}
		if name == "method:" {
			if id != 0 {
				t.Errorf("an empty method reference compiled to %d, want 0", id)
			}
			return
		}
		limit := map[string]int{"name": p.NumNames(), "cell": p.NumCells(), "method": p.NumMethods()}[table]
		if id < 1 || int(id) > limit {
			t.Errorf("%s: ID %d outside 1..%d", name, id, limit)
		}
		if prev, ok := byName[name]; ok && prev != id {
			t.Errorf("%s compiled to %d and %d", name, prev, id)
		}
		byName[name] = id
		key := fmt.Sprintf("%s:%d", table, id)
		if other, ok := byID[key]; ok && other != name {
			t.Errorf("%s and %s share ID %d", name, other, id)
		}
		byID[key] = name
	}
	walkStmts(p, func(s Stmt) {
		for name, id := range compiledNames(s) {
			check(name, id)
		}
	})
	for _, test := range p.Tests {
		initCall, body, handle := test.Framework()
		if test.Init == "" {
			if initCall != nil || body != nil || handle != 0 {
				t.Errorf("%s has no Init but a compiled framework", test.Name)
			}
			continue
		}
		for name, id := range compiledNames(initCall) {
			check(name, id)
		}
		check("name:$handle$@test-body", handle)
		check("method:"+body.Name, body.ID())
		if p.MethodByID(body.ID()) != body || body.Name != test.Name || !reflect.DeepEqual(body.Body, test.Body) {
			t.Errorf("%s's body method does not resolve to itself", test.Name)
		}
	}
	for name, m := range p.Methods {
		if p.MethodByID(m.ID()) != m {
			t.Errorf("method %s: ID %d resolves to another method", name, m.ID())
		}
		check("method:"+name, m.ID())
	}
	// The tables hold exactly the names seen.
	counts := map[string]int{}
	for name := range byName {
		table, _, _ := strings.Cut(name, ":")
		counts[table]++
	}
	if counts["name"] != p.NumNames() || counts["cell"] != p.NumCells() || counts["method"] != p.NumMethods() {
		t.Errorf("tables of %d names, %d cells, %d methods; statements use %v", p.NumNames(), p.NumCells(), p.NumMethods(), counts)
	}
}

// TestFinalizeCompilesOnceAndOnlyVisited: a second Finalize changes no
// site and no ID, IDs are set on exactly the statements that got a site,
// and a statement added after Finalize has neither.
func TestFinalizeCompilesOnceAndOnlyVisited(t *testing.T) {
	p := compiledProgram()
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	type snap struct {
		site int
		ids  map[string]ID
	}
	var first []snap
	walkStmts(p, func(s Stmt) { first = append(first, snap{s.Site(), compiledNames(s)}) })
	late := Rd("C::late", "late")
	p.Methods["C::h"].Body = append(p.Methods["C::h"].Body, late)
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	i := 0
	walkStmts(p, func(s Stmt) {
		if s == Stmt(late) {
			if s.Site() != 0 || !reflect.DeepEqual(*late.Compiled(), Compiled{}) {
				t.Errorf("a statement added after Finalize got site %d and IDs %+v", s.Site(), *late.Compiled())
			}
			return
		}
		if got := (snap{s.Site(), compiledNames(s)}); !reflect.DeepEqual(got, first[i]) {
			t.Errorf("statement %d changed on a second Finalize: %+v, then %+v", i, first[i], got)
		}
		i++
		if s.Site() == 0 {
			t.Errorf("%T got no site", s)
		}
		for name, id := range compiledNames(s) {
			if id == 0 && name != "method:" {
				t.Errorf("%T has a site but %s is not compiled", s, name)
			}
		}
	})
}
