// Statement execution: one scheduler step interprets one statement of the
// chosen thread, either completing it (advancing the frame's pc) or parking
// the thread with a wake closure that completes it later.
package sched

import (
	"fmt"

	"sherlock/internal/prog"
	"sherlock/internal/trace"
)

// spawnGap is the virtual-time gap between a fork and the child's first
// instruction.
const spawnGap = 10

// step executes one statement of th (or serves one pending delay phase, or
// performs one method exit).
func (m *machine) step(th *thread) {
	var f *frame
	for {
		if len(th.stack) == 0 {
			m.finishThread(th)
			return
		}
		f = th.stack[len(th.stack)-1]
		if f.pc < len(f.stmts) {
			break
		}
		if f.remain > 1 { // loop frame restarts
			f.remain--
			f.pc = 0
			break
		}
		if f.method != nil {
			// Method exit is a scheduling step of its own so that an
			// injected end-of-method delay holds back the exit's effects.
			if m.planned() && m.serveDelay(th, delayMarker{f: f, pc: -1}, 0, f.method.Name, kindsEnd) {
				return
			}
			th.stack = th.stack[:len(th.stack)-1]
			m.exitMethod(th, f)
			return
		}
		th.stack = th.stack[:len(th.stack)-1]
	}
	s := f.stmts[f.pc]
	if m.planned() {
		if name, kinds := delayOps(s); len(kinds) > 0 &&
			m.serveDelay(th, delayMarker{f: f, pc: f.pc}, s.Site(), name, kinds) {
			return
		}
	}
	th.clock += m.dispatch()

	switch st := s.(type) {
	case *prog.Compute:
		th.clock += m.jitter(st.Dur, st.Jitter)
		f.pc++

	case *prog.Sleep:
		th.clock += st.Dur
		f.pc++

	case *prog.Read:
		c := m.access(st.Compiled())
		th.clock += m.jitter(costAccess, 0.3)
		m.emit(trace.Event{
			Time: th.clock, Thread: th.id, Kind: trace.KindRead,
			Name: st.Field, Addr: c.addr, Site: st.Site(), Acc: trace.AccRead,
		}, st.Compiled().Name)
		f.pc++

	case *prog.Write:
		c := m.access(st.Compiled())
		th.clock += m.jitter(costAccess, 0.3)
		c.val = st.Val
		m.emit(trace.Event{
			Time: th.clock, Thread: th.id, Kind: trace.KindWrite,
			Name: st.Field, Addr: c.addr, Site: st.Site(), Acc: trace.AccWrite,
		}, st.Compiled().Name)
		f.pc++

	case *prog.SpinUntil:
		c := m.access(st.Compiled())
		th.clock += m.jitter(costAccess, 0.3)
		m.emit(trace.Event{
			Time: th.clock, Thread: th.id, Kind: trace.KindRead,
			Name: st.Field, Addr: c.addr, Site: st.Site(), Acc: trace.AccRead,
		}, st.Compiled().Name)
		if c.val == st.Want {
			f.pc++
		} else {
			// Poll again after backoff; the statement stays current.
			th.clock += m.jitter(st.Backoff, 0.5)
		}

	case *prog.Call:
		f.pc++
		c := st.Compiled()
		m.pushCall(th, m.method(c.Method), m.object(c.Obj))

	case *prog.Loop:
		f.pc++
		if st.N > 0 {
			th.stack = append(th.stack, &frame{stmts: st.Body, remain: st.N})
		}

	case *prog.AcquireLock:
		l, a := m.resource(st.Compiled().Res)
		m.libBegin(th, st.Compiled().Name, st.Site(), a, 0, nil)
		finishAcq := func(now int64) {
			l.held = true
			m.libEnd(th, st.Compiled().Name, st.Site(), a, 0, nil)
			f.pc++
		}
		if !l.held {
			finishAcq(th.clock)
		} else {
			m.block(th, func(int64) bool { return !l.held }, finishAcq)
		}

	case *prog.ReleaseLock:
		l, a := m.resource(st.Compiled().Res)
		m.libBegin(th, st.Compiled().Name, st.Site(), a, 0, nil)
		l.held = false
		m.libEnd(th, st.Compiled().Name, st.Site(), a, 0, nil)
		f.pc++
		m.wakeBlocked(th.clock)

	case *prog.SemSet:
		sem, a := m.resource(st.Compiled().Res)
		m.libBegin(th, st.Compiled().Name, st.Site(), a, 0, nil)
		sem.count++
		m.libEnd(th, st.Compiled().Name, st.Site(), a, 0, nil)
		f.pc++
		m.wakeBlocked(th.clock)

	case *prog.SemWait:
		sem, a := m.resource(st.Compiled().Res)
		m.libBegin(th, st.Compiled().Name, st.Site(), a, 0, nil)
		finish := func(now int64) {
			sem.count--
			m.libEnd(th, st.Compiled().Name, st.Site(), a, 0, nil)
			f.pc++
		}
		if sem.count > 0 {
			finish(th.clock)
		} else {
			m.block(th, func(int64) bool { return sem.count > 0 }, finish)
		}

	case *prog.WaitAll:
		sems := st.Compiled().Sems
		ids := make([]uint64, len(sems))
		for i, id := range sems {
			ids[i] = m.object(id)
		}
		var first uint64
		if len(ids) > 0 {
			first = ids[0]
		}
		m.libBegin(th, st.Compiled().Name, st.Site(), first, 0, ids)
		ready := func(int64) bool {
			for _, id := range sems {
				if m.state(id).count <= 0 {
					return false
				}
			}
			return true
		}
		finish := func(now int64) {
			for _, id := range sems {
				m.state(id).count--
			}
			m.libEnd(th, st.Compiled().Name, st.Site(), first, 0, ids)
			f.pc++
		}
		if ready(th.clock) {
			finish(th.clock)
		} else {
			m.block(th, ready, finish)
		}

	case *prog.Post:
		q, a := m.resource(st.Compiled().Res)
		m.libBegin(th, st.Compiled().Name, st.Site(), a, 0, nil)
		q.count++
		m.libEnd(th, st.Compiled().Name, st.Site(), a, 0, nil)
		f.pc++
		m.wakeBlocked(th.clock)

	case *prog.Receive:
		c := st.Compiled()
		q, a := m.resource(c.Res)
		m.libBegin(th, st.Compiled().Name, st.Site(), a, 0, nil)
		finish := func(now int64) {
			q.count--
			m.libEnd(th, st.Compiled().Name, st.Site(), a, 0, nil)
			f.pc++
			if st.Handler != "" {
				m.pushCall(th, m.method(c.Method), m.object(c.Obj))
			}
		}
		if q.count > 0 {
			finish(th.clock)
		} else {
			m.block(th, func(int64) bool { return q.count > 0 }, finish)
		}

	case *prog.Fork:
		c := st.Compiled()
		m.libBegin(th, st.Compiled().Name, st.Site(), 0, 0, nil)
		child := m.newThread(th.clock + spawnGap + costLib)
		m.bind(child, c.Handle, st.Handle)
		m.libEnd(th, st.Compiled().Name, st.Site(), 0, child.id, nil)
		f.pc++
		child.clock = th.clock + spawnGap
		m.pushCall(child, m.method(c.Method), m.object(c.Obj))

	case *prog.Join:
		h := &m.state(st.Compiled().Res).handle
		jc := h.tid
		m.libBegin(th, st.Compiled().Name, st.Site(), 0, jc, nil)
		// The wait closures are built only when the thread blocks: a
		// closure passed to block escapes, so building it up front would
		// cost an allocation on every join of a finished thread.
		if h.done {
			m.libEnd(th, st.Compiled().Name, st.Site(), 0, jc, nil)
			f.pc++
		} else {
			m.block(th, func(int64) bool { return h.done }, func(int64) {
				m.libEnd(th, st.Compiled().Name, st.Site(), 0, jc, nil)
				f.pc++
			})
		}

	case *prog.ContinueWith:
		c := st.Compiled()
		m.libBegin(th, st.Compiled().Name, st.Site(), 0, 0, nil)
		h := &m.state(c.Res).handle
		obj := m.object(c.Obj)
		fire := func(now int64) {
			child := m.newThread(now + spawnGap)
			m.bind(child, c.Handle, st.NewHandle)
			m.pushCall(child, m.method(c.Method), obj)
		}
		if h.done {
			at := h.doneAt
			if th.clock > at {
				at = th.clock
			}
			fire(at)
		} else {
			h.conts = append(h.conts, fire)
		}
		m.libEnd(th, st.Compiled().Name, st.Site(), 0, 0, nil)
		f.pc++

	case *prog.UnsafeCall:
		obj := m.object(st.Compiled().Obj)
		th.clock += m.jitter(20, 0.3)
		m.emit(trace.Event{
			Time: th.clock, Thread: th.id, Kind: trace.KindBegin,
			Name: st.API, Addr: obj, Site: st.Site(),
			Lib: true, Unsafe: true, Acc: st.Acc,
		}, st.Compiled().Name)
		dur := st.Dur
		if dur == 0 {
			dur = costLib
		}
		th.clock += m.jitter(dur, 0.3)
		m.emit(trace.Event{
			Time: th.clock, Thread: th.id, Kind: trace.KindEnd,
			Name: st.API, Addr: obj, Site: st.Site(), Lib: true,
		}, st.Compiled().Name)
		f.pc++

	case *prog.RWAcquireRead:
		l, a := m.rwlock(st.Compiled().Res)
		m.libBegin(th, st.Compiled().Name, st.Site(), a, 0, nil)
		finish := func(now int64) {
			l.readers[th.id] = true
			m.libEnd(th, st.Compiled().Name, st.Site(), a, 0, nil)
			f.pc++
		}
		if !l.writing {
			finish(th.clock)
		} else {
			m.block(th, func(int64) bool { return !l.writing }, finish)
		}

	case *prog.RWReleaseRead:
		l, a := m.rwlock(st.Compiled().Res)
		m.libBegin(th, st.Compiled().Name, st.Site(), a, 0, nil)
		delete(l.readers, th.id)
		m.libEnd(th, st.Compiled().Name, st.Site(), a, 0, nil)
		f.pc++
		m.wakeBlocked(th.clock)

	case *prog.RWUpgrade:
		// Double-role API: releases the caller's read hold, then acquires
		// the write hold — all inside one library call.
		l, a := m.rwlock(st.Compiled().Res)
		m.libBegin(th, st.Compiled().Name, st.Site(), a, 0, nil)
		delete(l.readers, th.id)
		m.wakeBlocked(th.clock)
		ready := func(int64) bool { return !l.writing && len(l.readers) == 0 }
		finish := func(now int64) {
			l.writing = true
			m.libEnd(th, st.Compiled().Name, st.Site(), a, 0, nil)
			f.pc++
		}
		if ready(th.clock) {
			finish(th.clock)
		} else {
			m.block(th, ready, finish)
		}

	case *prog.RWDowngrade:
		l, a := m.rwlock(st.Compiled().Res)
		m.libBegin(th, st.Compiled().Name, st.Site(), a, 0, nil)
		l.writing = false
		l.readers[th.id] = true
		m.libEnd(th, st.Compiled().Name, st.Site(), a, 0, nil)
		f.pc++
		m.wakeBlocked(th.clock)

	case *prog.HiddenAcquire:
		l := m.state(st.Compiled().Res)
		finish := func(now int64) {
			l.held = true
			th.clock += m.jitter(costLib, 0.3)
			f.pc++
		}
		if !l.held {
			finish(th.clock)
		} else {
			m.block(th, func(int64) bool { return !l.held }, finish)
		}

	case *prog.HiddenRelease:
		m.state(st.Compiled().Res).held = false
		th.clock += m.jitter(costLib, 0.3)
		f.pc++
		m.wakeBlocked(th.clock)

	case *prog.HiddenSignal:
		m.state(st.Compiled().Res).count++
		th.clock += m.jitter(costLib, 0.3)
		f.pc++
		m.wakeBlocked(th.clock)

	case *prog.HiddenWait:
		sem := m.state(st.Compiled().Res)
		finish := func(now int64) {
			sem.count--
			th.clock += m.jitter(costLib, 0.3)
			f.pc++
		}
		if sem.count > 0 {
			finish(th.clock)
		} else {
			m.block(th, func(int64) bool { return sem.count > 0 }, finish)
		}

	case *prog.BarrierWait:
		bs, a := m.resource(st.Compiled().Res)
		b := &bs.barrier
		m.libBegin(th, st.Compiled().Name, st.Site(), a, 0, nil)
		gen := b.generation
		b.arrived++
		if b.arrived >= st.Parties {
			// Last arrival trips the barrier: new generation, wake all.
			b.arrived = 0
			b.generation++
			m.libEnd(th, st.Compiled().Name, st.Site(), a, 0, nil)
			f.pc++
			m.wakeBlocked(th.clock)
		} else {
			m.block(th,
				func(int64) bool { return b.generation != gen },
				func(now int64) {
					m.libEnd(th, st.Compiled().Name, st.Site(), a, 0, nil)
					f.pc++
				})
		}

	case *prog.LibWait:
		h := &m.state(st.Compiled().Res).handle
		jc := h.tid
		m.libBegin(th, st.Compiled().Name, st.Site(), 0, jc, nil)
		if h.done { // closures only when blocking, as for Join
			m.libEnd(th, st.Compiled().Name, st.Site(), 0, jc, nil)
			f.pc++
		} else {
			m.block(th, func(int64) bool { return h.done }, func(int64) {
				m.libEnd(th, st.Compiled().Name, st.Site(), 0, jc, nil)
				f.pc++
			})
		}

	case *prog.HiddenFork:
		f.pc++
		c := st.Compiled()
		child := m.newThread(th.clock + spawnGap)
		m.bind(child, c.Handle, st.Handle)
		m.pushCall(child, m.method(c.Method), m.object(c.Obj))

	case *prog.EnsureInit:
		c := st.Compiled()
		ini := &m.state(c.Res).init
		switch *ini {
		case 0:
			*ini = 1
			f.pc++
			cf := m.pushCall(th, m.method(c.Method), 0)
			cf.onExit = func(now int64) {
				*ini = 2
			}
		case 1:
			m.block(th,
				func(int64) bool { return *ini == 2 },
				func(now int64) { f.pc++ })
		default:
			f.pc++
		}

	case *prog.FinalizeObj:
		c := st.Compiled()
		obj := m.object(c.Obj)
		f.pc++
		gc := m.newThread(th.clock + st.GCDelay)
		m.pushCall(gc, m.method(c.Method), obj)

	case *runTestBody:
		f.pc++
		child := m.newThread(th.clock + spawnGap)
		hs := m.state(st.handle)
		child.handle = hs
		m.pushCall(child, st.method, 0)
		h := &hs.handle
		m.block(th,
			func(int64) bool { return h.done },
			func(now int64) {})

	default:
		panic(fmt.Sprintf("sched: unknown statement type %T", s))
	}
}

// libBegin emits the immediately-before call-site event of a library API,
// given as its ID in the program's event-name table.
// Delay injection for the API's candidate keys happened in the preceding
// delay phase (see serveDelay). addr identifies the resource the call
// operates on (lock, semaphore, queue), child the thread it spawns/joins,
// extra any additional resources (WaitAll handles) — information real
// instrumentation reads from the call's arguments.
func (m *machine) libBegin(th *thread, api trace.NameID, site int, addr uint64, child int, extra []uint64) {
	th.clock += m.jitter(20, 0.3)
	m.emit(trace.Event{
		Time: th.clock, Thread: th.id, Kind: trace.KindBegin,
		Name: m.evNames.Name(api), Site: site, Lib: true, Addr: addr, Child: child, Extra: extra,
	}, api)
}

// libEnd emits the immediately-after call-site event.
func (m *machine) libEnd(th *thread, api trace.NameID, site int, addr uint64, child int, extra []uint64) {
	th.clock += m.jitter(costLib, 0.3)
	m.emit(trace.Event{
		Time: th.clock, Thread: th.id, Kind: trace.KindEnd,
		Name: m.evNames.Name(api), Site: site, Lib: true, Addr: addr, Child: child, Extra: extra,
	}, api)
}

// access resolves a field access's receiver object, taking its object id
// on first use as before, and returns the accessed field instance.
func (m *machine) access(c *prog.Compiled) *cellState {
	m.object(c.Obj)
	return m.cell(c.Cell)
}

// bind records child as the thread forked under a compiled handle. A
// thread forked under the empty handle name is recorded but signals no
// completion.
func (m *machine) bind(child *thread, handle prog.ID, name string) {
	h := m.state(handle)
	h.handle.tid = child.id
	if name != "" {
		child.handle = h
	}
}

// Kind sets of delayOps' candidate operations.
var (
	kindsRead  = []trace.Kind{trace.KindRead}
	kindsWrite = []trace.Kind{trace.KindWrite}
	kindsBegin = []trace.Kind{trace.KindBegin}
	kindsEnd   = []trace.Kind{trace.KindEnd}
	kindsAPI   = []trace.Kind{trace.KindBegin, trace.KindEnd} // both call-site keys
)

// delayOps returns the candidate operations a planned delay may target for
// a statement, as the static name and key kinds of the operations this
// statement performs (no kinds when it performs none). Delays on
// method-begin keys of forked delegates are served at the Call/Fork site's
// granularity; the Perturber only ever delays release-capable keys, so
// this covers every practical plan.
func delayOps(s Stmt) (string, []trace.Kind) {
	switch st := s.(type) {
	case *prog.Read:
		return st.Field, kindsRead
	case *prog.Write:
		return st.Field, kindsWrite
	case *prog.Call:
		return st.Method, kindsBegin
	case *prog.AcquireLock:
		return prog.APIMonitorEnter, kindsAPI
	case *prog.ReleaseLock:
		return prog.APIMonitorExit, kindsAPI
	case *prog.SemSet:
		return prog.APISemSet, kindsAPI
	case *prog.SemWait:
		return prog.APISemWait, kindsAPI
	case *prog.WaitAll:
		return prog.APIWaitAll, kindsAPI
	case *prog.Post:
		if st.API != "" {
			return st.API, kindsAPI
		}
		return prog.APIPost, kindsAPI
	case *prog.Receive:
		if st.API != "" {
			return st.API, kindsAPI
		}
		return prog.APIReceive, kindsAPI
	case *prog.Fork:
		return st.API.APIName(), kindsAPI
	case *prog.Join:
		return st.API.APIName(), kindsAPI
	case *prog.ContinueWith:
		return prog.APIContinueWith, kindsAPI
	case *prog.UnsafeCall:
		return st.API, kindsAPI
	case *prog.LibWait:
		return st.API, kindsAPI
	case *prog.BarrierWait:
		return prog.APIBarrier, kindsAPI
	case *prog.RWAcquireRead:
		return prog.APIRWAcquireRead, kindsAPI
	case *prog.RWReleaseRead:
		return prog.APIRWReleaseRead, kindsAPI
	case *prog.RWUpgrade:
		return prog.APIRWUpgrade, kindsAPI
	case *prog.RWDowngrade:
		return prog.APIRWDowngrade, kindsAPI
	}
	return "", nil
}
