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
			m.finishThread(th, th.handle)
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
		if f.isMethod {
			// Method exit is a scheduling step of its own so that an
			// injected end-of-method delay holds back the exit's effects.
			if m.planned() && m.serveDelay(th, delayMarker{f: f, pc: -1}, 0, f.method, kindsEnd) {
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
		obj := m.objID(st.Slot)
		a := m.addr(st.Field, obj)
		th.clock += m.jitter(costAccess, 0.3)
		m.emit(trace.Event{
			Time: th.clock, Thread: th.id, Kind: trace.KindRead,
			Name: st.Field, Addr: a, Site: st.Site(), Acc: trace.AccRead,
		})
		f.pc++

	case *prog.Write:
		obj := m.objID(st.Slot)
		a := m.addr(st.Field, obj)
		th.clock += m.jitter(costAccess, 0.3)
		m.fieldVal[a] = st.Val
		m.emit(trace.Event{
			Time: th.clock, Thread: th.id, Kind: trace.KindWrite,
			Name: st.Field, Addr: a, Site: st.Site(), Acc: trace.AccWrite,
		})
		f.pc++

	case *prog.SpinUntil:
		obj := m.objID(st.Slot)
		a := m.addr(st.Field, obj)
		th.clock += m.jitter(costAccess, 0.3)
		m.emit(trace.Event{
			Time: th.clock, Thread: th.id, Kind: trace.KindRead,
			Name: st.Field, Addr: a, Site: st.Site(), Acc: trace.AccRead,
		})
		if m.fieldVal[a] == st.Want {
			f.pc++
		} else {
			// Poll again after backoff; the statement stays current.
			th.clock += m.jitter(st.Backoff, 0.5)
		}

	case *prog.Call:
		f.pc++
		m.pushCall(th, st.Method, m.objID(st.Slot))

	case *prog.Loop:
		f.pc++
		if st.N > 0 {
			th.stack = append(th.stack, &frame{stmts: st.Body, remain: st.N})
		}

	case *prog.AcquireLock:
		l := m.lock(st.Lock)
		a := m.res("lock", st.Lock)
		m.libBegin(th, prog.APIMonitorEnter, st.Site(), a, 0, nil)
		finishAcq := func(now int64) {
			l.holder = th.id
			m.libEnd(th, prog.APIMonitorEnter, st.Site(), a, 0, nil)
			f.pc++
		}
		if l.holder == -1 {
			finishAcq(th.clock)
		} else {
			m.block(th, func(int64) bool { return l.holder == -1 }, finishAcq)
		}

	case *prog.ReleaseLock:
		l := m.lock(st.Lock)
		a := m.res("lock", st.Lock)
		m.libBegin(th, prog.APIMonitorExit, st.Site(), a, 0, nil)
		l.holder = -1
		m.libEnd(th, prog.APIMonitorExit, st.Site(), a, 0, nil)
		f.pc++
		m.wakeBlocked(th.clock)

	case *prog.SemSet:
		a := m.res("sem", st.Sem)
		m.libBegin(th, prog.APISemSet, st.Site(), a, 0, nil)
		m.sems[st.Sem]++
		m.libEnd(th, prog.APISemSet, st.Site(), a, 0, nil)
		f.pc++
		m.wakeBlocked(th.clock)

	case *prog.SemWait:
		a := m.res("sem", st.Sem)
		m.libBegin(th, prog.APISemWait, st.Site(), a, 0, nil)
		finish := func(now int64) {
			m.sems[st.Sem]--
			m.libEnd(th, prog.APISemWait, st.Site(), a, 0, nil)
			f.pc++
		}
		if m.sems[st.Sem] > 0 {
			finish(th.clock)
		} else {
			m.block(th, func(int64) bool { return m.sems[st.Sem] > 0 }, finish)
		}

	case *prog.WaitAll:
		ids := make([]uint64, len(st.Sems))
		for i, s := range st.Sems {
			ids[i] = m.res("sem", s)
		}
		var first uint64
		if len(ids) > 0 {
			first = ids[0]
		}
		m.libBegin(th, prog.APIWaitAll, st.Site(), first, 0, ids)
		ready := func(int64) bool {
			for _, s := range st.Sems {
				if m.sems[s] <= 0 {
					return false
				}
			}
			return true
		}
		finish := func(now int64) {
			for _, s := range st.Sems {
				m.sems[s]--
			}
			m.libEnd(th, prog.APIWaitAll, st.Site(), first, 0, ids)
			f.pc++
		}
		if ready(th.clock) {
			finish(th.clock)
		} else {
			m.block(th, ready, finish)
		}

	case *prog.Post:
		api := st.API
		if api == "" {
			api = prog.APIPost
		}
		a := m.res("queue", st.Queue)
		m.libBegin(th, api, st.Site(), a, 0, nil)
		m.queues[st.Queue]++
		m.libEnd(th, api, st.Site(), a, 0, nil)
		f.pc++
		m.wakeBlocked(th.clock)

	case *prog.Receive:
		api := st.API
		if api == "" {
			api = prog.APIReceive
		}
		a := m.res("queue", st.Queue)
		m.libBegin(th, api, st.Site(), a, 0, nil)
		finish := func(now int64) {
			m.queues[st.Queue]--
			m.libEnd(th, api, st.Site(), a, 0, nil)
			f.pc++
			if st.Handler != "" {
				m.pushCall(th, st.Handler, m.objID(st.HandlerSlot))
			}
		}
		if m.queues[st.Queue] > 0 {
			finish(th.clock)
		} else {
			m.block(th, func(int64) bool { return m.queues[st.Queue] > 0 }, finish)
		}

	case *prog.Fork:
		api := st.API.APIName()
		m.libBegin(th, api, st.Site(), 0, 0, nil)
		child := m.newThread(th.clock + spawnGap + costLib)
		child.handle = st.Handle
		m.handleTID[st.Handle] = child.id
		m.libEnd(th, api, st.Site(), 0, child.id, nil)
		f.pc++
		child.clock = th.clock + spawnGap
		m.pushCall(child, st.Method, m.objID(st.Slot))

	case *prog.Join:
		api := st.API.APIName()
		jc := m.handleTID[st.Handle]
		m.libBegin(th, api, st.Site(), 0, jc, nil)
		h := m.handle(st.Handle)
		// The wait closures are built only when the thread blocks: a
		// closure passed to block escapes, so building it up front would
		// cost an allocation on every join of a finished thread.
		if h.done {
			m.libEnd(th, api, st.Site(), 0, jc, nil)
			f.pc++
		} else {
			m.block(th, func(int64) bool { return h.done }, func(int64) {
				m.libEnd(th, api, st.Site(), 0, jc, nil)
				f.pc++
			})
		}

	case *prog.ContinueWith:
		m.libBegin(th, prog.APIContinueWith, st.Site(), 0, 0, nil)
		h := m.handle(st.Handle)
		obj := m.objID(st.Slot)
		fire := func(now int64) {
			child := m.newThread(now + spawnGap)
			child.handle = st.NewHandle
			m.handleTID[st.NewHandle] = child.id
			m.pushCall(child, st.Method, obj)
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
		m.libEnd(th, prog.APIContinueWith, st.Site(), 0, 0, nil)
		f.pc++

	case *prog.UnsafeCall:
		obj := m.objID(st.Slot)
		th.clock += m.jitter(20, 0.3)
		m.emit(trace.Event{
			Time: th.clock, Thread: th.id, Kind: trace.KindBegin,
			Name: st.API, Addr: obj, Site: st.Site(),
			Lib: true, Unsafe: true, Acc: st.Acc,
		})
		dur := st.Dur
		if dur == 0 {
			dur = costLib
		}
		th.clock += m.jitter(dur, 0.3)
		m.emit(trace.Event{
			Time: th.clock, Thread: th.id, Kind: trace.KindEnd,
			Name: st.API, Addr: obj, Site: st.Site(), Lib: true,
		})
		f.pc++

	case *prog.RWAcquireRead:
		l := m.rwlock(st.Lock)
		a := m.res("rw", st.Lock)
		m.libBegin(th, prog.APIRWAcquireRead, st.Site(), a, 0, nil)
		finish := func(now int64) {
			l.readers[th.id] = true
			m.libEnd(th, prog.APIRWAcquireRead, st.Site(), a, 0, nil)
			f.pc++
		}
		if l.writer == -1 {
			finish(th.clock)
		} else {
			m.block(th, func(int64) bool { return l.writer == -1 }, finish)
		}

	case *prog.RWReleaseRead:
		l := m.rwlock(st.Lock)
		a := m.res("rw", st.Lock)
		m.libBegin(th, prog.APIRWReleaseRead, st.Site(), a, 0, nil)
		delete(l.readers, th.id)
		m.libEnd(th, prog.APIRWReleaseRead, st.Site(), a, 0, nil)
		f.pc++
		m.wakeBlocked(th.clock)

	case *prog.RWUpgrade:
		// Double-role API: releases the caller's read hold, then acquires
		// the write hold — all inside one library call.
		l := m.rwlock(st.Lock)
		a := m.res("rw", st.Lock)
		m.libBegin(th, prog.APIRWUpgrade, st.Site(), a, 0, nil)
		delete(l.readers, th.id)
		m.wakeBlocked(th.clock)
		ready := func(int64) bool { return l.writer == -1 && len(l.readers) == 0 }
		finish := func(now int64) {
			l.writer = th.id
			m.libEnd(th, prog.APIRWUpgrade, st.Site(), a, 0, nil)
			f.pc++
		}
		if ready(th.clock) {
			finish(th.clock)
		} else {
			m.block(th, ready, finish)
		}

	case *prog.RWDowngrade:
		l := m.rwlock(st.Lock)
		a := m.res("rw", st.Lock)
		m.libBegin(th, prog.APIRWDowngrade, st.Site(), a, 0, nil)
		l.writer = -1
		l.readers[th.id] = true
		m.libEnd(th, prog.APIRWDowngrade, st.Site(), a, 0, nil)
		f.pc++
		m.wakeBlocked(th.clock)

	case *prog.HiddenAcquire:
		l := m.lock(st.Lock)
		finish := func(now int64) {
			l.holder = th.id
			th.clock += m.jitter(costLib, 0.3)
			f.pc++
		}
		if l.holder == -1 {
			finish(th.clock)
		} else {
			m.block(th, func(int64) bool { return l.holder == -1 }, finish)
		}

	case *prog.HiddenRelease:
		l := m.lock(st.Lock)
		l.holder = -1
		th.clock += m.jitter(costLib, 0.3)
		f.pc++
		m.wakeBlocked(th.clock)

	case *prog.HiddenSignal:
		m.sems[st.Sem]++
		th.clock += m.jitter(costLib, 0.3)
		f.pc++
		m.wakeBlocked(th.clock)

	case *prog.HiddenWait:
		finish := func(now int64) {
			m.sems[st.Sem]--
			th.clock += m.jitter(costLib, 0.3)
			f.pc++
		}
		if m.sems[st.Sem] > 0 {
			finish(th.clock)
		} else {
			m.block(th, func(int64) bool { return m.sems[st.Sem] > 0 }, finish)
		}

	case *prog.BarrierWait:
		b := m.barrier(st.Barrier)
		a := m.res("barrier", st.Barrier)
		m.libBegin(th, prog.APIBarrier, st.Site(), a, 0, nil)
		gen := b.generation
		b.arrived++
		if b.arrived >= st.Parties {
			// Last arrival trips the barrier: new generation, wake all.
			b.arrived = 0
			b.generation++
			m.libEnd(th, prog.APIBarrier, st.Site(), a, 0, nil)
			f.pc++
			m.wakeBlocked(th.clock)
		} else {
			m.block(th,
				func(int64) bool { return b.generation != gen },
				func(now int64) {
					m.libEnd(th, prog.APIBarrier, st.Site(), a, 0, nil)
					f.pc++
				})
		}

	case *prog.LibWait:
		jc := m.handleTID[st.Handle]
		m.libBegin(th, st.API, st.Site(), 0, jc, nil)
		h := m.handle(st.Handle)
		if h.done { // closures only when blocking, as for Join
			m.libEnd(th, st.API, st.Site(), 0, jc, nil)
			f.pc++
		} else {
			m.block(th, func(int64) bool { return h.done }, func(int64) {
				m.libEnd(th, st.API, st.Site(), 0, jc, nil)
				f.pc++
			})
		}

	case *prog.HiddenFork:
		f.pc++
		child := m.newThread(th.clock + spawnGap)
		child.handle = st.Handle
		m.handleTID[st.Handle] = child.id
		m.pushCall(child, st.Method, m.objID(st.Slot))

	case *prog.EnsureInit:
		ini, ok := m.inits[st.Class]
		if !ok {
			ini = &initState{}
			m.inits[st.Class] = ini
		}
		switch ini.phase {
		case 0:
			ini.phase = 1
			f.pc++
			cf := m.pushCall(th, st.Ctor, 0)
			cf.onExit = func(now int64) {
				ini.phase = 2
			}
		case 1:
			m.block(th,
				func(int64) bool { return ini.phase == 2 },
				func(now int64) { f.pc++ })
		default:
			f.pc++
		}

	case *prog.FinalizeObj:
		obj := m.objID(st.Slot)
		f.pc++
		gc := m.newThread(th.clock + st.GCDelay)
		m.pushCall(gc, st.Method, obj)

	case *runTestBody:
		f.pc++
		const bodyHandle = "@test-body"
		child := m.newThread(th.clock + spawnGap)
		child.handle = bodyHandle
		m.pushMethodFrame(child, st.method, 0)
		h := m.handle(bodyHandle)
		m.block(th,
			func(int64) bool { return h.done },
			func(now int64) {})

	default:
		panic(fmt.Sprintf("sched: unknown statement type %T", s))
	}
}

// libBegin emits the immediately-before call-site event of a library API.
// Delay injection for the API's candidate keys happened in the preceding
// delay phase (see serveDelay). addr identifies the resource the call
// operates on (lock, semaphore, queue), child the thread it spawns/joins,
// extra any additional resources (WaitAll handles) — information real
// instrumentation reads from the call's arguments.
func (m *machine) libBegin(th *thread, api string, site int, addr uint64, child int, extra []uint64) {
	th.clock += m.jitter(20, 0.3)
	m.emit(trace.Event{
		Time: th.clock, Thread: th.id, Kind: trace.KindBegin,
		Name: api, Site: site, Lib: true, Addr: addr, Child: child, Extra: extra,
	})
}

// libEnd emits the immediately-after call-site event.
func (m *machine) libEnd(th *thread, api string, site int, addr uint64, child int, extra []uint64) {
	th.clock += m.jitter(costLib, 0.3)
	m.emit(trace.Event{
		Time: th.clock, Thread: th.id, Kind: trace.KindEnd,
		Name: api, Site: site, Lib: true, Addr: addr, Child: child, Extra: extra,
	})
}

// res returns a stable resource id for a named lock/semaphore/queue.
func (m *machine) res(kind, name string) uint64 {
	return m.objID("$" + kind + "$" + name)
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
