// Package static derives SherLock constraints from program structure
// alone — no execution, no traces. It walks the internal/prog DSL the way
// internal/sched would execute it (same event vocabulary, same
// hidden-method handling, same library API names) but abstractly: logical
// threads instead of scheduled ones, vector clocks instead of virtual
// time, loop bodies unrolled a bounded number of times instead of run.
//
// The output is a synthetic window.Observations accumulator in exactly
// the vocabulary internal/solver already encodes: every statically
// derivable constraint family falls out of the existing encoding —
// variable and type constraints (Eq. 1: role variables only for capable
// kinds) from the candidate keys, pair constraints (Eq. 6–7) from
// class/field structure, Single-Role (Eq. 8) from the library-API set,
// and Syncs-are-Rare (Eq. 3–4) with occurrence coefficients taken from
// static call-site frequency rather than dynamic counts. Only the two
// genuinely dynamic families are absent: acquisition-time variation
// (Eq. 5 — there are no durations to rank, so solvers over this output
// must disable the hypothesis) and the data-race feedback is approximate
// (derived from the emitted window shapes, not observed races).
//
// Happens-before is tracked along fork/join/continuation edges only
// (Fork, HiddenFork, ContinueWith, FinalizeObj, Join, LibWait, test-init
// edges). Pairs ordered by those edges emit one window orientation; pairs
// the analysis cannot order emit both — a conservative over-approximation
// that errs toward more evidence, never less. Windows ARE generated
// across fork edges: that is precisely how fork/join APIs end up inside
// acquire/release windows and get inferred as synchronization.
//
// Everything is deterministic: threads, conflict classes, and window
// enumeration follow fixed orders, so two analyses of the same finalized
// program produce bit-identical observations (and downstream, bit-
// identical reports) — the property the server's content-addressed static
// cache relies on.
package static

import (
	"errors"
	"fmt"
	"sort"
	"strconv"

	"sherlock/internal/obs"
	"sherlock/internal/prog"
	"sherlock/internal/trace"
	"sherlock/internal/window"
)

// Config tunes the abstract walk.
type Config struct {
	// Window supplies the per-pair cap and unsafe-API toggle; Near is
	// meaningless without time and ignored.
	Window window.Config
	// LoopUnroll bounds how many iterations of a Loop body are walked
	// (default 3: enough to see a fork-in-loop twice and stabilize static
	// occurrence counts without quadratic blowup).
	LoopUnroll int
	// Horizon bounds how many operations on each side of a conflicting
	// access join its window — the static stand-in for the Near time
	// filter (default 32).
	Horizon int
	// MaxCallDepth bounds Call inlining; exceeding it (unbounded recursion
	// in the DSL) is a defined error, not a hang (default 32).
	MaxCallDepth int
	// MaxClassOps bounds the conflict-eligible operations considered per
	// conflict class per test (default 64), bounding the pair enumeration.
	MaxClassOps int
	// MaxThreads bounds logical threads per test (default 256). A method
	// that forks itself spawns a new thread on every walk; execution
	// terminates because each run is finite, but the abstract sweep would
	// not — exceeding the budget is a defined error (default 256).
	MaxThreads int
}

// DefaultConfig returns the default analysis parameters.
func DefaultConfig() Config {
	return Config{Window: window.DefaultConfig(), LoopUnroll: 3, Horizon: 32, MaxCallDepth: 32, MaxClassOps: 64, MaxThreads: 256}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Window.PerPairCap == 0 {
		c.Window = d.Window
	}
	if c.LoopUnroll <= 0 {
		c.LoopUnroll = d.LoopUnroll
	}
	if c.Horizon <= 0 {
		c.Horizon = d.Horizon
	}
	if c.MaxCallDepth <= 0 {
		c.MaxCallDepth = d.MaxCallDepth
	}
	if c.MaxClassOps <= 0 {
		c.MaxClassOps = d.MaxClassOps
	}
	if c.MaxThreads <= 0 {
		c.MaxThreads = d.MaxThreads
	}
	return c
}

// Analysis is the result of one static pass.
type Analysis struct {
	App string
	// Obs holds the synthetic observations, ready for solver encoding.
	// Durations is empty — disable Hypotheses.AcqTimeVaries when solving.
	Obs *window.Observations
	// ProgramHash content-addresses the analyzed structure (see
	// ProgramHash); two programs with equal hashes produce equal analyses.
	ProgramHash string
	// Threads / Ops / Windows summarize the walk across all tests.
	Threads int
	Ops     int
	Windows int
}

// ErrCallDepth is wrapped by Analyze when Call inlining exceeds
// Config.MaxCallDepth — the static signature of unbounded recursion.
var ErrCallDepth = errors.New("static: call depth exceeded")

// ErrThreadBudget is wrapped by Analyze when a test's walk spawns more
// than Config.MaxThreads logical threads — the static signature of a
// method that transitively forks itself.
var ErrThreadBudget = errors.New("static: thread budget exceeded")

// ErrUnknownStmt is wrapped by Analyze (and ProgramHash) for a statement
// type the walker has no semantics for. The scheduler panics on these;
// the static pass reports instead, because it also runs on untrusted
// programs server-side.
var ErrUnknownStmt = errors.New("static: unknown statement type")

// Analyze walks p (finalizing it if needed) and returns its static
// observations. p is not mutated beyond Finalize.
func Analyze(p *prog.Program, cfg Config) (*Analysis, error) {
	return AnalyzeSpan(p, cfg, nil)
}

// AnalyzeSpan is Analyze recording its work under parent: a "static"
// child span with per-test children (thread/op/window counts, all
// deterministic). A nil parent costs nothing.
func AnalyzeSpan(p *prog.Program, cfg Config, parent *obs.Span) (*Analysis, error) {
	if err := p.Finalize(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	hash, err := ProgramHash(p)
	if err != nil {
		return nil, err
	}
	span := parent.Child("static", obs.Str("app", p.Name), obs.Int("tests", len(p.Tests)))
	defer span.End()

	an := &Analysis{App: p.Name, ProgramHash: hash, Obs: window.NewObservations(cfg.Window)}
	for _, t := range p.Tests {
		w := &walker{p: p, cfg: cfg, hidden: p.Truth.HiddenMethods,
			handles: map[string]*lthread{}, inits: map[string]bool{}, apis: map[string]bool{}}
		if err := w.walkTest(t); err != nil {
			return nil, fmt.Errorf("static: %s/%s: %w", p.Name, t.Name, err)
		}
		ws := w.windows(t.Name)
		tspan := span.Child("test", obs.Str("test", t.Name))
		tspan.Annotate(
			obs.Int("threads", len(w.threads)),
			obs.Int("ops", w.opCount()),
			obs.Int("windows", len(ws)))
		tspan.End()
		an.Obs.AddWindows(ws)
		an.Obs.AddStats(nil, sortedSet(w.apis))
		an.Threads += len(w.threads)
		an.Ops += w.opCount()
		an.Windows += len(ws)
	}
	span.Annotate(
		obs.Int("threads", an.Threads),
		obs.Int("ops", an.Ops),
		obs.Int("windows", an.Windows))
	return an, nil
}

func sortedSet(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// clock is a vector clock over logical thread ids.
type clock []int

func (c clock) clone() clock { return append(clock(nil), c...) }

func (c *clock) ensure(n int) {
	for len(*c) <= n {
		*c = append(*c, 0)
	}
}

func (c *clock) merge(o clock) {
	c.ensure(len(o) - 1)
	for i, v := range o {
		if v > (*c)[i] {
			(*c)[i] = v
		}
	}
}

// at returns component i, tolerating short clocks.
func (c clock) at(i int) int {
	if i < len(c) {
		return c[i]
	}
	return 0
}

// op is one abstract operation a logical thread performs — the static
// analogue of a trace event.
type op struct {
	key  trace.Key
	site int
	lib  bool
	acc  trace.Acc
	// conflict identifies the abstract memory location ("f:<field>#<slot>"
	// for heap accesses, "u:<slot>" for unsafe library calls); empty when
	// the op cannot participate in a conflicting pair.
	conflict string
	// vc is the thread's vector clock at emission (own component already
	// incremented), so op a happens-before op b iff b.vc covers a's stamp.
	vc clock
}

// lthread is one logical thread of the abstract execution. A thread runs
// either a registered method under pushCall semantics (forked threads:
// hasBody false) or an explicit statement list (test bodies: hasBody
// true, framed by method Begin/End when method is non-empty — the
// runTestBody pattern).
type lthread struct {
	id      int
	method  string
	body    []prog.Stmt
	hasBody bool
	spawn   clock

	vc      clock
	ops     []op
	walking bool
	done    bool
}

// walker abstractly executes one test.
type walker struct {
	p       *prog.Program
	cfg     Config
	hidden  map[string]bool
	threads []*lthread
	handles map[string]*lthread
	inits   map[string]bool
	apis    map[string]bool
}

func (w *walker) opCount() int {
	n := 0
	for _, th := range w.threads {
		n += len(th.ops)
	}
	return n
}

// walkTest mirrors the scheduler's test setup: with an Init method, the
// main thread runs Init and the body executes as a named method in a
// forked thread ordered after it (Figure 3.E); otherwise the body runs
// on the main thread directly.
func (w *walker) walkTest(t *prog.Test) error {
	main, err := w.spawnBody("", t.Body, clock{})
	if err != nil {
		return err
	}
	if t.Init != "" {
		main.body = nil // the body moves to a forked thread below
		main.walking = true
		if err := w.walkCall(main, t.Init, 0); err != nil {
			return err
		}
		// pushMethodFrame names the forked body after the test itself.
		body, err := w.spawnBody(t.Name, t.Body, main.vc.clone())
		if err != nil {
			return err
		}
		if err := w.walkThread(body); err != nil {
			return err
		}
		main.vc.merge(body.vc)
		main.walking = false
		main.done = true
	} else if err := w.walkThread(main); err != nil {
		return err
	}
	// Threads nobody joined (fire-and-forget forks, GC threads) still
	// need walking; spawn order keeps this deterministic. Walking may
	// spawn more threads, so re-scan until quiescent.
	for i := 0; i < len(w.threads); i++ {
		if err := w.walkThread(w.threads[i]); err != nil {
			return err
		}
	}
	return nil
}

// spawn registers a new logical thread running a registered method,
// starting from vc. The caller either walks it on demand (join edges) or
// leaves it for walkTest's final sweep.
func (w *walker) spawn(method string, vc clock) (*lthread, error) {
	if len(w.threads) >= w.cfg.MaxThreads {
		return nil, fmt.Errorf("%w: %d logical threads (self-forking method?)", ErrThreadBudget, len(w.threads))
	}
	th := &lthread{id: len(w.threads), method: method, spawn: vc, vc: vc.clone()}
	w.threads = append(w.threads, th)
	return th, nil
}

// spawnBody registers a thread running an explicit statement list (test
// bodies), framed as method when non-empty.
func (w *walker) spawnBody(method string, body []prog.Stmt, vc clock) (*lthread, error) {
	th, err := w.spawn(method, vc)
	if err != nil {
		return nil, err
	}
	th.body, th.hasBody = body, true
	return th, nil
}

// walkThread runs a spawned thread to completion (idempotent). A thread
// forced to walk while already walking means the join graph has a cycle —
// a malformed program, reported rather than recursed into.
func (w *walker) walkThread(th *lthread) error {
	if th.done {
		return nil
	}
	if th.walking {
		return fmt.Errorf("static: cyclic join/continuation through thread %d", th.id)
	}
	th.walking = true
	defer func() { th.walking = false }()
	var err error
	switch {
	case th.hasBody && th.method != "":
		err = w.walkWrapped(th, th.method, th.body, 0)
	case th.hasBody:
		err = w.walkStmts(th, th.body, 0)
	default:
		err = w.walkCall(th, th.method, 0)
	}
	if err != nil {
		return err
	}
	th.done = true
	return nil
}

// emit appends one abstract operation, advancing the thread's clock.
func (w *walker) emit(th *lthread, key trace.Key, site int, lib bool, acc trace.Acc, conflict string) {
	th.vc.ensure(th.id)
	th.vc[th.id]++
	th.ops = append(th.ops, op{key: key, site: site, lib: lib, acc: acc, conflict: conflict, vc: th.vc.clone()})
	if lib {
		w.apis[key.Name()] = true
	}
}

// libPair emits the immediately-before / immediately-after call-site pair
// of a library API, the static mirror of sched's libBegin/libEnd.
func (w *walker) libPair(th *lthread, api string, site int) {
	w.emit(th, trace.KeyFor(trace.KindBegin, api), site, true, trace.AccNone, "")
	w.emit(th, trace.KeyFor(trace.KindEnd, api), site, true, trace.AccNone, "")
}

// walkCall inlines an application method call under pushCall semantics:
// Begin/End events unless the method is skip-listed.
func (w *walker) walkCall(th *lthread, method string, depth int) error {
	if depth > w.cfg.MaxCallDepth {
		return fmt.Errorf("%w: inlining %q at depth %d", ErrCallDepth, method, depth)
	}
	m, ok := w.p.Methods[method]
	if !ok {
		return fmt.Errorf("static: call of unknown method %q", method)
	}
	return w.walkWrapped(th, m.Name, m.Body, depth)
}

// walkWrapped walks body framed by method Begin/End events (suppressed
// for hidden methods — the body still walks, mirroring execution).
func (w *walker) walkWrapped(th *lthread, name string, body []prog.Stmt, depth int) error {
	if !w.hidden[name] {
		w.emit(th, trace.KeyFor(trace.KindBegin, name), 0, false, trace.AccNone, "")
	}
	if err := w.walkStmts(th, body, depth); err != nil {
		return err
	}
	if !w.hidden[name] {
		w.emit(th, trace.KeyFor(trace.KindEnd, name), 0, false, trace.AccNone, "")
	}
	return nil
}

// mergeHandle folds the completed state of the thread bound to handle
// into th (join semantics). Unknown handles are tolerated: the binding
// fork may live in a thread this walk has no order against, and a
// missing edge only means more windows get both orientations.
func (w *walker) mergeHandle(th *lthread, handle string) error {
	child, ok := w.handles[handle]
	if !ok {
		return nil
	}
	if err := w.walkThread(child); err != nil {
		return err
	}
	th.vc.merge(child.vc)
	return nil
}

func fieldClass(field, slot string) string { return "f:" + field + "#" + slot }

// walkStmts interprets a statement list, mirroring sched/exec.go's event
// emission statement by statement.
func (w *walker) walkStmts(th *lthread, stmts []prog.Stmt, depth int) error {
	for _, s := range stmts {
		switch st := s.(type) {
		case *prog.Compute, *prog.Sleep:
			// No events.

		case *prog.Read:
			w.emit(th, trace.KeyFor(trace.KindRead, st.Field), st.Site(), false, trace.AccRead, fieldClass(st.Field, st.Slot))

		case *prog.Write:
			w.emit(th, trace.KeyFor(trace.KindWrite, st.Field), st.Site(), false, trace.AccWrite, fieldClass(st.Field, st.Slot))

		case *prog.SpinUntil:
			// Dynamically one read per poll; statically one representative.
			w.emit(th, trace.KeyFor(trace.KindRead, st.Field), st.Site(), false, trace.AccRead, fieldClass(st.Field, st.Slot))

		case *prog.Call:
			if err := w.walkCall(th, st.Method, depth+1); err != nil {
				return err
			}

		case *prog.Loop:
			n := st.N
			if n > w.cfg.LoopUnroll {
				n = w.cfg.LoopUnroll
			}
			for i := 0; i < n; i++ {
				if err := w.walkStmts(th, st.Body, depth); err != nil {
					return err
				}
			}

		case *prog.AcquireLock:
			w.libPair(th, prog.APIMonitorEnter, st.Site())
		case *prog.ReleaseLock:
			w.libPair(th, prog.APIMonitorExit, st.Site())
		case *prog.SemSet:
			w.libPair(th, prog.APISemSet, st.Site())
		case *prog.SemWait:
			w.libPair(th, prog.APISemWait, st.Site())
		case *prog.WaitAll:
			w.libPair(th, prog.APIWaitAll, st.Site())

		case *prog.Post:
			api := st.API
			if api == "" {
				api = prog.APIPost
			}
			w.libPair(th, api, st.Site())

		case *prog.Receive:
			api := st.API
			if api == "" {
				api = prog.APIReceive
			}
			w.libPair(th, api, st.Site())
			if st.Handler != "" {
				if err := w.walkCall(th, st.Handler, depth+1); err != nil {
					return err
				}
			}

		case *prog.Fork:
			w.libPair(th, st.API.APIName(), st.Site())
			child, err := w.spawn(st.Method, th.vc.clone())
			if err != nil {
				return err
			}
			if st.Handle != "" {
				w.handles[st.Handle] = child
			}

		case *prog.HiddenFork:
			child, err := w.spawn(st.Method, th.vc.clone())
			if err != nil {
				return err
			}
			if st.Handle != "" {
				w.handles[st.Handle] = child
			}

		case *prog.Join:
			w.libPair(th, st.API.APIName(), st.Site())
			if err := w.mergeHandle(th, st.Handle); err != nil {
				return err
			}

		case *prog.LibWait:
			w.libPair(th, st.API, st.Site())
			if err := w.mergeHandle(th, st.Handle); err != nil {
				return err
			}

		case *prog.ContinueWith:
			w.libPair(th, prog.APIContinueWith, st.Site())
			start := th.vc.clone()
			if ant, ok := w.handles[st.Handle]; ok {
				if err := w.walkThread(ant); err != nil {
					return err
				}
				start.merge(ant.vc)
			}
			child, err := w.spawn(st.Method, start)
			if err != nil {
				return err
			}
			if st.NewHandle != "" {
				w.handles[st.NewHandle] = child
			}

		case *prog.UnsafeCall:
			cls := ""
			if st.Slot != "" { // slot "" maps to object id 0: not conflict-eligible
				cls = "u:" + st.Slot
			}
			w.emit(th, trace.KeyFor(trace.KindBegin, st.API), st.Site(), true, st.Acc, cls)
			w.emit(th, trace.KeyFor(trace.KindEnd, st.API), st.Site(), true, trace.AccNone, "")

		case *prog.RWAcquireRead:
			w.libPair(th, prog.APIRWAcquireRead, st.Site())
		case *prog.RWReleaseRead:
			w.libPair(th, prog.APIRWReleaseRead, st.Site())
		case *prog.RWUpgrade:
			w.libPair(th, prog.APIRWUpgrade, st.Site())
		case *prog.RWDowngrade:
			w.libPair(th, prog.APIRWDowngrade, st.Site())

		case *prog.BarrierWait:
			w.libPair(th, prog.APIBarrier, st.Site())

		case *prog.HiddenAcquire, *prog.HiddenRelease, *prog.HiddenSignal, *prog.HiddenWait:
			// Invisible synchronization: no events, and no static order —
			// the analysis must infer around it exactly like the dynamic one.

		case *prog.EnsureInit:
			if !w.inits[st.Class] {
				w.inits[st.Class] = true
				if err := w.walkCall(th, st.Ctor, depth+1); err != nil {
					return err
				}
			}

		case *prog.FinalizeObj:
			// Finalizer runs in a dedicated GC thread ordered after this
			// statement; nobody joins it.
			if _, err := w.spawn(st.Method, th.vc.clone()); err != nil {
				return err
			}

		default:
			return fmt.Errorf("%w: %T", ErrUnknownStmt, s)
		}
	}
	return nil
}

// hb reports whether a happens-before b: b's clock covers a's stamp.
func hb(a, b *op, athread int) bool {
	return b.vc.at(athread) >= a.vc.at(athread)
}

// located is one conflict-eligible op with its coordinates.
type located struct {
	th  *lthread
	idx int
}

// windows enumerates conflicting pairs across threads and synthesizes
// their acquire/release windows, deterministic in (class, thread, index)
// order. testName scopes the window UIDs.
func (w *walker) windows(testName string) []window.Window {
	byClass := map[string][]located{}
	for _, th := range w.threads {
		for i := range th.ops {
			o := &th.ops[i]
			if o.conflict == "" || o.acc == trace.AccNone {
				continue
			}
			if o.lib && !w.cfg.Window.UseUnsafeAPIs {
				continue
			}
			if len(byClass[o.conflict]) >= w.cfg.MaxClassOps {
				continue
			}
			byClass[o.conflict] = append(byClass[o.conflict], located{th: th, idx: i})
		}
	}
	classes := make([]string, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)

	var out []window.Window
	perPair := map[window.PairID]int{}
	uid := 0
	add := func(x, y located) {
		pid := window.PairID{First: x.th.ops[x.idx].site, Second: y.th.ops[y.idx].site}
		if perPair[pid] >= w.cfg.Window.PerPairCap {
			return
		}
		perPair[pid]++
		win := w.buildWindow(x, y)
		win.Test = testName
		win.UID = "s:" + testName + ":" + strconv.Itoa(uid)
		uid++
		out = append(out, win)
	}
	for _, c := range classes {
		ops := byClass[c]
		for i := 0; i < len(ops); i++ {
			for j := i + 1; j < len(ops); j++ {
				a, b := ops[i], ops[j]
				if a.th.id == b.th.id {
					continue
				}
				ao, bo := &a.th.ops[a.idx], &b.th.ops[b.idx]
				if ao.acc != trace.AccWrite && bo.acc != trace.AccWrite {
					continue
				}
				aHBb := hb(ao, bo, a.th.id)
				bHBa := hb(bo, ao, b.th.id)
				switch {
				case aHBb && !bHBa:
					add(a, b)
				case bHBa && !aHBb:
					add(b, a)
				default:
					// Unordered (or degenerate): both orientations.
					add(a, b)
					add(b, a)
				}
			}
		}
	}
	return out
}

// buildWindow is the static analogue of one window.BuildWindows window for
// the ordered conflict (x first, y second): the release side is x's thread's
// operations after x, the acquire side y's thread's operations before y,
// both bounded by the horizon and filtered to those that could fall
// between the two accesses under the known happens-before order.
func (w *walker) buildWindow(x, y located) window.Window {
	xo, yo := &x.th.ops[x.idx], &y.th.ops[y.idx]
	win := window.Window{
		App: w.p.Name, ThreadA: x.th.id, ThreadB: y.th.id,
		Pair: window.PairID{First: xo.site, Second: yo.site},
		TA:   int64(x.idx), TB: int64(y.idx),
	}
	for i := x.idx + 1; i < len(x.th.ops) && i <= x.idx+w.cfg.Horizon; i++ {
		e := &x.th.ops[i]
		// An op ordered after y would dynamically fall outside the window.
		if hb(yo, e, y.th.id) {
			break
		}
		win.RelEvents = append(win.RelEvents, window.CandEvent{Key: e.key, Time: int64(i)})
	}
	lo := y.idx - w.cfg.Horizon
	if lo < 0 {
		lo = 0
	}
	for i := lo; i < y.idx; i++ {
		e := &y.th.ops[i]
		// An op ordered before x would dynamically precede the window.
		if hb(e, xo, y.th.id) {
			continue
		}
		win.AcqEvents = append(win.AcqEvents, window.CandEvent{Key: e.key, Time: int64(i)})
	}
	return win
}
