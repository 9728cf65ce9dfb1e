// Package sched executes a prog.Program under a seeded discrete-event
// scheduler, standing in for the real runtime + Mono.Cecil instrumentation
// of the SherLock paper. It produces traces in the paper's log schema
// (internal/trace), supports delay injection before arbitrary candidate
// operations (the Perturber's tool), and can hide methods from the emitted
// trace (simulating the paper's instrumentation errors).
//
// Time is virtual (nanoseconds). The scheduler always advances the runnable
// thread with the smallest clock, so resource state changes happen in
// global time order and causality is exact; nondeterminism comes from
// per-statement duration jitter and dispatch latency drawn from a seeded
// PRNG, which is enough to flip the order of racing operations across
// seeds.
package sched

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"sherlock/internal/obs"
	"sherlock/internal/prog"
	"sherlock/internal/trace"
)

// Default virtual-time costs (nanoseconds).
const (
	costAccess   = 30 // heap read/write
	costMethod   = 20 // method entry/exit bookkeeping
	costLib      = 50 // library call service time
	costDispatch = 15 // scheduling latency upper bound per statement
)

// Options configures one execution.
type Options struct {
	// Seed drives all scheduling randomness. Equal seeds reproduce equal
	// interleavings bit-for-bit.
	Seed int64
	// Delays maps candidate keys to an injected delay (virtual ns) applied
	// immediately before every dynamic instance of the operation — the
	// Perturber's 100 ms (paper Section 4.3), scaled to virtual time.
	Delays map[trace.Key]int64
	// SiteDelays injects a delay before every dynamic instance of a
	// specific static statement site — the granularity TSVD works at.
	SiteDelays map[int]int64
	// DelayProbability applies each planned delay with this probability
	// per dynamic instance (0 or 1 mean always — the paper's default; its
	// footnote 1 reports probabilistic injection performs similarly).
	DelayProbability float64
	// HiddenMethods suppresses Begin/End events of the named application
	// methods (instrumentation-error simulation). The methods still run.
	HiddenMethods map[string]bool
	// MaxSteps bounds execution; 0 means the default (2,000,000).
	MaxSteps int
	// StepDist selects the distribution the per-statement dispatch
	// latency is drawn from ("" or DistUniform for the classic uniform
	// draw). Non-uniform distributions sample rare long stalls — zipf's
	// heavy tail and bursty's clustered stalls surface low-probability
	// interleaving windows in fewer runs ("When the Next Step Is Not One
	// Step"). Equal seeds still reproduce equal interleavings bit-for-bit
	// for any fixed distribution.
	StepDist string
	// DisableTracing turns off all event recording (used to measure
	// uninstrumented baseline cost for the overhead experiment).
	DisableTracing bool
	// Span, when non-nil, is the parent under which the run records a
	// "sched" child span (test, seed, steps, events, virtual time — all
	// deterministic attributes). A nil Span costs nothing.
	Span *obs.Span
}

// Step-distribution names for Options.StepDist.
const (
	DistUniform = "uniform" // uniform 0..costDispatch (the default)
	DistZipf    = "zipf"    // heavy-tailed: mostly tiny, occasionally 8x
	DistBursty  = "bursty"  // calm stretches broken by bursts of long stalls
)

// Dists lists the valid step distributions.
var Dists = []string{DistUniform, DistZipf, DistBursty}

// ValidDist reports whether d names a step distribution ("" selects the
// uniform default).
func ValidDist(d string) bool {
	if d == "" {
		return true
	}
	for _, q := range Dists {
		if d == q {
			return true
		}
	}
	return false
}

// DelayInstance records one applied perturbation for post-hoc propagation
// analysis (paper Figure 2 b/c).
type DelayInstance struct {
	Key    trace.Key
	Thread int
	Site   int
	Start  int64 // virtual time the delay began
	End    int64 // Start + delay duration
}

// Result is the outcome of one run.
type Result struct {
	Trace      *trace.Trace
	Delays     []DelayInstance
	Deadlocked bool
	Steps      int
	// VirtualDuration is the maximum thread clock at completion: the
	// virtual wall-clock of the test.
	VirtualDuration int64
	// NameIDs holds, aligned with Trace.Events, each event's name as its
	// ID in the program's event-name table (prog.Program.EventNames):
	// an in-memory side channel for extraction by ID
	// (window.BuildWindowsByID, window.TraceStatsByID). It is no trace
	// field, so no codec writes it; Recycle drops it with the events.
	NameIDs []trace.NameID

	// buf is the pooled buffer Trace.Events and NameIDs live in (nil
	// once recycled, and under DisableTracing).
	buf *eventBuf
}

// eventBuf is one run's event buffer: the events and their name IDs.
type eventBuf struct {
	events []trace.Event
	ids    []trace.NameID
}

// eventPool recycles event buffers between runs. A buffer comes back
// with the capacity of the longest trace it held, so after a few runs
// the scheduler appends events without growing the slices.
var eventPool = sync.Pool{New: func() any { return new(eventBuf) }}

// Recycle returns the run's event buffer to the scheduler for reuse and
// sets Trace.Events and NameIDs to nil. Call it once nothing reads the
// trace any more: the events (and anything pointing into them, such as
// window.Conflict) are overwritten by a later run. The rest of the
// Result stays valid. Recycle is a no-op on a nil Result, a second call,
// and a run under DisableTracing.
func (r *Result) Recycle() {
	if r == nil || r.buf == nil {
		return
	}
	evs := r.Trace.Events
	clear(evs) // drop the name strings the events hold
	r.buf.events, r.buf.ids = evs[:0], r.NameIDs[:0]
	eventPool.Put(r.buf)
	r.buf = nil
	r.Trace.Events, r.NameIDs = nil, nil
}

// ErrTooManySteps is returned when MaxSteps is exceeded (a spin loop whose
// flag is never set, or a pathological schedule).
var ErrTooManySteps = errors.New("sched: step budget exhausted")

type tstate uint8

const (
	stRunnable tstate = iota
	stBlocked
	stDone
)

// frame is one entry of a thread's call stack: a statement cursor plus
// optional method bookkeeping.
type frame struct {
	stmts  []Stmt
	pc     int
	remain int // loop iterations left (loop frames only)

	method *prog.Method // nil for a test body or loop frame
	obj    uint64
	onExit func(now int64)
}

// Stmt aliases prog.Stmt locally for brevity.
type Stmt = prog.Stmt

type thread struct {
	id     int
	clock  int64
	state  tstate
	stack  []*frame
	handle *nameState // handle signaled on completion (nil for none)

	// served marks the dynamic statement instance whose injected delay has
	// already been applied, so the next step executes it for real. Delays
	// are their own scheduling phase: during the bumped clock window every
	// other thread keeps running, preserving causality (a delayed write
	// must not be visible before its timestamp).
	served delayMarker

	// Blocking protocol: ready reports whether the thread can resume at
	// time now; wake consumes the resources and finishes the blocked
	// statement (emitting its End event and advancing the pc).
	ready func(now int64) bool
	wake  func(now int64)
}

// delayMarker identifies one dynamic statement instance: its frame and pc
// (pc −1 denotes the frame's method-exit point).
type delayMarker struct {
	f  *frame
	pc int
}

type machine struct {
	p   *prog.Program
	t   *prog.Test
	opt Options
	rng *rand.Rand

	threads []*thread
	nextTID int

	// The run's state of the program's compiled names, field instances
	// and methods, indexed by prog.ID (index 0 unused). Each is sized to
	// the program when the run starts; release zeroes it, so a pooled
	// machine keeps only zeroed capacity.
	names  []nameState
	cells  []cellState
	hidden []uint8 // per method: 0 not looked up yet, 1 shown, 2 hidden

	// Object identity: slots and resources draw object ids from one
	// first-use counter, field instances their addresses from another.
	nextObjID uint64
	nextAddr  uint64

	// The run's events and each one's name ID in evNames, the program's
	// event-name table, in the pooled buffer buf.
	events  []trace.Event
	ids     []trace.NameID
	evNames *trace.Names
	buf     *eventBuf
	delays  []DelayInstance
	steps   int

	// keyBuf is serveDelay's reused buffer for rendering candidate keys.
	keyBuf []byte

	// Step-distribution state: the zipf sampler is built lazily off the
	// run's rng; burst counts the remaining statements of an active
	// bursty-mode stall cluster.
	zipf  *rand.Zipf
	burst int
}

// nameState is one run's state of a compiled name (prog.Compiled): the
// object id of a slot or resource, and the resource's own state. A name
// uses the parts its kind needs; the zero value is an untouched name.
type nameState struct {
	obj     uint64 // object id, 0 until the name's first use as an object
	held    bool   // lock: held (visible and hidden locks share it)
	rw      rwState
	count   int // semaphore: pending signals; queue: pending messages
	barrier barrierState
	handle  handleState
	init    int // static initializer: 0 not started, 1 running, 2 done
}

type rwState struct {
	readers map[int]bool // built on the lock's first use in a run
	writing bool
}

// barrierState tracks Barrier.SignalAndWait arrivals per generation.
type barrierState struct {
	arrived    int
	generation int
}

type handleState struct {
	// tid is the thread last forked under the handle (instrumentation
	// reads it off the thread/task object).
	tid    int
	done   bool
	doneAt int64
	conts  []func(now int64) // continuations to fire on completion
}

// cellState is one run's state of a field instance: its address, 0 until
// first accessed, and its value.
type cellState struct {
	addr uint64
	val  int64
}

// ctxCheckMask throttles the scheduler loop's context polling: the loop
// checks ctx.Err() every 256 steps, bounding cancellation latency to a few
// microseconds of simulated work while keeping the uncancelable fast path
// free of per-step overhead.
const ctxCheckMask = 0xff

// Run executes one unit test of p under opt.
//
// Run is safe for concurrent use against a shared *prog.Program: all
// execution state lives in the per-call machine, the program is read-only
// once finalized, and Finalize itself serializes internally — so the
// parallel inference engine may dispatch many Runs of the same program
// (same or different tests) from different goroutines. Callers must not
// mutate opt.Delays, opt.SiteDelays or opt.HiddenMethods while any Run
// using them is in flight; the engine shares one immutable plan per round.
func Run(p *prog.Program, t *prog.Test, opt Options) (*Result, error) {
	return RunContext(context.Background(), p, t, opt)
}

// RunContext is Run with cooperative cancellation: the scheduler loop
// polls ctx every 256 steps, so even a pathological schedule (a spin loop
// burning the step budget) aborts promptly. On cancellation the returned
// error wraps ctx.Err(), so errors.Is(err, context.Canceled) and
// errors.Is(err, ctx.Err()) both match.
func RunContext(ctx context.Context, p *prog.Program, t *prog.Test, opt Options) (*Result, error) {
	if err := p.Finalize(); err != nil {
		return nil, err
	}
	span := opt.Span.Child("sched", obs.Str("test", t.Name), obs.Int64("seed", opt.Seed))
	res, err := runLoop(ctx, p, t, opt)
	if res != nil {
		span.Annotate(
			obs.Int("steps", res.Steps),
			obs.Int("events", res.Trace.Len()),
			obs.Int64("virtual_ns", res.VirtualDuration),
			obs.Bool("deadlocked", res.Deadlocked),
			obs.Int("delays", len(res.Delays)))
	}
	span.End()
	return res, err
}

// rngPool recycles the per-run generators. Each wraps a lazySource
// (rng.go): reseeding one with a run's seed costs a few nanoseconds, and
// it then yields exactly the stream rand.New(rand.NewSource(seed)) would,
// building only the register words the run's draws reach.
var rngPool = sync.Pool{New: func() any { return rand.New(&lazySource{}) }}

// machinePool recycles execution state between runs. A pooled machine
// comes back with the zeroed ID-indexed tables of its largest program and
// the thread structs of its longest run, so a run allocates only for the
// per-run objects its statements create.
var machinePool = sync.Pool{New: func() any { return new(machine) }}

// runLoop is the scheduler loop body shared by Run and RunContext; the program
// is already finalized.
func runLoop(ctx context.Context, p *prog.Program, t *prog.Test, opt Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sched: run not started (test %s): %w", t.Name, err)
	}
	maxSteps := opt.MaxSteps
	if maxSteps == 0 {
		maxSteps = 2_000_000
	}
	rng := rngPool.Get().(*rand.Rand)
	defer rngPool.Put(rng)
	rng.Seed(opt.Seed)
	m := newMachine(p, t, opt, rng)
	defer m.release()

	main := m.newThread(0)
	if initCall, body, handle := t.Framework(); initCall != nil {
		// Framework pattern (Figure 3.E): run the init method on the main
		// thread, then execute the test body as a named method in a fresh
		// thread with a hidden happens-before edge, then wait for it.
		main.stack = append(main.stack, &frame{stmts: []Stmt{
			initCall, &runTestBody{method: body, handle: handle},
		}})
	} else {
		main.stack = append(main.stack, &frame{stmts: t.Body})
	}

	for {
		th := m.pickRunnable()
		if th == nil {
			if m.allDone() {
				break
			}
			// No runnable, not all done: deadlock.
			return m.finish(true), nil
		}
		m.steps++
		if m.steps > maxSteps {
			return m.finish(false), fmt.Errorf("%w after %d steps (test %s)", ErrTooManySteps, m.steps, t.Name)
		}
		if m.steps&ctxCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return m.finish(false), fmt.Errorf("sched: run canceled after %d steps (test %s): %w", m.steps, t.Name, err)
			}
		}
		m.step(th)
	}
	return m.finish(false), nil
}

// newMachine returns the empty execution state of one run of t, drawing
// its randomness from rng. The machine comes from machinePool; release
// returns it.
func newMachine(p *prog.Program, t *prog.Test, opt Options, rng *rand.Rand) *machine {
	m := machinePool.Get().(*machine)
	*m = machine{
		p:         p,
		t:         t,
		opt:       opt,
		rng:       rng,
		threads:   m.threads,
		names:     sized(m.names, p.NumNames()+1),
		cells:     sized(m.cells, p.NumCells()+1),
		hidden:    sized(m.hidden, p.NumMethods()+1),
		evNames:   p.EventNames(),
		nextObjID: 1,
		nextAddr:  0x1000,
		keyBuf:    m.keyBuf,
	}
	if !opt.DisableTracing {
		m.buf = eventPool.Get().(*eventBuf)
		m.events, m.ids = m.buf.events[:0], m.buf.ids[:0]
	}
	return m
}

// release empties the machine and returns it to machinePool. The run's
// Result owns the events, their buffer and the delays, so the machine
// drops them, and with them every pointer into the run: the program, the
// test, the options and the generator.
func (m *machine) release() {
	for _, th := range m.threads {
		clear(th.stack[:cap(th.stack)])
		*th = thread{stack: th.stack[:0]}
	}
	m.threads = m.threads[:0]
	clear(m.names)
	clear(m.cells)
	clear(m.hidden)
	m.names, m.cells, m.hidden = m.names[:0], m.cells[:0], m.hidden[:0]
	m.p, m.t, m.opt, m.rng, m.zipf = nil, nil, Options{}, nil, nil
	m.events, m.ids, m.evNames, m.buf, m.delays = nil, nil, nil, nil, nil
	machinePool.Put(m)
}

// sized returns s resliced to length n, reusing its capacity when it has
// enough. Every element is zero: release zeroes a table before reslicing
// it to length 0.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// runTestBody is an internal statement used only for the TestInitialize
// pattern: it hidden-forks the test body as a named method, bound to
// handle, and blocks until it completes.
type runTestBody struct {
	method *prog.Method
	handle prog.ID
	site   int
}

func (l *runTestBody) Site() int     { return l.site }
func (l *runTestBody) SetSite(i int) { l.site = i }

func (m *machine) finish(deadlocked bool) *Result {
	sortByTime(m.events, m.ids)
	tr := &trace.Trace{App: m.p.Name, Test: m.t.Name, Seed: m.opt.Seed, Events: m.events}
	var maxClock int64
	for _, th := range m.threads {
		if th.clock > maxClock {
			maxClock = th.clock
		}
	}
	return &Result{
		Trace:           tr,
		Delays:          m.delays,
		Deadlocked:      deadlocked,
		Steps:           m.steps,
		VirtualDuration: maxClock,
		NameIDs:         m.ids,
		buf:             m.buf,
	}
}

// sortByTime stably sorts a run's events by time, moving each event's
// name ID with it. The scheduler emits events nearly in time order: an
// event lands at most a few places after its slot (at most 4, and at
// most one event in eight misplaced, over every test of the campaign
// mix at seeds 1-5, with and without delay plans), so an insertion sort
// makes about one comparison per event and moves only the misplaced
// ones, where sort.Stable's merge passes compare O(n log n) times on
// sorted input.
func sortByTime(evs []trace.Event, ids []trace.NameID) {
	for i := 1; i < len(evs); i++ {
		if evs[i].Time >= evs[i-1].Time {
			continue
		}
		e, id, j := evs[i], ids[i], i
		for ; j > 0 && evs[j-1].Time > e.Time; j-- {
			evs[j], ids[j] = evs[j-1], ids[j-1]
		}
		evs[j], ids[j] = e, id
	}
}

// newThread starts a thread at clock, reusing a thread struct (and its
// stack's backing array) that an earlier run of the pooled machine left.
func (m *machine) newThread(clock int64) *thread {
	var th *thread
	if n := len(m.threads); n < cap(m.threads) {
		th = m.threads[:n+1][n]
	}
	if th == nil {
		th = new(thread)
	}
	*th = thread{id: m.nextTID, clock: clock, state: stRunnable, stack: th.stack[:0]}
	m.nextTID++
	m.threads = append(m.threads, th)
	return th
}

// pickRunnable returns the runnable thread with the smallest clock (ties
// broken by id), or nil when none is runnable.
func (m *machine) pickRunnable() *thread {
	var best *thread
	for _, th := range m.threads {
		if th.state != stRunnable {
			continue
		}
		if best == nil || th.clock < best.clock {
			best = th
		}
	}
	return best
}

func (m *machine) allDone() bool {
	for _, th := range m.threads {
		if th.state != stDone {
			return false
		}
	}
	return true
}

// wakeBlocked re-evaluates every blocked thread's predicate at time now.
func (m *machine) wakeBlocked(now int64) {
	for _, th := range m.threads {
		if th.state != stBlocked {
			continue
		}
		if th.ready(now) {
			th.state = stRunnable
			if th.clock < now {
				th.clock = now
			}
			w := th.wake
			th.ready, th.wake = nil, nil
			w(th.clock)
			// A wake can change resource state; rescan from the start so
			// predicate evaluation stays deterministic in thread order.
			m.wakeBlocked(th.clock)
			return
		}
	}
}

// block parks the thread until ready(now); wake completes the statement.
func (m *machine) block(th *thread, ready func(int64) bool, wake func(int64)) {
	th.state = stBlocked
	th.ready = ready
	th.wake = wake
}

// errNotCompiled is the panic of a run that meets a statement
// prog.Finalize never compiled (one added after the program was
// finalized): its zero IDs would otherwise alias another name's state.
var errNotCompiled = errors.New("sched: statement not compiled by prog.Finalize (added after the program was finalized?)")

// state returns the run's state of a compiled name.
func (m *machine) state(id prog.ID) *nameState {
	if id <= 0 {
		panic(errNotCompiled)
	}
	return &m.names[id]
}

// method returns the method a compiled ID names.
func (m *machine) method(id prog.ID) *prog.Method {
	if id <= 0 {
		panic(errNotCompiled)
	}
	return m.p.MethodByID(id)
}

// object returns the run's object id of a compiled slot or resource name:
// its first use takes the next id from the counter, later uses find it.
// An empty slot (prog.NoObject) has no object, 0.
func (m *machine) object(id prog.ID) uint64 {
	if id == prog.NoObject {
		return 0
	}
	st := m.state(id)
	if st.obj == 0 {
		st.obj = m.nextObjID
		m.nextObjID++
	}
	return st.obj
}

// resource returns a compiled resource's state and its object id.
func (m *machine) resource(id prog.ID) (*nameState, uint64) {
	return m.state(id), m.object(id)
}

// cell returns the run's state of a compiled field instance: the first
// access allocates the next address, later accesses find it.
func (m *machine) cell(id prog.ID) *cellState {
	if id <= 0 {
		panic(errNotCompiled)
	}
	c := &m.cells[id]
	if c.addr == 0 {
		c.addr = m.nextAddr
		m.nextAddr += 8
	}
	return c
}

// jitter returns d scaled by a uniform factor in [1-j, 1+j].
func (m *machine) jitter(d int64, j float64) int64 {
	if d <= 0 {
		return 0
	}
	f := 1 + j*(2*m.rng.Float64()-1)
	v := int64(float64(d) * f)
	if v < 1 {
		v = 1
	}
	return v
}

// dispatch returns the random scheduling latency added before a
// statement, drawn from Options.StepDist. All draws consume the run's
// seeded rng, so every distribution is bit-for-bit reproducible.
func (m *machine) dispatch() int64 {
	switch m.opt.StepDist {
	case DistZipf:
		// Heavy tail up to 8x the uniform bound: most statements pay
		// almost nothing, a few pay a long stall — rare windows open in
		// fewer runs than the uniform draw needs.
		if m.zipf == nil {
			m.zipf = rand.NewZipf(m.rng, 1.3, 1, costDispatch*8)
		}
		return int64(m.zipf.Uint64())
	case DistBursty:
		// Calm stretches (≤ a third of the uniform bound) broken by rare
		// clusters of 4-11 consecutive long stalls, modeling GC pauses
		// and scheduler preemption storms.
		if m.burst > 0 {
			m.burst--
			return costDispatch*4 + int64(m.rng.Intn(costDispatch*8+1))
		}
		if m.rng.Intn(64) == 0 {
			m.burst = 4 + m.rng.Intn(8)
		}
		return int64(m.rng.Intn(costDispatch/3 + 1))
	default:
		return int64(m.rng.Intn(costDispatch + 1))
	}
}

// emit appends a log entry, whose name has ID id in the program's
// event-name table, unless tracing is disabled.
func (m *machine) emit(e trace.Event, id trace.NameID) {
	if m.opt.DisableTracing {
		return
	}
	m.events = append(m.events, e)
	m.ids = append(m.ids, id)
}

// serveDelay implements two-phase delay injection for the dynamic
// statement instance identified by marker, whose candidate operations are
// name under each of kinds. On the first visit with a planned delay it
// bumps the thread clock, records the instances, and returns true: the
// delay consumed this scheduling step, and every other thread keeps
// running inside the delay window before the statement's effects become
// visible. The next visit executes the statement for real.
func (m *machine) serveDelay(th *thread, marker delayMarker, site int, name string, kinds []trace.Kind) bool {
	if th.served == marker {
		th.served = delayMarker{}
		return false
	}
	var total int64
	for _, k := range kinds {
		total += m.delayOf(k, name)
	}
	siteDelay := m.opt.SiteDelays[site]
	total += siteDelay
	if total == 0 {
		return false
	}
	if p := m.opt.DelayProbability; p > 0 && p < 1 && m.rng.Float64() >= p {
		// Probabilistic injection: skip this dynamic instance. The
		// statement executes immediately (no second visit re-rolls).
		return false
	}
	for _, k := range kinds {
		if m.delayOf(k, name) > 0 {
			m.delays = append(m.delays, DelayInstance{
				Key: trace.KeyFor(k, name), Thread: th.id, Site: site, Start: th.clock, End: th.clock + total,
			})
		}
	}
	if siteDelay > 0 {
		var key trace.Key
		if len(kinds) > 0 {
			key = trace.KeyFor(kinds[0], name)
		}
		m.delays = append(m.delays, DelayInstance{
			Key: key, Thread: th.id, Site: site, Start: th.clock, End: th.clock + total,
		})
	}
	th.clock += total
	th.served = marker
	return true
}

// delayOf returns the planned delay of the candidate key (k, name). It
// renders the key into the run's reused buffer, so a step's plan lookups
// build no key strings.
func (m *machine) delayOf(k trace.Kind, name string) int64 {
	m.keyBuf = trace.AppendKey(m.keyBuf[:0], k, name)
	return m.opt.Delays[trace.Key(m.keyBuf)]
}

// planned reports whether the run has a delay plan. Without one no
// statement is ever delayed, so the step loop looks up no candidate keys.
func (m *machine) planned() bool {
	return len(m.opt.Delays) > 0 || len(m.opt.SiteDelays) > 0
}

// hides reports whether the run's HiddenMethods suppresses mm's events,
// looking the name up once per method and run.
func (m *machine) hides(mm *prog.Method) bool {
	if len(m.opt.HiddenMethods) == 0 {
		return false
	}
	id := mm.ID()
	if id <= 0 {
		panic(errNotCompiled)
	}
	if m.hidden[id] == 0 {
		m.hidden[id] = 1
		if m.opt.HiddenMethods[mm.Name] {
			m.hidden[id] = 2
		}
	}
	return m.hidden[id] == 2
}

// exitMethod emits the method End event and runs completion hooks.
func (m *machine) exitMethod(th *thread, f *frame) {
	th.clock += m.jitter(costMethod, 0.3)
	if !m.hides(f.method) {
		m.emit(trace.Event{
			Time: th.clock, Thread: th.id, Kind: trace.KindEnd,
			Name: f.method.Name, Obj: f.obj,
		}, f.method.NameID())
	}
	if f.onExit != nil {
		f.onExit(th.clock)
	}
	m.wakeBlocked(th.clock)
}

// pushCall pushes an invocation frame for mm on receiver obj, emitting
// the Begin event.
func (m *machine) pushCall(th *thread, mm *prog.Method, obj uint64) *frame {
	th.clock += m.jitter(costMethod, 0.3)
	if !m.hides(mm) {
		m.emit(trace.Event{
			Time: th.clock, Thread: th.id, Kind: trace.KindBegin,
			Name: mm.Name, Obj: obj,
		}, mm.NameID())
	}
	f := &frame{stmts: mm.Body, method: mm, obj: obj}
	th.stack = append(th.stack, f)
	return f
}

// finishThread marks th done and fires its handle's completions.
func (m *machine) finishThread(th *thread) {
	th.state = stDone
	if th.handle != nil {
		h := &th.handle.handle
		h.done = true
		h.doneAt = th.clock
		for _, c := range h.conts {
			c(th.clock)
		}
		h.conts = nil
	}
	m.wakeBlocked(th.clock)
}

// rwlock returns the state of a compiled reader-writer lock and its
// object id.
func (m *machine) rwlock(id prog.ID) (*rwState, uint64) {
	st, obj := m.resource(id)
	if st.rw.readers == nil {
		st.rw.readers = map[int]bool{}
	}
	return &st.rw, obj
}
