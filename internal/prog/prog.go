// Package prog defines the concurrent-program model that stands in for the
// C# application binaries of the SherLock paper. A Program is a set of
// application methods and unit tests written in a small statement DSL
// (stmt.go); internal/sched executes it under a seeded discrete-event
// scheduler, producing traces in the paper's log schema.
//
// Each Program carries a machine-readable ground Truth so the evaluation
// harness can score inference results exactly the way the paper's manual
// inspection did (Tables 2, 4, 5; Figure 4).
package prog

import (
	"cmp"
	"fmt"
	"sort"
	"sync"

	"sherlock/internal/trace"
)

// C#-style library API names used by the visible primitives.
const (
	APIMonitorEnter  = "System.Threading.Monitor::Enter"
	APIMonitorExit   = "System.Threading.Monitor::Exit"
	APISemSet        = "System.Threading.EventWaitHandle::Set"
	APISemWait       = "System.Threading.WaitHandle::WaitOne"
	APIWaitAll       = "System.Threading.WaitHandle::WaitAll"
	APIPost          = "System.Threading.Tasks.Dataflow.DataflowBlock::Post"
	APIReceive       = "System.Threading.Tasks.Dataflow.DataflowBlock::Receive"
	APIContinueWith  = "System.Threading.Tasks.Task::ContinueWith"
	APIRWAcquireRead = "System.Threading.ReaderWriterLock::AcquireReaderLock"
	APIRWReleaseRead = "System.Threading.ReaderWriterLock::ReleaseReaderLock"
	APIRWUpgrade     = "System.Threading.ReaderWriterLock::UpgradeToWriterLock"
	APIRWDowngrade   = "System.Threading.ReaderWriterLock::DowngradeFromWriterLock"
	APIGetResult     = "System.Runtime.CompilerServices.TaskAwaiter::GetResult"
	APIBarrier       = "System.Threading.Barrier::SignalAndWait"
)

// Method is an application method: a named body of statements. The receiver
// object is supplied by the caller (Call/Fork/... statements).
type Method struct {
	Name string // fully qualified "Class::Member"
	Body []Stmt

	id   ID           // set by Program.Finalize
	name trace.NameID // set by Program.Finalize
}

// ID returns the method's compiled ID (0 for a method Program.Finalize
// never saw).
func (m *Method) ID() ID { return m.id }

// NameID returns the ID of the method's name in the program's event-name
// table (EventNames), which its Begin and End events carry (0 for a
// method Program.Finalize never saw).
func (m *Method) NameID() trace.NameID { return m.name }

// Test is one unit test. Init, when non-empty, names a method the test
// framework runs before the body with a framework-enforced (hidden)
// happens-before edge — the TestInitialize pattern of paper Figure 3.E.
type Test struct {
	Name string
	Init string
	Body []Stmt

	// Set by Program.Finalize when Init is non-empty (see Framework).
	init       *Call
	body       *Method
	bodyHandle ID
}

// Framework returns what Program.Finalize compiled for a test with an
// Init method: the call of Init on the framework's receiver slot "@init",
// the body as a method the framework runs in a thread of its own, and
// the handle "@test-body" that thread binds. It returns nil, nil, 0 for a
// test without Init.
func (t *Test) Framework() (initCall *Call, body *Method, bodyHandle ID) {
	return t.init, t.body, t.bodyHandle
}

// FPCategory labels a misclassification bucket from the paper's Tables 2/4.
type FPCategory string

// Misclassification buckets.
const (
	CatDataRacy   FPCategory = "data-racy"    // participates in a true data race
	CatInstrError FPCategory = "instr-errors" // caused by observer skip-list errors
	CatDoubleRole FPCategory = "double-roles" // Single-Role violation (UpgradeToWriterLock)
	CatDispose    FPCategory = "dispose"      // unrefinable GC/dispose windows
	CatStaticCtor FPCategory = "static-ctor"  // static-constructor pairing failures
	CatOther      FPCategory = "others"       // everything else
)

// Truth is the ground-truth annotation of a Program, playing the role of the
// paper authors' manual inspection.
type Truth struct {
	// Syncs maps every true synchronization operation to its role.
	Syncs map[trace.Key]trace.Role
	// RacyKeys marks operations that participate in true data races. An
	// inferred op in this set counts in Table 2's "Data Racy" column.
	RacyKeys map[trace.Key]bool
	// RacyFields names heap fields (or unsafe-collection objects, by static
	// name) whose conflicting accesses form true data races; a race
	// detector report on any other location is a false race (Table 3).
	RacyFields map[string]bool
	// HiddenMethods lists application methods the Observer's skip-list
	// heuristics erroneously hide (never traced) — the paper's
	// instrumentation errors.
	HiddenMethods map[string]bool
	// Category assigns Tables 2/4 buckets to specific keys: a key listed
	// here that is inferred despite not being a true sync is counted in
	// that bucket; a true sync listed here that is missed is a false
	// negative of that bucket.
	Category map[trace.Key]FPCategory
	// Optional marks true synchronizations that are alternates of another
	// sync (e.g. a GetOrAdd region boundary vs. the delegate it runs):
	// correct when inferred, but not a false negative when absent.
	Optional map[trace.Key]bool
}

// NewTruth returns an empty, fully allocated Truth.
func NewTruth() Truth {
	return Truth{
		Syncs:         map[trace.Key]trace.Role{},
		RacyKeys:      map[trace.Key]bool{},
		RacyFields:    map[string]bool{},
		HiddenMethods: map[string]bool{},
		Category:      map[trace.Key]FPCategory{},
		Optional:      map[trace.Key]bool{},
	}
}

// Sync records k as a true synchronization with role r.
func (t *Truth) Sync(k trace.Key, r trace.Role) { t.Syncs[k] = r }

// SyncAlt records k as a true synchronization that is an alternate of
// another (not counted missed when absent).
func (t *Truth) SyncAlt(k trace.Key, r trace.Role) {
	t.Syncs[k] = r
	t.Optional[k] = true
}

// Race records field (by static name) as truly racy and marks both its read
// and write keys as race participants.
func (t *Truth) Race(field string) {
	t.RacyFields[field] = true
	t.RacyKeys[trace.KeyFor(trace.KindRead, field)] = true
	t.RacyKeys[trace.KeyFor(trace.KindWrite, field)] = true
}

// Program is one benchmark application.
type Program struct {
	Name       string // application id, e.g. "App-4"
	Title      string // human name, e.g. "K8s-client"
	LoC        int    // Table 1 metadata (paper's figures, for the inventory)
	Stars      int
	PaperTests int // number of unit tests in the original application

	Methods map[string]*Method
	Tests   []*Test
	Truth   Truth

	// Volatile lists the fields the application's authors annotated
	// volatile; the Manual_dr race-detector variant (Table 3) honors these,
	// mirroring the paper's manually specified synchronization list.
	Volatile map[string]bool

	// mu serializes Finalize so concurrent executors (the parallel
	// inference engine runs sched.Run from many goroutines) can all call
	// it safely; after the first call succeeds the program is immutable
	// and every later call is a cheap guarded read.
	mu        sync.Mutex
	finalized bool
	numSites  int
	numNames  int
	numCells  int
	methods   []*Method    // by ID; index 0 unused
	events    *trace.Names // every name an event can carry
}

// New returns an empty program with allocated maps.
func New(name, title string) *Program {
	return &Program{
		Name:     name,
		Title:    title,
		Methods:  map[string]*Method{},
		Truth:    NewTruth(),
		Volatile: map[string]bool{},
	}
}

// AddMethod registers an application method and returns it.
func (p *Program) AddMethod(name string, body ...Stmt) *Method {
	if _, dup := p.Methods[name]; dup {
		panic(fmt.Sprintf("prog: duplicate method %q", name))
	}
	m := &Method{Name: name, Body: body}
	p.Methods[name] = m
	return m
}

// AddTest registers a unit test with no framework init method.
func (p *Program) AddTest(name string, body ...Stmt) *Test {
	return p.AddTestWithInit(name, "", body...)
}

// AddTestWithInit registers a unit test whose framework runs init (a method
// name) before the body with a hidden happens-before edge.
func (p *Program) AddTestWithInit(name, init string, body ...Stmt) *Test {
	t := &Test{Name: name, Init: init, Body: body}
	p.Tests = append(p.Tests, t)
	return t
}

// NumSites returns the number of static statement sites (valid after
// Finalize).
func (p *Program) NumSites() int { return p.numSites }

// NumNames, NumCells and NumMethods return the sizes of the compiled name
// tables (valid after Finalize): every Compiled.Obj, Res, Handle and Sems
// ID lies in 1..NumNames, every Cell in 1..NumCells and every method ID,
// the test bodies Framework returns included, in 1..NumMethods.
func (p *Program) NumNames() int   { return p.numNames }
func (p *Program) NumCells() int   { return p.numCells }
func (p *Program) NumMethods() int { return max(len(p.methods)-1, 0) }

// MethodByID returns the method a compiled ID names (valid after
// Finalize, for IDs in 1..NumMethods).
func (p *Program) MethodByID(id ID) *Method { return p.methods[id] }

// EventNames returns the program's event-name table (valid after
// Finalize): every field, library API, method and test-body name the
// program's events can carry. The scheduler reports each event's ID in
// it (sched.Result.NameIDs). The table is sealed: no name can be added.
func (p *Program) EventNames() *trace.Names { return p.events }

// Finalize assigns unique static site ids to every statement (in
// deterministic order), compiles every statement's names to dense IDs
// (Compiled), enters every name an event can carry in the event-name
// table (EventNames) and validates that every referenced method exists.
// It must be called after construction and is idempotent. Finalize is
// safe for concurrent use: the first caller performs the (mutating)
// compilation under a lock, every later caller returns immediately. Do
// not add methods, tests or statements after the first Finalize: an
// executor refuses a statement whose IDs are zero.
func (p *Program) Finalize() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.finalized {
		return nil
	}
	names := make([]string, 0, len(p.Methods))
	for n := range p.Methods {
		names = append(names, n)
	}
	sort.Strings(names)
	c := compiler{p: p, site: 1, names: map[string]ID{}, cells: map[[2]string]ID{}, events: trace.NewNames()} // site 0 is "no site"
	p.methods = append(p.methods[:0], nil)
	for _, n := range names {
		c.addMethod(p.Methods[n])
	}
	for _, n := range names {
		c.body(n, p.Methods[n].Body)
	}
	for _, t := range p.Tests {
		t.init, t.body, t.bodyHandle = nil, nil, 0
		if t.Init != "" {
			t.init = &Call{Method: t.Init, Slot: "@init"}
			c.stmt(t.Name, t.init)
			t.body = &Method{Name: t.Name, Body: t.Body}
			c.addMethod(t.body)
			t.bodyHandle = c.res("handle", "@test-body")
		}
		c.body(t.Name, t.Body)
	}
	if c.err != nil {
		return c.err
	}
	p.numSites = c.site
	p.numNames, p.numCells = len(c.names), len(c.cells)
	c.events.Seal()
	p.events = c.events
	p.finalized = true
	return nil
}

// compiler is one Finalize pass: the next site id, the name, cell and
// event-name tables being built and the first unknown-method error.
type compiler struct {
	p      *Program
	site   int
	names  map[string]ID
	cells  map[[2]string]ID
	events *trace.Names
	err    error
}

// addMethod gives m the next method ID and enters its name as an event
// name.
func (c *compiler) addMethod(m *Method) {
	m.id = ID(len(c.p.methods))
	m.name = c.events.Intern(m.Name)
	c.p.methods = append(c.p.methods, m)
}

// body assigns sites to ss (loop bodies included) and compiles each
// statement; owner names the method or test for error messages.
func (c *compiler) body(owner string, ss []Stmt) {
	for _, s := range ss {
		s.SetSite(c.site)
		c.site++
		c.stmt(owner, s)
		if l, ok := s.(*Loop); ok {
			c.body(owner, l.Body)
		}
	}
}

// stmt compiles one statement's names (see Compiled).
func (c *compiler) stmt(owner string, s Stmt) {
	switch st := s.(type) {
	case *Read:
		st.c = Compiled{Obj: c.slot(st.Slot), Cell: c.cell(st.Field, st.Slot), Name: c.event(st.Field)}
	case *Write:
		st.c = Compiled{Obj: c.slot(st.Slot), Cell: c.cell(st.Field, st.Slot), Name: c.event(st.Field)}
	case *SpinUntil:
		st.c = Compiled{Obj: c.slot(st.Slot), Cell: c.cell(st.Field, st.Slot), Name: c.event(st.Field)}
	case *Call:
		st.c = Compiled{Obj: c.slot(st.Slot), Method: c.method(owner, st.Method)}
	case *Fork:
		st.c = Compiled{Obj: c.slot(st.Slot), Handle: c.res("handle", st.Handle), Method: c.method(owner, st.Method),
			Name: c.event(st.API.APIName())}
	case *HiddenFork:
		st.c = Compiled{Obj: c.slot(st.Slot), Handle: c.res("handle", st.Handle), Method: c.method(owner, st.Method)}
	case *ContinueWith:
		st.c = Compiled{Obj: c.slot(st.Slot), Res: c.res("handle", st.Handle),
			Handle: c.res("handle", st.NewHandle), Method: c.method(owner, st.Method), Name: c.event(APIContinueWith)}
	case *Join:
		st.c = Compiled{Res: c.res("handle", st.Handle), Name: c.event(st.API.APIName())}
	case *LibWait:
		st.c = Compiled{Res: c.res("handle", st.Handle), Name: c.event(st.API)}
	case *Post:
		st.c = Compiled{Res: c.res("queue", st.Queue), Name: c.event(cmp.Or(st.API, APIPost))}
	case *Receive:
		st.c = Compiled{Obj: c.slot(st.HandlerSlot), Res: c.res("queue", st.Queue), Method: c.method(owner, st.Handler),
			Name: c.event(cmp.Or(st.API, APIReceive))}
	case *FinalizeObj:
		st.c = Compiled{Obj: c.slot(st.Slot), Method: c.method(owner, st.Method)}
	case *UnsafeCall:
		st.c = Compiled{Obj: c.slot(st.Slot), Name: c.event(st.API)}
	case *EnsureInit:
		st.c = Compiled{Res: c.res("init", st.Class), Method: c.method(owner, st.Ctor)}
	case *AcquireLock:
		st.c = Compiled{Res: c.res("lock", st.Lock), Name: c.event(APIMonitorEnter)}
	case *ReleaseLock:
		st.c = Compiled{Res: c.res("lock", st.Lock), Name: c.event(APIMonitorExit)}
	case *HiddenAcquire:
		st.c = Compiled{Res: c.res("lock", st.Lock)}
	case *HiddenRelease:
		st.c = Compiled{Res: c.res("lock", st.Lock)}
	case *RWAcquireRead:
		st.c = Compiled{Res: c.res("rw", st.Lock), Name: c.event(APIRWAcquireRead)}
	case *RWReleaseRead:
		st.c = Compiled{Res: c.res("rw", st.Lock), Name: c.event(APIRWReleaseRead)}
	case *RWUpgrade:
		st.c = Compiled{Res: c.res("rw", st.Lock), Name: c.event(APIRWUpgrade)}
	case *RWDowngrade:
		st.c = Compiled{Res: c.res("rw", st.Lock), Name: c.event(APIRWDowngrade)}
	case *SemSet:
		st.c = Compiled{Res: c.res("sem", st.Sem), Name: c.event(APISemSet)}
	case *SemWait:
		st.c = Compiled{Res: c.res("sem", st.Sem), Name: c.event(APISemWait)}
	case *HiddenSignal:
		st.c = Compiled{Res: c.res("sem", st.Sem)}
	case *HiddenWait:
		st.c = Compiled{Res: c.res("sem", st.Sem)}
	case *WaitAll:
		sems := make([]ID, len(st.Sems))
		for i, sem := range st.Sems {
			sems[i] = c.res("sem", sem)
		}
		st.c = Compiled{Sems: sems, Name: c.event(APIWaitAll)}
	case *BarrierWait:
		st.c = Compiled{Res: c.res("barrier", st.Barrier), Name: c.event(APIBarrier)}
	}
}

// event enters an event name in the event-name table.
func (c *compiler) event(name string) trace.NameID { return c.events.Intern(name) }

// name returns s's ID in the name table, entering it on first sight.
func (c *compiler) name(s string) ID {
	id, ok := c.names[s]
	if !ok {
		id = ID(len(c.names) + 1)
		c.names[s] = id
	}
	return id
}

// slot compiles a receiver slot name (NoObject when empty).
func (c *compiler) slot(s string) ID {
	if s == "" {
		return NoObject
	}
	return c.name(s)
}

// res compiles a resource name of the given kind.
func (c *compiler) res(kind, name string) ID { return c.name("$" + kind + "$" + name) }

// cell compiles a (field, slot) field instance.
func (c *compiler) cell(field, slot string) ID {
	k := [2]string{field, slot}
	id, ok := c.cells[k]
	if !ok {
		id = ID(len(c.cells) + 1)
		c.cells[k] = id
	}
	return id
}

// method resolves a method reference ("" resolves to 0), recording the
// first unknown name as Finalize's error.
func (c *compiler) method(owner, name string) ID {
	if name == "" {
		return 0
	}
	m := c.p.Methods[name]
	if m == nil {
		if c.err == nil {
			c.err = fmt.Errorf("prog %s: %s references unknown method %q", c.p.Name, owner, name)
		}
		return 0
	}
	return m.id
}

// MustFinalize is Finalize that panics on error; benchmark apps are static
// and validated by tests, so construction errors are programming bugs.
func (p *Program) MustFinalize() *Program {
	if err := p.Finalize(); err != nil {
		panic(err)
	}
	return p
}
