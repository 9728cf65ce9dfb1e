// Statement vocabulary of the program model.
//
// A statement is the unit the scheduler interleaves. Visible statements emit
// log entries in the trace schema; hidden statements have scheduling
// semantics (blocking, ordering) but emit nothing — they model
// synchronization implemented inside frameworks, libraries, the language
// runtime or the operating system, which the paper's SherLock explicitly
// does not instrument and must infer around.
package prog

import "sherlock/internal/trace"

// Stmt is one statement in a method or test body.
type Stmt interface {
	// Site returns the unique static site id assigned by Program.Finalize.
	Site() int
	SetSite(int)
}

// base provides site-id plumbing and the compiled names for every
// statement type.
type base struct {
	id int
	c  Compiled
}

func (b *base) Site() int     { return b.id }
func (b *base) SetSite(i int) { b.id = i }

// Compiled returns what Program.Finalize resolved the statement's names
// to (all zero for a statement it never visited).
func (b *base) Compiled() *Compiled { return &b.c }

// ID is a compiled name: a dense, 1-based index into one of a finalized
// program's tables (NumNames, NumCells, NumMethods). The zero ID marks a
// statement Program.Finalize never visited.
type ID int32

// NoObject is the compiled object of an empty slot name: the statement
// has no receiver object.
const NoObject ID = -1

// Compiled is what Program.Finalize resolves a statement's names to, so an
// executor indexes its per-run state by ID instead of hashing names. A
// statement uses the fields its type has names for; the rest stay zero.
//
// Slot names and resource names share one table: an executor gives both
// their object ids from one first-use counter. A resource is entered as
// "$kind$name" (kinds lock, rw, sem, queue, barrier, handle, init), so
// equal names of different kinds stay apart.
type Compiled struct {
	// Obj is the receiver slot's object name: Slot of Read, Write,
	// SpinUntil, Call, Fork, HiddenFork, ContinueWith, UnsafeCall and
	// FinalizeObj, and HandlerSlot of Receive. NoObject for an empty slot.
	Obj ID
	// Cell is the field instance of Read, Write and SpinUntil: one ID per
	// distinct (Field, Slot) pair.
	Cell ID
	// Res is the named resource: the lock of AcquireLock, ReleaseLock,
	// HiddenAcquire and HiddenRelease, the reader-writer lock of the RW
	// statements, the semaphore of SemSet, SemWait, HiddenSignal and
	// HiddenWait, the queue of Post and Receive, the barrier of
	// BarrierWait, the class of EnsureInit, and the handle Join, LibWait
	// and ContinueWith wait on.
	Res ID
	// Handle is the handle a spawned thread binds: Handle of Fork and
	// HiddenFork, NewHandle of ContinueWith.
	Handle ID
	// Method is the method the statement runs (see Program.MethodByID):
	// Method of Call, Fork, HiddenFork, ContinueWith and FinalizeObj,
	// Handler of Receive (0 when it has none) and Ctor of EnsureInit.
	Method ID
	// Sems are WaitAll's semaphores.
	Sems []ID
	// Name is the name the statement's own events carry, in the
	// program's event-name table (Program.EventNames): Field of Read,
	// Write and SpinUntil, and the library API of every call-site
	// statement (Post's and Receive's default API when theirs is empty).
	// 0 for a statement that emits no event of its own; a method's
	// events carry its Method.NameID.
	Name trace.NameID
}

// ---------------------------------------------------------------------------
// Plain computation and heap accesses
// ---------------------------------------------------------------------------

// Compute models straight-line work taking Dur virtual nanoseconds, with a
// multiplicative uniform jitter of ±Jitter (0 ≤ Jitter < 1). No events.
type Compute struct {
	base
	Dur    int64
	Jitter float64
}

// Read is a heap read of Field (a "Class::field" name) on the object bound
// to Slot. Emits a KindRead event.
type Read struct {
	base
	Field string
	Slot  string
}

// Write is a heap write of Val to Field on Slot. Emits a KindWrite event.
type Write struct {
	base
	Field string
	Slot  string
	Val   int64
}

// SpinUntil repeatedly reads Field on Slot until it equals Want, sleeping
// Backoff virtual nanoseconds between polls. Each poll emits a KindRead
// event — this is how while-loop flag synchronization becomes visible to
// the Observer (paper Figure 3.B).
type SpinUntil struct {
	base
	Field   string
	Slot    string
	Want    int64
	Backoff int64
}

// ---------------------------------------------------------------------------
// Application method calls and control flow
// ---------------------------------------------------------------------------

// Call invokes the application method named Method with receiver Slot.
// Emits KindBegin / KindEnd events around the body.
type Call struct {
	base
	Method string
	Slot   string
}

// Loop repeats Body N times.
type Loop struct {
	base
	N    int
	Body []Stmt
}

// Sleep advances the executing thread's clock by Dur without emitting
// events. Used to shape interleavings inside workloads.
type Sleep struct {
	base
	Dur int64
}

// ---------------------------------------------------------------------------
// Visible library primitives
//
// Each emits KindBegin/KindEnd call-site events with Lib=true under its
// C#-style API name; blocking happens between the two events.
// ---------------------------------------------------------------------------

// AcquireLock is Monitor.Enter on the named lock.
type AcquireLock struct {
	base
	Lock string
}

// ReleaseLock is Monitor.Exit on the named lock.
type ReleaseLock struct {
	base
	Lock string
}

// SemSet signals the named event/semaphore (EventWaitHandle.Set).
type SemSet struct {
	base
	Sem string
}

// SemWait blocks until the named event/semaphore is signaled
// (WaitHandle.WaitOne). Consumes one signal.
type SemWait struct {
	base
	Sem string
}

// WaitAll blocks until every named semaphore has been signaled
// (WaitHandle.WaitAll) — the paper's n-to-1 synchronization example.
type WaitAll struct {
	base
	Sems []string
}

// Post enqueues a message into the named dataflow queue
// (DataflowBlock.Post by default; API overrides the traced name for other
// producer-side APIs with the same semantics, e.g. Stream.CopyTo).
type Post struct {
	base
	Queue string
	API   string
}

// Receive blocks until a message is available in the named queue
// (DataflowBlock.Receive) and then, if Handler is non-empty, runs the
// handler method in the receiving thread (paper Figure 3.A).
type Receive struct {
	base
	Queue       string
	Handler     string
	HandlerSlot string
	API         string // traced name override (e.g. Stream.Read)
}

// ForkAPI selects which C# task-creation API a Fork models. The paper's
// Manual_dr misses several of these (Table 3 discussion).
type ForkAPI int

// Fork APIs.
const (
	ForkThread     ForkAPI = iota // Thread.Start
	ForkTaskRun                   // Task.Run
	ForkTaskNew                   // TaskFactory.StartNew
	ForkThreadPool                // ThreadPool.QueueUserWorkItem
)

// APIName returns the C#-style name used in the trace.
func (f ForkAPI) APIName() string {
	switch f {
	case ForkThread:
		return "System.Threading.Thread::Start"
	case ForkTaskRun:
		return "System.Threading.Tasks.Task::Run"
	case ForkTaskNew:
		return "System.Threading.Tasks.TaskFactory::StartNew"
	default:
		return "System.Threading.ThreadPool::QueueUserWorkItem"
	}
}

// Fork spawns a new thread running Method on Slot, binding the thread to
// Handle for later joining.
type Fork struct {
	base
	API    ForkAPI
	Method string
	Slot   string
	Handle string
}

// JoinAPI selects the join flavor.
type JoinAPI int

// Join APIs.
const (
	JoinThread JoinAPI = iota // Thread.Join
	JoinTask                  // Task.Wait
)

// APIName returns the C#-style name used in the trace.
func (j JoinAPI) APIName() string {
	if j == JoinThread {
		return "System.Threading.Thread::Join"
	}
	return "System.Threading.Tasks.Task::Wait"
}

// Join blocks until the thread bound to Handle finishes.
type Join struct {
	base
	API    JoinAPI
	Handle string
}

// ContinueWith registers Method (on Slot) to run in a fresh thread after
// the thread bound to Handle completes (Task.ContinueWith, paper Figure
// 3.D). The continuation thread is bound to NewHandle.
type ContinueWith struct {
	base
	Handle    string
	Method    string
	Slot      string
	NewHandle string
}

// UnsafeCall is a call into a thread-unsafe library API (e.g. List.Add) on
// the collection object bound to Slot. It is conflict-eligible with access
// semantics Acc, making it visible to both window extraction and TSVD.
type UnsafeCall struct {
	base
	API  string
	Slot string
	Acc  trace.Acc
	Dur  int64
}

// ---------------------------------------------------------------------------
// Reader-writer lock (ReaderWriterLock) — including the double-role API
// UpgradeToWriterLock that violates the Single-Role assumption (Table 4).
// ---------------------------------------------------------------------------

// RWAcquireRead takes the named reader-writer lock in read mode.
type RWAcquireRead struct {
	base
	Lock string
}

// RWReleaseRead releases a read hold.
type RWReleaseRead struct {
	base
	Lock string
}

// RWUpgrade releases the caller's read hold and acquires the write hold in
// one API (ReaderWriterLock.UpgradeToWriterLock) — a release followed by an
// acquire inside a single library call.
type RWUpgrade struct {
	base
	Lock string
}

// RWDowngrade releases the write hold and re-takes a read hold
// (ReaderWriterLock.DowngradeFromWriterLock).
type RWDowngrade struct {
	base
	Lock string
}

// ---------------------------------------------------------------------------
// Hidden primitives — scheduling semantics with no trace events
// ---------------------------------------------------------------------------

// HiddenAcquire takes a lock invisibly (synchronization implemented inside
// an uninstrumented framework/library, e.g. the lock inside
// ConcurrentLazyDictionary.GetOrAdd).
type HiddenAcquire struct {
	base
	Lock string
}

// HiddenRelease releases an invisible lock.
type HiddenRelease struct {
	base
	Lock string
}

// HiddenSignal signals an invisible event.
type HiddenSignal struct {
	base
	Sem string
}

// HiddenWait waits on an invisible event.
type HiddenWait struct {
	base
	Sem string
}

// HiddenFork spawns Method on Slot in a new thread with a real
// happens-before edge but no visible fork API call — framework-driven
// execution such as MSTest scheduling test methods after TestInitialize
// (paper Figure 3.E).
type HiddenFork struct {
	base
	Method string
	Slot   string
	Handle string
}

// EnsureInit models the C# static-initialization guarantee: the first
// thread to reach it runs Class::.cctor (visible as an application method);
// every other thread blocks until the constructor finishes. The ordering
// edge itself is language-enforced and invisible.
type EnsureInit struct {
	base
	Class string
	Ctor  string // method name of the static constructor body
}

// FinalizeObj models removing the last reference to the object bound to
// Slot: after GCDelay virtual nanoseconds the runtime runs Method (the
// finalizer/Dispose) in a dedicated GC thread, ordered after this
// statement. A GCDelay larger than the Near window reproduces the paper's
// dispose-related false positives (Table 4): the acquire window becomes too
// large to refine because delay injection cannot control garbage
// collection.
type FinalizeObj struct {
	base
	Slot    string
	Method  string
	GCDelay int64
}

// LibWait is a generic blocking library call that waits for the thread
// bound to Handle to complete, traced under API — the shape of C#'s
// TaskAwaiter.GetResult (the synchronous end of an await).
type LibWait struct {
	base
	API    string
	Handle string
}

// BarrierWait is System.Threading.Barrier.SignalAndWait: the caller blocks
// until Parties threads have arrived at the named barrier, then all
// proceed. The arrival (before-call event) releases the caller's
// pre-barrier work; the return (after-call event) acquires everyone
// else's — a genuine double-role API at the call-site granularity.
type BarrierWait struct {
	base
	Barrier string
	Parties int
}
