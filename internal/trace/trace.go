// Package trace defines the execution-log schema that SherLock's Observer
// records and every downstream component (window extraction, solver, race
// detection, TSVD) consumes.
//
// Per the paper (Section 4.1), each log entry carries: a timestamp, a thread
// id, an operation type (read, write, method entry, method exit), the field
// name and memory address for accesses, and the method name and parent
// object id for method entry/exit. Library/system API calls are instrumented
// at the call site: the "immediately before" event is a Begin and the
// "immediately after" event is an End of the API's static name.
package trace

import (
	"fmt"
	"strings"
)

// Kind is the operation type of a log entry.
type Kind uint8

// Operation types.
const (
	KindRead  Kind = iota // heap read of a field
	KindWrite             // heap write of a field
	KindBegin             // method entry, or immediately-before a library call
	KindEnd               // method exit, or immediately-after a library call
)

func (k Kind) String() string {
	switch k {
	case KindRead:
		return "read"
	case KindWrite:
		return "write"
	case KindBegin:
		return "begin"
	case KindEnd:
		return "end"
	}
	return "?"
}

// Acc classifies the data-access semantics of an operation for
// conflicting-pair detection. Heap reads/writes carry their own kind;
// thread-unsafe library calls (e.g. List.Add) are tagged with the access
// semantics of the API.
type Acc uint8

// Access semantics.
const (
	AccNone  Acc = iota // not conflict-eligible
	AccRead             // read semantics
	AccWrite            // write semantics
)

// Event is one log entry.
type Event struct {
	Time   int64  // virtual nanoseconds since the start of the run
	Thread int    // thread id (0 = the test's main thread)
	Kind   Kind   // operation type
	Name   string // fully qualified static name, "Class::Member"
	Addr   uint64 // field instance address, or receiver/resource id for lib calls
	Obj    uint64 // parent object id for method entry/exit (0 if none)
	Site   int    // static statement site id (stable across runs)
	Lib    bool   // true for library-API call-site events
	Unsafe bool   // true for thread-unsafe library accesses (TSVD-eligible)
	Acc    Acc    // access semantics for conflict detection

	// Child is the thread id spawned or joined by this operation (fork and
	// join call sites), 0 when not applicable. Real instrumentation
	// observes the thread/task object argument the same way.
	Child int
	// Extra lists additional resource ids the operation touches (e.g.
	// every handle of a WaitHandle.WaitAll). Nil for almost all events.
	Extra []uint64
}

// ConflictEligible reports whether the event can participate in a
// conflicting-access pair: a heap access, or a thread-unsafe library call.
func (e *Event) ConflictEligible() bool {
	return e.Acc != AccNone && e.Addr != 0
}

// String renders the entry for logs and debugging output.
func (e *Event) String() string {
	return fmt.Sprintf("%10d t%-2d %-5s %-40s addr=%#x obj=%d site=%d",
		e.Time, e.Thread, e.Kind, e.Name, e.Addr, e.Obj, e.Site)
}

// Trace is the full log of one test execution.
type Trace struct {
	App    string  // application name
	Test   string  // unit-test name
	Seed   int64   // scheduler seed that produced this interleaving
	Events []Event // time-ordered log entries
}

// Append adds one entry; the scheduler guarantees non-decreasing timestamps.
func (t *Trace) Append(e Event) {
	t.Events = append(t.Events, e)
}

// Len returns the number of log entries.
func (t *Trace) Len() int { return len(t.Events) }

// Key identifies a synchronization candidate: a static operation that could
// serve as an acquire or release. Keys are what the Solver's random
// variables are named after and what the Perturber injects delays before.
//
// Encoding: "<kind>:<Class::Member>", e.g. "write:k8s.ByteBuffer::endOfFile"
// or "begin:System.Threading.Monitor::Enter".
type Key string

// KeyFor builds the candidate key for an operation kind and static name.
func KeyFor(k Kind, name string) Key {
	return Key(k.String() + ":" + name)
}

// AppendKey appends the bytes of KeyFor(k, name) to dst. Looking a key up
// as m[Key(AppendKey(buf[:0], k, name))] with a reused buf allocates
// nothing: the compiler does not copy a []byte converted for a map index.
func AppendKey(dst []byte, k Kind, name string) []byte {
	dst = append(dst, k.String()...)
	dst = append(dst, ':')
	return append(dst, name...)
}

// EventKey returns the candidate key of a log entry.
func EventKey(e *Event) Key { return KeyFor(e.Kind, e.Name) }

// Kind returns the operation kind encoded in the key.
func (k Key) Kind() Kind {
	switch {
	case strings.HasPrefix(string(k), "read:"):
		return KindRead
	case strings.HasPrefix(string(k), "write:"):
		return KindWrite
	case strings.HasPrefix(string(k), "begin:"):
		return KindBegin
	default:
		return KindEnd
	}
}

// Name returns the static Class::Member name encoded in the key.
func (k Key) Name() string {
	if i := strings.IndexByte(string(k), ':'); i >= 0 {
		return string(k)[i+1:]
	}
	return string(k)
}

// Class returns the class part of the key's static name ("" if the name has
// no Class:: qualifier). The Mostly-Paired hypothesis groups candidates by
// class.
func (k Key) Class() string {
	name := k.Name()
	if i := strings.Index(name, "::"); i >= 0 {
		return name[:i]
	}
	return ""
}

// Member returns the member part of the key's static name.
func (k Key) Member() string {
	name := k.Name()
	if i := strings.Index(name, "::"); i >= 0 {
		return name[i+2:]
	}
	return name
}

// IsField reports whether the key names a heap field (read/write) rather
// than a method.
func (k Key) IsField() bool {
	kk := k.Kind()
	return kk == KindRead || kk == KindWrite
}

// Role is the synchronization role of an operation.
type Role uint8

// Synchronization roles.
const (
	RoleAcquire Role = iota
	RoleRelease
)

func (r Role) String() string {
	if r == RoleAcquire {
		return "acquire"
	}
	return "release"
}

// AcquireCapable reports whether kind k can serve as an acquire under the
// Read-Acquire & Write-Release property.
func AcquireCapable(k Kind) bool { return k == KindRead || k == KindBegin }

// ReleaseCapable reports whether kind k can serve as a release under the
// Read-Acquire & Write-Release property.
func ReleaseCapable(k Kind) bool { return k == KindWrite || k == KindEnd }

// PairedKey returns the Mostly-Paired counterpart for a field key: the
// write key for a read key and vice versa. For method keys it returns ""
// (method pairing is by class, not one-to-one).
func (k Key) PairedKey() Key {
	switch k.Kind() {
	case KindRead:
		return KeyFor(KindWrite, k.Name())
	case KindWrite:
		return KeyFor(KindRead, k.Name())
	}
	return ""
}

// Display renders a key the way the paper's Tables 8/9 list inferred
// synchronizations: fields as "Read-C::f"/"Write-C::f", methods as
// "C::M-Begin"/"C::M-End", library APIs by bare name.
func (k Key) Display() string {
	name := k.Name()
	switch k.Kind() {
	case KindRead:
		return "Read-" + name
	case KindWrite:
		return "Write-" + name
	case KindBegin:
		return name + "-Begin"
	default:
		return name + "-End"
	}
}
