package trace

import (
	"strings"
	"sync/atomic"
)

// NameID is a static event name's dense ID in a Names table, counted
// from 1. The zero ID names nothing.
type NameID int32

// Names is a table of static event names: each distinct name gets the
// next NameID on first sight. A program compiles one table for every name
// its events can carry (prog.Program.EventNames), so extraction indexes
// events by ID instead of hashing their names; the name-keyed extraction
// entry points intern a trace's names into a table of their own. A name's
// candidate keys are built the first time one of them is asked for and
// then kept, so a program builds the keys of the names its windows hold,
// once, and none for names no window holds. Intern must not run
// concurrently with any other method; Len, Name and Key are safe for
// concurrent use.
type Names struct {
	ids   map[string]NameID
	names []string                           // by ID; index 0 unused
	keys  []atomic.Pointer[[KindEnd + 1]Key] // by ID; nil until asked for
}

// NewNames returns an empty table.
func NewNames() *Names {
	return &Names{ids: map[string]NameID{}, names: []string{""}, keys: make([]atomic.Pointer[[KindEnd + 1]Key], 1)}
}

// Intern returns name's ID, entering it on first sight.
func (t *Names) Intern(name string) NameID {
	if id, ok := t.ids[name]; ok {
		return id
	}
	id := NameID(len(t.names))
	t.ids[name] = id
	t.names = append(t.names, name)
	t.keys = append(t.keys, atomic.Pointer[[KindEnd + 1]Key]{})
	return id
}

// Len returns the number of names: IDs run from 1 to Len.
func (t *Names) Len() int { return len(t.names) - 1 }

// Name returns the name an ID stands for.
func (t *Names) Name(id NameID) string { return t.names[id] }

// Key returns the candidate key KeyFor(k, t.Name(id)) for a kind
// k ≤ KindEnd. The first call for a name builds its four keys, carved
// from one string; later calls only read them. Two goroutines that build
// a name's keys at once build equal ones, and one set is kept.
func (t *Names) Key(id NameID, k Kind) Key {
	p := &t.keys[id]
	ks := p.Load()
	if ks == nil {
		ks = newKeys(t.names[id])
		if !p.CompareAndSwap(nil, ks) {
			ks = p.Load()
		}
	}
	return ks[k]
}

// newKeys builds name's candidate key of every kind.
func newKeys(name string) *[KindEnd + 1]Key {
	var b strings.Builder
	b.Grow(len("read:write:begin:end:") + 4*len(name))
	var ends [KindEnd + 1]int
	for k := KindRead; k <= KindEnd; k++ {
		b.WriteString(k.String())
		b.WriteByte(':')
		b.WriteString(name)
		ends[k] = b.Len()
	}
	all, start := b.String(), 0
	ks := new([KindEnd + 1]Key)
	for k := KindRead; k <= KindEnd; k++ {
		ks[k] = Key(all[start:ends[k]])
		start = ends[k]
	}
	return ks
}

// Seal drops the lookup Intern needs, leaving a read-only table; Intern
// panics afterwards. A program seals its table once Finalize has entered
// every name its events can carry.
func (t *Names) Seal() { t.ids = nil }

// Reset empties the table, keeping its capacity. Every ID it handed out
// before is void.
func (t *Names) Reset() {
	clear(t.ids)
	clear(t.names[1:])
	clear(t.keys[1:])
	t.names, t.keys = t.names[:1], t.keys[:1]
}
