// Package obs is SherLock's campaign observability layer: a zero-dependency
// hierarchical tracer producing spans (campaign → round → {execute, extract,
// encode, solve, perturb}) with typed attributes, plus named counters and
// pluggable sinks (sink.go) and deterministic span-tree reconstruction
// (tree.go).
//
// The paper reports per-phase overheads (Table 5) and window shrinkage
// across rounds (Figures 6–7); this package is what lets the reproduction
// measure those numbers on every run instead of re-deriving them ad hoc,
// and what keeps the hot paths honest as the system scales.
//
// # Determinism rules
//
// Span identity derives from the campaign's *structure*, never from wall
// clock or execution order: a span's ID is its slash-joined path of
// name[:key] segments ("campaign:App-1/round:2/execute/run:07"). Two runs
// of the same campaign — at any Config.Parallelism — produce the same span
// IDs, the same parent/child edges, and the same attribute values, because
// every attribute recorded by the pipeline is itself deterministic (seeds,
// window counts, LP pivots, virtual-time durations). Only wall-clock fields
// (Event.Wall, Event.Dur, and attributes of Kind 'd') differ between runs,
// and the deterministic renderer excludes exactly those. This makes span
// trees directly diffable across runs and parallelism levels: the tree is a
// correctness artifact, not just telemetry.
//
// # Cost
//
// A Tracer with a nil sink still builds spans (so IDs are always coherent)
// but emits nothing; that no-sink mode is the engine's default. A no-sink
// span is one allocation: it joins no ID string until ID is called, keeps
// no attributes and reads no clock. cmd/bench -suite obs gates its cost on
// a full campaign.
// A nil *Tracer and a nil *Span are both valid and make every method a
// no-op, so call sites never need nil checks.
package obs

import (
	"fmt"
	"strconv"
	"time"
)

// Attribute kinds. Kind 'd' (wall-clock duration) is excluded from the
// deterministic rendering; all other kinds must carry deterministic values.
const (
	KindStr   = 's'
	KindInt   = 'i'
	KindFloat = 'f'
	KindBool  = 'b'
	KindDur   = 'd'
)

// Attr is one typed key/value attribute attached to a span or counter.
type Attr struct {
	Key  string
	Kind byte
	Str  string
	Int  int64
	Flt  float64
}

// Str returns a string attribute.
func Str(k, v string) Attr { return Attr{Key: k, Kind: KindStr, Str: v} }

// Int returns an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Kind: KindInt, Int: int64(v)} }

// Int64 returns a 64-bit integer attribute.
func Int64(k string, v int64) Attr { return Attr{Key: k, Kind: KindInt, Int: v} }

// Float returns a floating-point attribute.
func Float(k string, v float64) Attr { return Attr{Key: k, Kind: KindFloat, Flt: v} }

// Bool returns a boolean attribute.
func Bool(k string, v bool) Attr {
	a := Attr{Key: k, Kind: KindBool}
	if v {
		a.Int = 1
	}
	return a
}

// Dur returns a wall-clock duration attribute. Duration attributes are
// nondeterministic by nature and are excluded from the deterministic
// span-tree rendering (they still appear in event-log sinks).
func Dur(k string, v time.Duration) Attr { return Attr{Key: k, Kind: KindDur, Int: int64(v)} }

// value renders the attribute value for the deterministic text form.
func (a Attr) value() string {
	switch a.Kind {
	case KindStr:
		return a.Str
	case KindInt:
		return strconv.FormatInt(a.Int, 10)
	case KindFloat:
		return strconv.FormatFloat(a.Flt, 'g', -1, 64)
	case KindBool:
		if a.Int != 0 {
			return "true"
		}
		return "false"
	case KindDur:
		return time.Duration(a.Int).String()
	}
	return "?"
}

// EventType discriminates sink events.
type EventType uint8

// Event types.
const (
	EvSpanStart EventType = iota
	EvSpanEnd
	EvCounter
)

func (t EventType) String() string {
	switch t {
	case EvSpanStart:
		return "start"
	case EvSpanEnd:
		return "end"
	case EvCounter:
		return "counter"
	}
	return "?"
}

// Event is one observability record delivered to a Sink. Span events carry
// the structural span identity; counter events carry a name and delta.
// Wall and Dur are the only intrinsically nondeterministic fields.
type Event struct {
	Type   EventType
	ID     string // span ID (structural path); "" for counters
	Parent string // parent span ID; "" for roots and counters
	Name   string // final path segment ("round:2"), or counter name
	Wall   time.Time
	Dur    time.Duration // EvSpanEnd only
	Delta  int64         // EvCounter only
	Attrs  []Attr
}

// Tracer produces spans and counters and fans their events into a sink.
// All methods are safe for concurrent use; a nil *Tracer is a no-op.
type Tracer struct {
	sink Sink
}

// New returns a Tracer emitting into sink. A nil sink is valid: spans are
// still constructed, nothing is emitted.
func New(sink Sink) *Tracer {
	return &Tracer{sink: sink}
}

// Root starts a top-level span. key, when non-empty, is appended to the
// name as "name:key" and must be deterministic (an app name, a content
// address — never a timestamp or sequence number).
func (t *Tracer) Root(name, key string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	id := name
	if key != "" {
		id = name + ":" + key
	}
	return t.start(nil, id, attrs)
}

// Count emits a counter event adding delta to the named counter. Totals
// are aggregated from the event stream (see CounterTotals).
func (t *Tracer) Count(name string, delta int64) {
	if t == nil {
		return
	}
	t.emit(Event{Type: EvCounter, Name: name, Wall: time.Now(), Delta: delta})
}

// Counter is one aggregated counter total.
type Counter struct {
	Name  string `json:"name"`
	Total int64  `json:"total"`
}

// start opens a span named name under up; a root (up nil) is its own ID.
// Without a sink nothing reads a child's ID, or any span's attributes or
// start time, so none is built: the span is one allocation, and ID joins
// its path on demand. With a sink the span owns a copy of attrs, which
// keeps the caller's variadic slice on the caller's stack in both modes.
func (t *Tracer) start(up *Span, name string, attrs []Attr) *Span {
	s := &Span{t: t, up: up, name: name}
	if up == nil {
		s.id = name
	}
	if t.sink == nil {
		return s
	}
	if up != nil {
		s.id = up.id + "/" + name
	}
	s.start = time.Now()
	s.attrs = append([]Attr(nil), attrs...)
	t.emit(Event{Type: EvSpanStart, ID: s.id, Parent: up.ID(), Name: name, Wall: s.start, Attrs: s.attrs})
	return s
}

func (t *Tracer) emit(e Event) {
	if t.sink != nil {
		t.sink.Emit(e)
	}
}

// Span is one timed, attributed node of the campaign trace. A span is
// owned by the goroutine that created it until End; Child/Annotate/End
// must not race with each other on the same span (children may live on
// other goroutines — the parallel runner does exactly that).
// A nil *Span is valid and inert.
type Span struct {
	t     *Tracer
	up    *Span  // parent span; nil for a root
	id    string // structural ID; built eagerly only for roots and under a sink
	name  string
	start time.Time
	attrs []Attr
	ended bool
}

// ID returns the structural span ID ("" on a nil span). Under a tracer
// without a sink the ID is joined from the span's path on every call.
func (s *Span) ID() string {
	if s == nil {
		return ""
	}
	if s.id == "" && s.up != nil {
		return s.up.ID() + "/" + s.name
	}
	return s.id
}

// Child starts a sub-span. segment is the path step, already carrying any
// key ("execute", "run:07"); it must be unique among the span's children
// and deterministic across runs.
func (s *Span) Child(segment string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return s.t.start(s, segment, attrs)
}

// Childf is Child with a formatted segment.
func (s *Span) Childf(format string, args ...any) *Span {
	if s == nil {
		return nil
	}
	return s.Child(fmt.Sprintf(format, args...))
}

// Annotate appends attributes; they ride on the span's end event (and
// are dropped when the tracer has no sink).
func (s *Span) Annotate(attrs ...Attr) {
	if s == nil || s.t.sink == nil {
		return
	}
	s.attrs = append(s.attrs, attrs...)
}

// End closes the span, emitting its end event with the final attribute
// set and the wall-clock duration. End is idempotent.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	if s.t.sink == nil {
		return
	}
	now := time.Now()
	s.t.emit(Event{
		Type: EvSpanEnd, ID: s.id, Parent: s.up.ID(), Name: s.name,
		Wall: now, Dur: now.Sub(s.start), Attrs: s.attrs,
	})
}
