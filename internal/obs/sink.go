// Sinks: where tracing events go. The sink contract is small — Emit must
// be safe for concurrent use and must not retain the Attrs slice past the
// call (copy if buffering) — which is what lets the parallel runner's
// workers emit without coordination. Three implementations cover the
// pipeline's needs: MemorySink for tests and the sherlockd spans endpoint,
// JSONLSink for streaming event logs on disk, and Fanout for tees. The
// serving layer adds a fourth (a Prometheus-histogram bridge) on its side
// of the dependency edge.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Sink receives tracing events. Emit is called from multiple goroutines
// concurrently and must not retain e.Attrs after returning.
type Sink interface {
	Emit(e Event)
}

// SinkFunc adapts a function to the Sink interface. The function must be
// safe for concurrent calls.
type SinkFunc func(Event)

// Emit calls f.
func (f SinkFunc) Emit(e Event) { f(e) }

// Fanout tees events into every non-nil sink, in order.
func Fanout(sinks ...Sink) Sink {
	compact := make([]Sink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			compact = append(compact, s)
		}
	}
	switch len(compact) {
	case 0:
		return nil
	case 1:
		return compact[0]
	}
	return fanout(compact)
}

type fanout []Sink

func (f fanout) Emit(e Event) {
	for _, s := range f {
		s.Emit(e)
	}
}

// MemorySink buffers every event in memory. Safe for concurrent use.
type MemorySink struct {
	mu     sync.Mutex
	events []Event
}

// NewMemorySink returns an empty in-memory sink.
func NewMemorySink() *MemorySink { return &MemorySink{} }

// Emit appends a copy of the event (attrs included).
func (m *MemorySink) Emit(e Event) {
	e.Attrs = append([]Attr(nil), e.Attrs...)
	m.mu.Lock()
	m.events = append(m.events, e)
	m.mu.Unlock()
}

// Events returns a copy of the buffered events in arrival order. Arrival
// order is nondeterministic under parallelism; use Tree or Render for the
// deterministic view.
func (m *MemorySink) Events() []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Event(nil), m.events...)
}

// Reset discards all buffered events.
func (m *MemorySink) Reset() {
	m.mu.Lock()
	m.events = nil
	m.mu.Unlock()
}

// Tree reconstructs the deterministic span forest from the buffered
// events (tree.go).
func (m *MemorySink) Tree() []*Node { return BuildTree(m.Events()) }

// Render returns the deterministic text rendering of the buffered span
// forest and counter totals: durations and Kind-'d' attributes excluded,
// children and counters sorted. Byte-identical across runs and
// parallelism levels for the same campaign.
func (m *MemorySink) Render() string { return RenderEvents(m.Events()) }

// jsonEvent is the JSONL wire schema, which JSONLSink writes with
// appendEvent (json.go) and ParseJSONL reads. Wall clock is RFC3339Nano;
// the duration is nanoseconds. Attribute values keep their native JSON
// types.
type jsonEvent struct {
	Ev     string         `json:"ev"`
	ID     string         `json:"id,omitempty"`
	Parent string         `json:"parent,omitempty"`
	Name   string         `json:"name"`
	Wall   string         `json:"wall"`
	DurNS  int64          `json:"dur_ns,omitempty"`
	Delta  int64          `json:"delta,omitempty"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// durSuffix marks wall-clock duration attributes on the JSON wire, so the
// nondeterministic kind survives a round-trip through ParseJSONL. Pipeline
// attribute keys must not end with it (deterministic virtual-time attrs
// use a plain "_ns" suffix, which stays an integer).
const durSuffix = "_wall_ns"

// JSONLSink streams one JSON object per event to a writer — the on-disk
// event-log format of `sherlock -trace-out`. Safe for concurrent use; each
// event is written atomically under the sink's lock.
type JSONLSink struct {
	mu  sync.Mutex
	w   io.Writer
	err error
}

// NewJSONLSink returns a sink writing JSON lines to w. The caller owns w's
// lifecycle; wrap it in a bufio.Writer for throughput and call Flush/Close
// accordingly. The first write error is sticky and retrievable with Err.
func NewJSONLSink(w io.Writer) *JSONLSink { return &JSONLSink{w: w} }

// Emit writes one JSON line.
func (j *JSONLSink) Emit(e Event) {
	line, err := appendEvent(nil, e)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	if err != nil {
		j.err = err
		return
	}
	if _, err := j.w.Write(append(line, '\n')); err != nil {
		j.err = err
	}
}

// Err returns the first write or marshal error, if any.
func (j *JSONLSink) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// ParseJSONL decodes an event log produced by JSONLSink back into events
// (for tooling that reconstructs trees from a file). Attribute kinds are
// recovered from the JSON value types; "_wall_ns"-suffixed numeric
// attributes come back as duration attrs.
func ParseJSONL(data []byte) ([]Event, error) {
	var events []Event
	start := 0
	for i := 0; i <= len(data); i++ {
		if i != len(data) && data[i] != '\n' {
			continue
		}
		line := data[start:i]
		start = i + 1
		if len(line) == 0 {
			continue
		}
		var je jsonEvent
		if err := json.Unmarshal(line, &je); err != nil {
			return nil, fmt.Errorf("obs: event log line %d: %w", len(events)+1, err)
		}
		e := Event{ID: je.ID, Parent: je.Parent, Name: je.Name, Dur: time.Duration(je.DurNS), Delta: je.Delta}
		switch je.Ev {
		case "start":
			e.Type = EvSpanStart
		case "end":
			e.Type = EvSpanEnd
		case "counter":
			e.Type = EvCounter
		default:
			return nil, fmt.Errorf("obs: event log line %d: unknown event type %q", len(events)+1, je.Ev)
		}
		if je.Wall != "" {
			if w, err := time.Parse(time.RFC3339Nano, je.Wall); err == nil {
				e.Wall = w
			}
		}
		for k, v := range je.Attrs {
			switch v := v.(type) {
			case string:
				e.Attrs = append(e.Attrs, Str(k, v))
			case bool:
				e.Attrs = append(e.Attrs, Bool(k, v))
			case float64:
				if len(k) > len(durSuffix) && k[len(k)-len(durSuffix):] == durSuffix {
					e.Attrs = append(e.Attrs, Dur(k[:len(k)-len(durSuffix)], time.Duration(int64(v))))
				} else if v == float64(int64(v)) {
					e.Attrs = append(e.Attrs, Int64(k, int64(v)))
				} else {
					e.Attrs = append(e.Attrs, Float(k, v))
				}
			}
		}
		events = append(events, e)
	}
	return events, nil
}
