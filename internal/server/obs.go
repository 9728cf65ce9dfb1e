// Observability bridge: connects internal/obs span streams to the
// serving layer. Two consumers share one campaign's event stream via
// obs.Fanout — a per-job MemorySink whose reconstructed span tree backs
// GET /v1/jobs/{id}/spans, and the registry bridge below, which folds
// every span duration into a Prometheus histogram labeled by phase. The
// bridge lives on this side of the dependency edge: internal/obs stays
// zero-dependency, the server owns the metrics mapping.
package server

import (
	"strings"
	"sync"

	"sherlock/internal/obs"
)

// maxSpanBodyBytes caps the per-job stored span tree; a campaign that
// somehow renders larger (pathological MaxSteps settings) serves a "too
// large" error instead of holding megabytes per job record.
const maxSpanBodyBytes = 1 << 20

// spanHistSink is an obs.Sink feeding span durations into the registry as
// sherlock_span_seconds{phase="..."} histograms. The phase is the span
// name up to any ":<key>" suffix, so "round:02" and "round:03" aggregate
// under phase="round" while execute/encode/solve/perturb/sched/extract
// each get their own series. Safe for concurrent use.
type spanHistSink struct {
	reg *Registry

	mu      sync.Mutex
	byPhase map[string]*Histogram
}

func newSpanHistSink(reg *Registry) *spanHistSink {
	return &spanHistSink{reg: reg, byPhase: make(map[string]*Histogram)}
}

// Emit observes span-end durations; other event types are ignored.
func (s *spanHistSink) Emit(e obs.Event) {
	if e.Type != obs.EvSpanEnd {
		return
	}
	phase := e.Name
	if i := strings.IndexByte(phase, ':'); i >= 0 {
		phase = phase[:i]
	}
	s.mu.Lock()
	h := s.byPhase[phase]
	if h == nil {
		h = s.reg.Histogram("sherlock_span_seconds",
			"Wall-clock span durations from the campaign tracer, by phase.",
			LatencyBuckets(), "phase", phase)
		s.byPhase[phase] = h
	}
	s.mu.Unlock()
	h.Observe(e.Dur.Seconds())
}

// renderSpans serializes a job's collected span events as the GET
// /v1/jobs/{id}/spans body, {"job","spans","counters"} with counters
// omitted when there are none, in one pass of the obs JSON appenders.
// Span IDs, tree shape, attributes and counters are deterministic for a
// given job spec; only the dur_ns fields vary between runs. The result is
// an exact-size copy: a job record holds it for the record's lifetime.
func renderSpans(jobID string, sink *obs.MemorySink) ([]byte, error) {
	events := sink.Events()
	if len(events) == 0 {
		return nil, nil
	}
	// A served tree renders to about 90 bytes per event.
	b := append(make([]byte, 0, 128*len(events)), `{"job":`...)
	b = obs.AppendStringJSON(b, jobID)
	b = append(b, `,"spans":`...)
	b, err := obs.AppendTreeJSON(b, obs.BuildTree(events))
	if err != nil {
		return nil, err
	}
	if counters := obs.CounterTotals(events); len(counters) > 0 {
		b = append(b, `,"counters":`...)
		b = obs.AppendCountersJSON(b, counters)
	}
	b = append(b, '}')
	return append(make([]byte, 0, len(b)), b...), nil
}
