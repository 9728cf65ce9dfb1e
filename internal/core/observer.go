// Campaign observability: the Observer interface (the public hook surface,
// re-exported as sherlock.Observer) and the tracer wiring that connects an
// engine run to internal/obs. One Observer receives both the span/counter
// event stream and the per-round solved snapshots.
package core

import (
	"sherlock/internal/obs"
	"sherlock/internal/window"
)

// Observer streams a campaign's observability data:
//
//   - Event receives every tracing event of the campaign span tree
//     (campaign → round → {execute, extract, encode, solve, perturb}),
//     including counters. Events are delivered from multiple goroutines
//     concurrently — the per-run spans end on the worker that executed the
//     run — so implementations must be safe for concurrent calls.
//   - Round is called after each round's observations are merged and
//     solved, with the round snapshot and the live accumulator. The
//     accumulator is reused across rounds; implementations that keep it
//     past the call must Clone it.
//
// Span identity is deterministic (derived from the campaign structure, not
// wall clock), so an observer that reconstructs the span tree sees the
// identical tree at every Config.Parallelism level; only wall-clock
// durations differ. See internal/obs for the determinism rules.
type Observer interface {
	Event(e obs.Event)
	Round(snap RoundSnapshot, acc *window.Observations)
}

// ObserverFuncs adapts bare functions to Observer; nil fields are skipped.
type ObserverFuncs struct {
	OnEvent func(e obs.Event)
	OnRound func(snap RoundSnapshot, acc *window.Observations)
}

// Event calls OnEvent when non-nil.
func (o ObserverFuncs) Event(e obs.Event) {
	if o.OnEvent != nil {
		o.OnEvent(e)
	}
}

// Round calls OnRound when non-nil.
func (o ObserverFuncs) Round(snap RoundSnapshot, acc *window.Observations) {
	if o.OnRound != nil {
		o.OnRound(snap, acc)
	}
}

// SinkObserver wraps a span sink into an Observer that forwards the event
// stream and ignores round snapshots — the adapter behind
// `sherlock -trace-out` and the sherlockd span collection.
func SinkObserver(s obs.Sink) Observer {
	return ObserverFuncs{OnEvent: s.Emit}
}

// tracer builds the campaign tracer for one engine run: nil (all span
// operations inert) when tracing is disabled, otherwise a tracer feeding
// the Observer when one is configured. With no observer the tracer runs
// with a nil sink — spans are still constructed, so attribute bookkeeping
// stays on the always-exercised path, at a cost gated under 5% of a
// campaign's CPU time (cmd/bench -suite obs).
func (c Config) tracer() *obs.Tracer {
	if c.DisableTracing {
		return nil
	}
	if c.Observer == nil {
		return obs.New(nil)
	}
	return obs.New(obs.SinkFunc(c.Observer.Event))
}

// notifyRound hands one solved round to the Observer, if any.
func (c Config) notifyRound(snap RoundSnapshot, acc *window.Observations) {
	if c.Observer != nil {
		c.Observer.Round(snap, acc)
	}
}
