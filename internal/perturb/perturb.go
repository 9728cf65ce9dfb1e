// Package perturb implements SherLock's Perturber (paper Section 3, 4.3):
// it plans delay injections before the operations the Solver currently
// believes are releases, and afterwards analyses how each delayed run
// reacted, refining acquire/release windows (Figure 2 b/c):
//
//   - If a delay before release candidate r failed to hold back the second
//     conflicting access b (b executed while the delay was still pending),
//     r cannot be the release protecting the pair: the real release, if
//     any, lies between a and r — the release window shrinks to (a, r).
//   - If the delay propagated (b executed only after the delayed r
//     completed), the inference gains support and the acquire window
//     shrinks to (r, b).
package perturb

import (
	"cmp"
	"slices"

	"sherlock/internal/obs"
	"sherlock/internal/sched"
	"sherlock/internal/trace"
	"sherlock/internal/window"
)

// DefaultDelay is the injected delay in virtual ns (paper: 100 ms wall
// clock against a 1 s Near; here 100 µs against a 1 ms Near — same ratio).
const DefaultDelay int64 = 100_000

// Plan maps candidate keys to the delay injected before every dynamic
// instance of the operation.
type Plan map[trace.Key]int64

// BuildPlan returns a plan delaying every current release candidate.
// (The paper injects before every dynamic instance, deterministically; it
// reports probabilistic injection makes no difference.)
func BuildPlan(releases []trace.Key, delay int64) Plan {
	if len(releases) == 0 {
		return nil
	}
	p := make(Plan, len(releases))
	for _, k := range releases {
		p[k] = delay
	}
	return p
}

// BuildPlanObs is BuildPlan recording a "perturb" child span under parent
// with the plan's (deterministic) shape: how many release candidates will
// be delayed next round and by how much.
func BuildPlanObs(parent *obs.Span, releases []trace.Key, delay int64) Plan {
	p := BuildPlan(releases, delay)
	span := parent.Child("perturb",
		obs.Int("releases", len(releases)),
		obs.Int64("delay_virtual_ns", delay),
		obs.Int("planned", len(p)))
	span.End()
	return p
}

// Refine applies the propagation analysis to every window extracted from a
// delayed run, returning windows with (possibly) trimmed candidate lists.
// Windows from undelayed runs pass through unchanged. A trimmed list is a
// capacity-clipped subslice of the window's own list when that list is
// time-sorted, as every extracted window's is, so a refine allocates only
// its output.
func Refine(ws []window.Window, delays []sched.DelayInstance) []window.Window {
	if len(delays) == 0 {
		return ws
	}
	byStart := func(a, b sched.DelayInstance) int { return cmp.Compare(a.Start, b.Start) }
	if !slices.IsSortedFunc(delays, byStart) {
		// Delays with equal starts on one thread come from one statement
		// and share their end, so they refine identically in either
		// order: an unstable sort is enough.
		delays = slices.Clone(delays)
		slices.SortFunc(delays, byStart)
	}
	out := make([]window.Window, 0, len(ws))
	for _, w := range ws {
		out = append(out, refineOne(w, delays))
	}
	return out
}

// refineOne trims one window according to every delay instance that fired
// inside its release window (thread of a, between a and b).
func refineOne(w window.Window, delays []sched.DelayInstance) window.Window {
	relHi := w.TB          // exclusive upper bound for release candidates
	var propEnd int64 = -1 // latest completion of a propagated delay
	for _, d := range delays {
		if d.Thread != w.ThreadA {
			continue
		}
		if d.Start <= w.TA || d.Start >= relHi {
			continue
		}
		// Only release-capable delayed operations refine windows: a delay
		// before a read/begin says nothing about who released.
		if !trace.ReleaseCapable(d.Key.Kind()) {
			continue
		}
		if w.TB < d.End {
			// b executed during the delay: not propagated (Figure 2b).
			// The real release precedes r.
			relHi = d.Start
		} else if d.End > propEnd {
			// Propagated (Figure 2c): the acquire is at or after the gap.
			propEnd = d.End
		}
	}
	if relHi == w.TB && propEnd < 0 {
		return w
	}
	nw := w
	nw.RelEvents = filterBefore(w.RelEvents, relHi)
	if propEnd >= 0 {
		// Refine the acquire window to (r, b) — with one subtlety the
		// timestamps force on us: a blocking acquire (e.g. WaitOne) logs
		// its before-call event when the thread *enters* the call, i.e.
		// before the delayed release executed. The operation that was
		// blocking thread B across the propagation gap is therefore the
		// LAST acquire-capable event before the gap's end; keep it and
		// everything after, drop older noise.
		var tLast int64 = -1
		for _, e := range w.AcqEvents {
			if e.Time < propEnd && trace.AcquireCapable(e.Key.Kind()) && e.Time > tLast {
				tLast = e.Time
			}
		}
		if tLast < 0 {
			tLast = propEnd
		}
		nw.AcqEvents = filterAtOrAfter(w.AcqEvents, tLast)
	}
	return nw
}

// filterBefore returns the events of evs with Time < hi. On a time-sorted
// list that is a prefix, returned in place; an unsorted one is copied.
func filterBefore(evs []window.CandEvent, hi int64) []window.CandEvent {
	if !timeSorted(evs) {
		out := make([]window.CandEvent, 0, len(evs))
		for _, e := range evs {
			if e.Time < hi {
				out = append(out, e)
			}
		}
		return out
	}
	k, _ := slices.BinarySearchFunc(evs, hi, byTime)
	return evs[:k:k]
}

// filterAtOrAfter returns the events of evs with Time >= lo. On a
// time-sorted list that is a suffix, returned in place; an unsorted one is
// copied.
func filterAtOrAfter(evs []window.CandEvent, lo int64) []window.CandEvent {
	if !timeSorted(evs) {
		out := make([]window.CandEvent, 0, len(evs))
		for _, e := range evs {
			if e.Time >= lo {
				out = append(out, e)
			}
		}
		return out
	}
	k, _ := slices.BinarySearchFunc(evs, lo, byTime)
	return evs[k:len(evs):len(evs)]
}

func byTime(e window.CandEvent, t int64) int { return cmp.Compare(e.Time, t) }

func timeSorted(evs []window.CandEvent) bool {
	return slices.IsSortedFunc(evs, func(a, b window.CandEvent) int { return cmp.Compare(a.Time, b.Time) })
}
