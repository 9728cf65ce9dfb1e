// Package window implements the Observer's post-processing (paper Section
// 4.1): finding conflicting-access pairs in a trace, filtering them with the
// physical-time Near parameter, extracting acquire/release windows, capping
// windows per static location pair, spotting data-race observations, and
// accumulating the statistics (occurrence counts, method-duration CVs) the
// Solver's hypotheses consume.
package window

import (
	"cmp"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"

	"sherlock/internal/stats"
	"sherlock/internal/trace"
)

// Config tunes window extraction.
type Config struct {
	// Near is the physical-time filter (virtual ns): conflicting accesses
	// farther apart than this are ignored (paper default 1 s wall clock; 1 ms
	// virtual here — the ratios to operation costs match).
	Near int64
	// PerPairCap bounds the number of windows a single static location pair
	// may contribute, across all runs (paper: 15).
	PerPairCap int
	// UseUnsafeAPIs includes thread-unsafe library calls (List.Add, …) as
	// conflicting accesses. This is the paper's optional 14-class API list;
	// turning it off loses only a few percent of inferences.
	UseUnsafeAPIs bool
}

// DefaultConfig mirrors the paper's defaults at virtual-time scale.
func DefaultConfig() Config {
	return Config{Near: 1_000_000, PerPairCap: 15, UseUnsafeAPIs: true}
}

// PairID identifies a static conflicting-location pair, ordered
// first-executed → second-executed.
type PairID struct {
	First, Second int // statement site ids
}

// CandEvent is one candidate operation occurrence inside a window.
type CandEvent struct {
	Key  trace.Key
	Time int64
}

// Window is one acquire/release window observation (paper Figure 2a): a
// conflicting pair (a at TA in ThreadA, b at TB in ThreadB) plus the
// operations that executed between them in each of the two threads.
//
// RelEvents and AcqEvents are read-only once a Window is built: a
// trace's windows are carved from one shared array, the Perturber's
// refined windows are subslices of the windows they refine, and clones
// of an accumulator share them, so consumers must build new slices
// instead of mutating in place.
type Window struct {
	App, Test string
	// UID, when non-empty, is the window's rank under canonical
	// admission (AddWindowsCanonical): the owning trace's content address
	// plus the window's ordinal within that trace. Nothing else reads it;
	// the solver names LP rows by accumulator index. Empty for windows
	// built live by the engine and by static analysis.
	UID     string
	Pair    PairID
	ThreadA int
	ThreadB int
	TA, TB  int64
	// RelEvents are operations from ThreadA in (TA, TB): release candidates.
	RelEvents []CandEvent
	// AcqEvents are operations from ThreadB in (TA, TB): acquire candidates.
	AcqEvents []CandEvent
}

// RacyRelease reports whether the release side proves no release can
// protect the pair: the window is empty or every operation in it is a read
// (paper Section 4.3's data-race observation). Method operations never
// disqualify a window: a blocking call's before-event can precede the
// window even when the call itself is the synchronization, so only field
// accesses give the guarantee the paper requires.
func (w *Window) RacyRelease() bool {
	for _, e := range w.RelEvents {
		if e.Key.Kind() != trace.KindRead {
			return false
		}
	}
	return true
}

// RacyAcquire is RacyRelease for the acquire side: racy when empty or all
// writes.
func (w *Window) RacyAcquire() bool {
	for _, e := range w.AcqEvents {
		if e.Key.Kind() != trace.KindWrite {
			return false
		}
	}
	return true
}

// Racy reports whether this window is a data-race observation.
func (w *Window) Racy() bool { return w.RacyRelease() || w.RacyAcquire() }

// Conflict is one conflicting-access pair found in a trace. A and B point
// into the trace's events, so a Conflict is valid only while its trace
// is: recycling or editing the trace's events invalidates it.
type Conflict struct {
	A, B *trace.Event // A executed first
}

// FindConflicts returns every conflicting-access pair in tr within near
// virtual ns: same address, different threads, at least one write, ordered
// A before B. Pairs per static location pair are capped by perPairCap to
// bound the quadratic blowup from loops (the Extractor applies its own
// cross-run cap later).
//
// The per-address lists hold event indices, not event copies: the pair
// loop reads events in place and emits pointers into tr.Events.
//
// The backward walk from each access b skips b's own thread a whole run
// at a time: runStart[i] is where the same-thread run holding list index
// i begins, so meeting an access on b's thread jumps straight past its
// run. Same-thread accesses never pair, so the walk visits the same
// cross-thread pairs in the same order (the cap budget is consumed
// identically), and the list is time-sorted, so anything before a skipped
// run is at least as far from b and the Near cut-off still fires where it
// would have. Per address the walk costs O(accesses + cross-thread pairs
// visited) instead of O(accesses²) on long same-thread runs.
func FindConflicts(tr *trace.Trace, cfg Config) []Conflict {
	ws := workspaces.Get().(*workspace)
	defer workspaces.Put(ws)
	return ws.conflicts(tr, cfg)
}

// conflicts is FindConflicts on this workspace (see FindConflicts).
func (ws *workspace) conflicts(tr *trace.Trace, cfg Config) []Conflict {
	evs := tr.Events
	clear(ws.addrSlot)
	clear(ws.siteSlot)
	ws.lists, ws.addrs = ws.lists[:0], ws.addrs[:0]
	ws.slotOf = sized(ws.slotOf, len(evs))
	for i := range evs {
		e := &evs[i]
		if !e.ConflictEligible() {
			continue
		}
		if e.Lib && !cfg.UseUnsafeAPIs {
			continue
		}
		s, ok := ws.addrSlot[e.Addr]
		if !ok {
			s = int32(len(ws.lists))
			ws.addrSlot[e.Addr] = s
			ws.lists = nextList(ws.lists)
			ws.addrs = append(ws.addrs, addrList{e.Addr, s})
		}
		ws.lists[s] = append(ws.lists[s], int32(i))
		site, ok := ws.siteSlot[e.Site]
		if !ok {
			site = int32(len(ws.siteSlot))
			ws.siteSlot[e.Site] = site
		}
		ws.slotOf[i] = site
	}
	// The per-pair cap below consumes a budget shared across addresses, so
	// the iteration order decides WHICH conflicts survive once a pair
	// exceeds the cap. Walk addresses in sorted order, not in the order
	// they first appear: the selected set (and every inference downstream
	// of it) must not depend on how the trace interleaves addresses.
	slices.SortFunc(ws.addrs, func(a, b addrList) int { return cmp.Compare(a.addr, b.addr) })
	// The scheduler emits time-ordered traces, but uploaded ones may run
	// backwards; the Near cut-off below needs each address's accesses in
	// time order.
	byTime := func(i, j int32) int { return cmp.Compare(evs[i].Time, evs[j].Time) }
	clear(ws.pairSlot)
	ws.perPair, ws.found = ws.perPair[:0], ws.found[:0]
	for _, al := range ws.addrs {
		ix := ws.lists[al.slot]
		if !slices.IsSortedFunc(ix, byTime) {
			slices.SortStableFunc(ix, byTime)
		}
		runStart := ws.runStart[:0]
		for k := range ix {
			if k > 0 && evs[ix[k]].Thread == evs[ix[k-1]].Thread {
				runStart = append(runStart, runStart[k-1])
			} else {
				runStart = append(runStart, int32(k))
			}
		}
		ws.runStart = runStart
		for j := 1; j < len(ix); j++ {
			b := &evs[ix[j]]
			for i := j - 1; i >= 0; i-- {
				a := &evs[ix[i]]
				if b.Time-a.Time > cfg.Near {
					break
				}
				if a.Thread == b.Thread {
					i = int(runStart[i]) // the loop's i-- steps past the run
					continue
				}
				if a.Acc != trace.AccWrite && b.Acc != trace.AccWrite {
					continue
				}
				// The budget of the site pair: dense per-trace site
				// slots pack into one uint64 without collisions,
				// whatever ints the sites are.
				k := uint64(ws.slotOf[ix[i]])<<32 | uint64(ws.slotOf[ix[j]])
				p, ok := ws.pairSlot[k]
				if !ok {
					p = int32(len(ws.perPair))
					ws.pairSlot[k] = p
					ws.perPair = append(ws.perPair, 0)
				}
				if int(ws.perPair[p]) >= cfg.PerPairCap {
					continue
				}
				ws.perPair[p]++
				ws.found = append(ws.found, Conflict{A: a, B: b})
			}
		}
	}
	if len(ws.found) == 0 {
		return nil
	}
	out := slices.Clone(ws.found)
	clear(ws.found) // drop the pointers into tr before the put
	return out
}

// TraceStats returns a trace's per-trace statistics: its per-method
// duration samples (virtual ns) and its distinct library-API names,
// sorted. They are what AddStats folds, so a caller can drop the trace
// once it has them. It is TraceStatsByID over the trace's names interned
// afresh (only those of method and library-call events are hashed),
// rendered by name.
func TraceStats(tr *trace.Trace) (map[string][]float64, []string) {
	ws := workspaces.Get().(*workspace)
	defer workspaces.Put(ws)
	return ws.traceStats(tr)
}

// traceStats is TraceStats on this workspace: it interns the names it
// reads into the workspace's own table.
func (ws *workspace) traceStats(tr *trace.Trace) (map[string][]float64, []string) {
	ws.resetLocal(len(tr.Events))
	for i := range tr.Events {
		if e := &tr.Events[i]; e.Lib || e.Kind == trace.KindBegin || e.Kind == trace.KindEnd {
			ws.ids[i] = ws.local.Intern(e.Name)
		}
	}
	s := ws.traceStatsByID(tr, ws.local, ws.ids)
	durations := make(map[string][]float64, len(s.Durations))
	for _, smp := range s.Durations {
		durations[ws.local.Name(smp.Name)] = smp.Values
	}
	var apis []string
	if len(s.LibAPIs) > 0 {
		apis = make([]string, len(s.LibAPIs))
		for i, id := range s.LibAPIs {
			apis[i] = ws.local.Name(id)
		}
		slices.Sort(apis)
	}
	return durations, apis
}

// Stats is one trace's statistics by name ID, as TraceStatsByID extracts
// them and AddStatsByID folds them: the duration samples of every method
// and library call with a completed call, and the library APIs called.
type Stats struct {
	// Names is the table the IDs are in.
	Names *trace.Names
	// Durations holds one entry per name with samples, in the order of
	// their first completed call.
	Durations []Samples
	// LibAPIs lists the distinct library APIs, in first-seen order.
	LibAPIs []trace.NameID
}

// Samples is one name's duration samples (virtual ns) in a trace.
type Samples struct {
	Name   trace.NameID
	Values []float64
}

// TraceStatsByID returns tr's statistics by name ID: ids are its events'
// name IDs (aligned with tr.Events) in names. No name is hashed. The
// sample slices are carved, capacity-clipped, from one flat array.
func TraceStatsByID(tr *trace.Trace, names *trace.Names, ids []trace.NameID) Stats {
	mustAlign(tr, ids)
	ws := workspaces.Get().(*workspace)
	defer workspaces.Put(ws)
	return ws.traceStatsByID(tr, names, ids)
}

// traceStatsByID is TraceStatsByID on this workspace.
func (ws *workspace) traceStatsByID(tr *trace.Trace, names *trace.Names, ids []trace.NameID) Stats {
	total := ws.stats(tr.Events, ids, names.Len())
	s := Stats{Names: names}
	if len(ws.sampleIDs) > 0 {
		flat := make([]float64, total)
		s.Durations = make([]Samples, len(ws.sampleIDs))
		for i, id := range ws.sampleIDs {
			n := copy(flat, ws.samples[i])
			s.Durations[i] = Samples{Name: id, Values: flat[:n:n]}
			flat = flat[n:]
		}
	}
	if len(ws.apis) > 0 {
		s.LibAPIs = slices.Clone(ws.apis)
	}
	return s
}

// stats collects evs' statistics into the workspace: duration samples
// per name ID (in ws.sampleIDs and ws.samples), pairing Begin/End events
// per thread with a call stack, and the library APIs (in ws.apis).
// Library call sites pair the same way: they never interleave within a
// thread. ids are the events' name IDs in a table of n names; only those
// of Begin, End and library events are read. It returns the number of
// samples.
func (ws *workspace) stats(evs []trace.Event, ids []trace.NameID, n int) int {
	clear(ws.threadSlot)
	ws.stacks, ws.sampleIDs, ws.samples, ws.apis = ws.stacks[:0], ws.sampleIDs[:0], ws.samples[:0], ws.apis[:0]
	ws.sampleSlot, ws.apiSeen = grown(ws.sampleSlot, n+1), grown(ws.apiSeen, n+1)
	total := 0
	for i := range evs {
		e := &evs[i]
		if e.Lib && !ws.apiSeen[ids[i]] {
			ws.apiSeen[ids[i]] = true
			ws.apis = append(ws.apis, ids[i])
		}
		if e.Kind != trace.KindBegin && e.Kind != trace.KindEnd {
			continue
		}
		s, ok := ws.threadSlot[e.Thread]
		if !ok {
			s = int32(len(ws.stacks))
			ws.threadSlot[e.Thread] = s
			ws.stacks = nextList(ws.stacks)
		}
		st := ws.stacks[s]
		if e.Kind == trace.KindBegin {
			ws.stacks[s] = append(st, open{ids[i], e.Time})
			continue
		}
		// Pop until the matching Begin (defensive against hidden methods
		// producing unbalanced logs).
		for len(st) > 0 {
			top := st[len(st)-1]
			st = st[:len(st)-1]
			if top.name == ids[i] {
				ws.addSample(ids[i], float64(e.Time-top.t))
				total++
				break
			}
		}
		ws.stacks[s] = st
	}
	// Unmark the IDs this call touched, for the next one.
	for _, id := range ws.sampleIDs {
		ws.sampleSlot[id] = 0
	}
	for _, id := range ws.apis {
		ws.apiSeen[id] = false
	}
	return total
}

func (ws *workspace) addSample(id trace.NameID, d float64) {
	s := ws.sampleSlot[id] - 1
	if s < 0 {
		s = int32(len(ws.samples))
		ws.sampleSlot[id] = s + 1
		ws.sampleIDs = append(ws.sampleIDs, id)
		ws.samples = nextList(ws.samples)
	}
	ws.samples[s] = append(ws.samples[s], d)
}

// grown returns s extended with zeros to length n, if it is shorter.
func grown[T any](s []T, n int) []T {
	if len(s) >= n {
		return s
	}
	return append(s, make([]T, n-len(s))...)
}

// Observations accumulates everything the Solver consumes, across runs
// (paper Section 4.3: no constraint or statistic from a previous run is
// thrown away).
type Observations struct {
	cfg Config

	Windows []Window
	// perPair counts windows per static pair across all runs (cap 15).
	perPair map[PairID]int

	// Durations tracks method-duration statistics per static method name.
	// Integer moments, not a float running mean: samples are integer-valued
	// virtual nanoseconds, and exact integer moments make the folded state
	// independent of sample arrival order — the property incremental
	// checkpoint folding needs to add only new traces' samples.
	Durations map[string]*stats.Moments

	// The key table: every candidate key an admitted window has held, by
	// KeyID, with per key its total occurrences across admitted windows
	// and the number of windows it appeared in (their ratio is the
	// "average occurrence time" of Eq. 4). A key whose last window is
	// evicted keeps its ID, with zero counts.
	keys   []trace.Key
	keyIDs map[trace.Key]KeyID
	occSum []int
	winCnt []int

	// cands locates each admitted window's distinct candidates in arena,
	// aligned with Windows. The arena only grows by append; a clone shares
	// it capacity-clipped, so each accumulator writes only its own.
	cands []windowCands
	arena []KeyID
	// seen stamps each key with the last window side that counted it.
	seen []uint32
	side uint32

	// LibAPIs records static names seen as library call sites (Single-Role
	// constraint scope).
	LibAPIs map[string]bool

	// AddStatsByID's cache: the name table it last folded and, by ID in
	// it, the name's duration moments and whether LibAPIs holds it, so a
	// name is hashed only the first time the accumulator meets it. A
	// clone starts without one.
	statsNames *trace.Names
	momentsOf  []*stats.Moments
	apiKnown   []bool

	// RacyPairs records static pairs with at least one data-race
	// observation; the Solver drops their Mostly-Protected terms.
	RacyPairs map[PairID]bool

	// Runs counts accumulated traces.
	Runs int
}

// KeyID is a candidate key's dense ID in an accumulator's key table: IDs
// count from 0 in the order the accumulator first admitted the keys, and
// a clone keeps its source's IDs.
type KeyID int32

// windowCands locates one admitted window's distinct candidates in the
// arena: release candidates at [from, mid), acquire candidates at
// [mid, to), each in the order the window first holds them.
type windowCands struct {
	from, mid, to int32
}

// NewObservations returns an empty accumulator with the given config.
func NewObservations(cfg Config) *Observations {
	return &Observations{
		cfg:       cfg,
		perPair:   map[PairID]int{},
		Durations: map[string]*stats.Moments{},
		keyIDs:    map[trace.Key]KeyID{},
		LibAPIs:   map[string]bool{},
		RacyPairs: map[PairID]bool{},
	}
}

// NumKeys returns the number of keys in the key table.
func (o *Observations) NumKeys() int { return len(o.keys) }

// Key returns the candidate key with the given ID.
func (o *Observations) Key(id KeyID) trace.Key { return o.keys[id] }

// Candidates returns the distinct release and acquire candidates of the
// admitted window Windows[i], each in the order the window first holds
// them. The lists are read-only.
func (o *Observations) Candidates(i int) (rel, acq []KeyID) {
	c := o.cands[i]
	return o.arena[c.from:c.mid:c.mid], o.arena[c.mid:c.to:c.to]
}

// intern returns k's ID, entering k in the key table on first sight.
func (o *Observations) intern(k trace.Key) KeyID {
	id, ok := o.keyIDs[k]
	if !ok {
		id = KeyID(len(o.keys))
		o.keyIDs[k] = id
		o.keys = append(o.keys, k)
		o.occSum = append(o.occSum, 0)
		o.winCnt = append(o.winCnt, 0)
		o.seen = append(o.seen, 0)
	}
	return id
}

// count adds one admitted window's statistics and appends its distinct
// candidates to the arena.
func (o *Observations) count(w *Window) windowCands {
	c := windowCands{from: int32(len(o.arena))}
	o.countSide(w.RelEvents)
	c.mid = int32(len(o.arena))
	o.countSide(w.AcqEvents)
	c.to = int32(len(o.arena))
	return c
}

// countSide counts one window side: every occurrence into occSum, every
// distinct key once into winCnt and onto the arena.
func (o *Observations) countSide(evs []CandEvent) {
	if len(evs) == 0 {
		return
	}
	if o.side++; o.side == 0 { // the stamps wrapped: forget them all
		clear(o.seen)
		o.side = 1
	}
	for _, e := range evs {
		id := o.intern(e.Key)
		o.occSum[id]++
		if o.seen[id] != o.side {
			o.seen[id] = o.side
			o.winCnt[id]++
			o.arena = append(o.arena, id)
		}
	}
}

// uncount reverses count for an evicted window. Its arena entries stay
// behind, unreferenced.
func (o *Observations) uncount(w *Window, c windowCands) {
	for _, side := range [2][]CandEvent{w.RelEvents, w.AcqEvents} {
		for _, e := range side {
			o.occSum[o.keyIDs[e.Key]]--
		}
	}
	for _, id := range o.arena[c.from:c.to] {
		o.winCnt[id]--
	}
}

// Config returns the extraction configuration.
func (o *Observations) Config() Config { return o.cfg }

// AddWindows folds a set of windows, possibly refined by the Perturber,
// into the accumulator, enforcing the cross-run per-pair cap and recording
// data-race observations.
func (o *Observations) AddWindows(ws []Window) {
	for i := range ws {
		w := &ws[i]
		if o.perPair[w.Pair] >= o.cfg.PerPairCap {
			continue
		}
		o.perPair[w.Pair]++
		if w.Racy() {
			o.RacyPairs[w.Pair] = true
		}
		o.Windows = append(o.Windows, *w)
		o.cands = append(o.cands, o.count(w))
	}
}

// FullPairs returns the static pairs that hold PerPairCap admitted
// windows (nil when none does). Under AddWindows a pair's count only
// grows, so AddWindows drops every later window of these pairs; under
// AddWindowsCanonical an earlier window can still evict one.
func (o *Observations) FullPairs() map[PairID]bool {
	var full map[PairID]bool
	for p, n := range o.perPair {
		if n >= o.cfg.PerPairCap {
			if full == nil {
				full = map[PairID]bool{}
			}
			full[p] = true
		}
	}
	return full
}

// AddTraceStats folds per-trace statistics (durations, library API names)
// into the accumulator. Call once per trace, independent of windows.
func (o *Observations) AddTraceStats(tr *trace.Trace) {
	o.AddStats(TraceStats(tr))
}

// AddStats folds precomputed per-trace statistics — TraceStats output —
// exactly as AddTraceStats would fold the trace they were extracted from,
// bit for bit: integer-moment accumulation is exactly commutative, so
// neither the map's iteration order nor the order traces are folded in
// can matter. The inference engine uses this to fold runs whose traces
// are already recycled, and checkpoint replay (internal/core) to rebuild
// an accumulator from stored extracts without re-decoding traces.
func (o *Observations) AddStats(durations map[string][]float64, libAPIs []string) {
	for name, durs := range durations {
		addSamples(o.moments(name), durs)
	}
	for _, api := range libAPIs {
		o.LibAPIs[api] = true
	}
	o.Runs++
}

// AddStatsByID folds one trace's statistics by name ID (TraceStatsByID
// output) exactly as AddStats folds the same statistics by name. Names
// are looked up through a cache indexed by ID, so over a campaign each
// name is hashed once; folding statistics of another table starts the
// cache afresh.
func (o *Observations) AddStatsByID(s Stats) {
	if len(s.Durations) > 0 || len(s.LibAPIs) > 0 {
		if s.Names != o.statsNames {
			o.statsNames, o.momentsOf, o.apiKnown = s.Names, o.momentsOf[:0], o.apiKnown[:0]
		}
		n := s.Names.Len() + 1
		o.momentsOf, o.apiKnown = grown(o.momentsOf, n), grown(o.apiKnown, n)
	}
	for _, smp := range s.Durations {
		m := o.momentsOf[smp.Name]
		if m == nil {
			m = o.moments(s.Names.Name(smp.Name))
			o.momentsOf[smp.Name] = m
		}
		addSamples(m, smp.Values)
	}
	for _, id := range s.LibAPIs {
		if !o.apiKnown[id] {
			o.apiKnown[id] = true
			o.LibAPIs[s.Names.Name(id)] = true
		}
	}
	o.Runs++
}

// moments returns the duration moments of the named method, entering
// them on first sight.
func (o *Observations) moments(name string) *stats.Moments {
	m, ok := o.Durations[name]
	if !ok {
		m = &stats.Moments{}
		o.Durations[name] = m
	}
	return m
}

// addSamples adds duration samples to m.
func addSamples(m *stats.Moments, durs []float64) {
	for _, d := range durs {
		m.Add(d)
	}
}

// Clone returns an independent deep copy of the accumulator: mutating
// either afterwards leaves the other unchanged. Window event slices are
// shared — they are immutable under the package's no-mutation contract —
// so cloning per round (benchmark snapshots, what-if solves) stays cheap.
func (o *Observations) Clone() *Observations {
	c := NewObservations(o.cfg)
	c.Windows = append([]Window(nil), o.Windows...)
	for p, n := range o.perPair {
		c.perPair[p] = n
	}
	for name, w := range o.Durations {
		cw := *w
		c.Durations[name] = &cw
	}
	// The key list and the arena only grow by append, never written in
	// place, so the clone shares them capacity-clipped: its first append
	// copies them instead of writing into its source's spare capacity.
	c.keys = slices.Clip(o.keys)
	c.arena = slices.Clip(o.arena)
	c.keyIDs = maps.Clone(o.keyIDs)
	c.occSum = slices.Clone(o.occSum)
	c.winCnt = slices.Clone(o.winCnt)
	c.cands = slices.Clone(o.cands)
	c.seen = slices.Clone(o.seen)
	c.side = o.side
	for api := range o.LibAPIs {
		c.LibAPIs[api] = true
	}
	for p := range o.RacyPairs {
		c.RacyPairs[p] = true
	}
	c.Runs = o.Runs
	return c
}

// ---------------------------------------------------------------------------
// Canonical (arrival-order-independent) accumulation
//
// AddWindows admits first-come: replaying the same windows in a different
// order can admit a different per-pair subset. Checkpoint folding
// (internal/core) instead needs an accumulator whose state is a function
// of the SET of windows offered, so that newly arrived traces can be
// folded into a cached accumulator without replaying the whole corpus.
// AddWindowsCanonical provides that: windows are kept sorted by canonical
// UID order, and the per-pair cap always admits the canonically-smallest
// PerPairCap windows offered so far — evicting a previously admitted
// window when a canonically earlier one arrives late. When windows arrive
// already in canonical order (a full sorted replay), the admitted set,
// the window order, and every derived statistic are bit-identical to
// AddWindows.
// ---------------------------------------------------------------------------

// canonicalUIDLess orders window UIDs of the "<trace-key>:<ordinal>" form
// by (key, numeric ordinal). A plain string compare would put ordinal 10
// before ordinal 2; splitting at the last colon and comparing the ordinal
// numerically matches the order a sorted-by-key replay offers windows in.
// UIDs that do not parse fall back to plain string order.
func canonicalUIDLess(a, b string) bool {
	pa, oa, oka := splitUID(a)
	pb, ob, okb := splitUID(b)
	if oka && okb {
		if pa != pb {
			return pa < pb
		}
		return oa < ob
	}
	return a < b
}

// splitUID splits "<prefix>:<ordinal>" at the last colon.
func splitUID(uid string) (prefix string, ord int, ok bool) {
	i := strings.LastIndexByte(uid, ':')
	if i < 0 || i == len(uid)-1 {
		return "", 0, false
	}
	n, err := strconv.Atoi(uid[i+1:])
	if err != nil || n < 0 {
		return "", 0, false
	}
	return uid[:i], n, true
}

// AddWindowsCanonical folds windows under canonical admission (see above).
// Every window must carry a UID; canonical order is only meaningful across
// identified windows. Mixing AddWindows and AddWindowsCanonical on one
// accumulator is unsupported.
func (o *Observations) AddWindowsCanonical(ws []Window) {
	for i := range ws {
		o.insertCanonical(&ws[i])
	}
}

// insertCanonical admits one window at its canonical position, evicting
// the pair's canonically-last admitted window if the pair is at cap and w
// precedes it.
func (o *Observations) insertCanonical(w *Window) {
	pos := sort.Search(len(o.Windows), func(i int) bool {
		return canonicalUIDLess(w.UID, o.Windows[i].UID)
	})
	if o.perPair[w.Pair] >= o.cfg.PerPairCap {
		last := -1
		for i := len(o.Windows) - 1; i >= 0; i-- {
			if o.Windows[i].Pair == w.Pair {
				last = i
				break
			}
		}
		if last < pos {
			// Every admitted window of the pair canonically precedes w:
			// under canonical admission w would never have been admitted.
			return
		}
		o.evictAt(last)
	}
	o.Windows = slices.Insert(o.Windows, pos, *w)
	o.cands = slices.Insert(o.cands, pos, o.count(w))
	o.perPair[w.Pair]++
	if w.Racy() {
		o.RacyPairs[w.Pair] = true
	}
}

// evictAt removes the admitted window at index i, reversing its
// contribution to every derived statistic.
func (o *Observations) evictAt(i int) {
	w := o.Windows[i]
	o.uncount(&w, o.cands[i])
	o.Windows = slices.Delete(o.Windows, i, i+1)
	o.cands = slices.Delete(o.cands, i, i+1)
	o.perPair[w.Pair]--
	if w.Racy() {
		o.recomputeRacy(w.Pair)
	}
}

// recomputeRacy re-derives the pair's data-race flag from the currently
// admitted windows (an eviction may have removed the only racy witness).
func (o *Observations) recomputeRacy(p PairID) {
	for i := range o.Windows {
		if o.Windows[i].Pair == p && o.Windows[i].Racy() {
			o.RacyPairs[p] = true
			return
		}
	}
	delete(o.RacyPairs, p)
}

// AvgOccurrence returns the average number of times key occurs in the
// windows it appears in (Eq. 4's coefficient input); 0 if never seen.
func (o *Observations) AvgOccurrence(k trace.Key) float64 {
	id, ok := o.keyIDs[k]
	if !ok {
		return 0
	}
	return o.AvgOccurrenceOf(id)
}

// AvgOccurrenceOf is AvgOccurrence by key ID.
func (o *Observations) AvgOccurrenceOf(id KeyID) float64 {
	if o.winCnt[id] == 0 {
		return 0
	}
	return float64(o.occSum[id]) / float64(o.winCnt[id])
}

// CVPercentiles returns, for every method with duration samples, the
// percentile of its duration CV among all observed methods (Eq. 5).
func (o *Observations) CVPercentiles() map[string]float64 {
	names := make([]string, 0, len(o.Durations))
	cvs := make([]float64, 0, len(o.Durations))
	for name, w := range o.Durations {
		names = append(names, name)
		cvs = append(cvs, w.CV())
	}
	ps := stats.Percentiles(cvs)
	out := make(map[string]float64, len(names))
	for i, name := range names {
		out[name] = ps[i]
	}
	return out
}

// ActiveWindows returns the accumulated windows whose static pair has no
// data-race observation; only these contribute Mostly-Protected terms.
func (o *Observations) ActiveWindows() []Window {
	out := make([]Window, 0, len(o.Windows))
	for _, w := range o.Windows {
		if o.RacyPairs[w.Pair] {
			continue
		}
		out = append(out, w)
	}
	return out
}
