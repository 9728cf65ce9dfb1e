package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"time"

	"sherlock/internal/apps"
	"sherlock/internal/core"
	"sherlock/internal/lp"
	"sherlock/internal/prog"
	"sherlock/internal/sched"
	"sherlock/internal/solver"
	"sherlock/internal/store"
	"sherlock/internal/trace"
	"sherlock/internal/window"
)

// The corpus workload: upload once, infer many. Set-up captures about
// five hundred traces; the timed loop streams them in fixed interleaved
// batches into a fresh on-disk corpus and advances each touched app's
// incremental checkpoint after every batch. One op is one batch update.
const (
	// corpusSeeds scheduler seeds per built-in test: 6 × 82 tests = 492
	// traces per pass, short enough for several passes in one run.
	corpusSeeds = 6
	// corpusBatch traces per batch update: 246 batches per pass, so each
	// pass has more than ten batches beyond its p95.
	corpusBatch = 2
	// corpusLimit is the latency limit behind slo_ok_ratio.
	corpusLimit = 250 * time.Millisecond
)

// keyedTrace is one captured trace with its content address.
type keyedTrace struct {
	key string
	tr  *trace.Trace
}

// corpusSetup holds the captured traces in upload order and, per app, the
// from-scratch reference result over all of that app's traces.
type corpusSetup struct {
	order []keyedTrace
	progs map[string]*prog.Program
	refs  map[string]*core.Result
}

// setupCorpus captures the traces, interleaves them across apps (app by
// app, round robin) and solves each app's reference from scratch.
func setupCorpus(ctx context.Context, seed int64) (*corpusSetup, error) {
	s := &corpusSetup{progs: map[string]*prog.Program{}, refs: map[string]*core.Result{}}
	rng := rand.New(rand.NewSource(seed))
	perApp := map[string][]keyedTrace{}
	for k := 0; k < corpusSeeds; k++ {
		base := rng.Int63n(1 << 40)
		for _, name := range apps.Names() {
			p := s.progs[name]
			if p == nil {
				var err error
				if p, err = buildProgram(name); err != nil {
					return nil, err
				}
				s.progs[name] = p
			}
			kts, err := captureApp(ctx, p, base)
			if err != nil {
				return nil, err
			}
			perApp[name] = append(perApp[name], kts...)
		}
	}
	for i := 0; ; i++ {
		added := false
		for _, name := range apps.Names() {
			if i < len(perApp[name]) {
				s.order = append(s.order, perApp[name][i])
				added = true
			}
		}
		if !added {
			break
		}
	}
	cfg := core.DefaultConfig()
	for _, name := range apps.Names() {
		res, err := fromScratch(ctx, perApp[name], cfg)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", name, err)
		}
		s.refs[name] = res
	}
	return s, nil
}

// captureApp runs each test of p once, test i under scheduler seed
// base+i*127, and returns the traces with their content addresses. The
// corpus and serve workloads capture their traces this way.
func captureApp(ctx context.Context, p *prog.Program, base int64) ([]keyedTrace, error) {
	out := make([]keyedTrace, 0, len(p.Tests))
	for ti, test := range p.Tests {
		run, err := sched.RunContext(ctx, p, test, sched.Options{
			Seed:          base + int64(ti)*127,
			HiddenMethods: p.Truth.HiddenMethods,
		})
		if err != nil {
			return nil, fmt.Errorf("capture %s/%s: %w", p.Name, test.Name, err)
		}
		key, err := store.Key(run.Trace)
		if err != nil {
			return nil, err
		}
		out = append(out, keyedTrace{key, run.Trace})
	}
	return out, nil
}

// fromScratch solves traces offline in sorted-key order — the result an
// incremental checkpoint over the same keys must reproduce.
func fromScratch(ctx context.Context, kts []keyedTrace, cfg core.Config) (*core.Result, error) {
	sorted := append([]keyedTrace(nil), kts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].key < sorted[j].key })
	src := make(core.SliceSource, len(sorted))
	for i, kt := range sorted {
		src[i] = kt.tr
	}
	return core.InferFromSource(ctx, src, cfg)
}

// sameResult compares two results with the wall-clock fields ignored.
func sameResult(a, b *core.Result) (bool, error) {
	ja, err := json.Marshal(withoutWall(a))
	if err != nil {
		return false, err
	}
	jb, err := json.Marshal(withoutWall(b))
	if err != nil {
		return false, err
	}
	return string(ja) == string(jb), nil
}

// withoutWall copies r with the wall-clock fields zeroed.
func withoutWall(r *core.Result) *core.Result {
	c := *r
	c.Overhead.RunWall, c.Overhead.SolveWall = 0, 0
	return &c
}

// corpusPass is one stream of every batch into a fresh corpus.
type corpusPass struct {
	c   *store.Corpus
	cks map[string]*core.Checkpoint
}

func newCorpusPass(dir string) (*corpusPass, error) {
	c, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	return &corpusPass{c: c, cks: map[string]*core.Checkpoint{}}, nil
}

// batchTimes is the per-call timing of one traced batch update.
type batchTimes struct {
	ingest      []time.Duration
	incremental time.Duration
}

// update ingests one batch and advances the checkpoint of every app the
// batch touched, in app order. It returns the apps touched. bt, when
// non-nil, receives per-call timings.
func (p *corpusPass) update(ctx context.Context, batch []keyedTrace, cfg core.Config, bt *batchTimes) ([]string, error) {
	keys := map[string][]string{}
	for _, kt := range batch {
		t0 := time.Now()
		e, added, err := p.c.Ingest(kt.tr)
		if bt != nil {
			bt.ingest = append(bt.ingest, time.Since(t0))
		}
		if err != nil {
			return nil, err
		}
		if !added || e.Key != kt.key {
			return nil, fmt.Errorf("ingest of %s/%s: key %s, added %v (want new key %s)", kt.tr.App, kt.tr.Test, e.Key, added, kt.key)
		}
		keys[kt.tr.App] = append(keys[kt.tr.App], kt.key)
	}
	touched := sortedKeys(keys)
	for _, app := range touched {
		t0 := time.Now()
		_, ck, err := core.InferIncremental(ctx, p.cks[app], p.c.Source(keys[app]...), cfg)
		if bt != nil {
			bt.incremental += time.Since(t0)
		}
		if err != nil {
			return nil, fmt.Errorf("incremental %s: %w", app, err)
		}
		p.cks[app] = ck
	}
	return touched, nil
}

// check compares every app's checkpoint after a whole pass with the
// from-scratch solve over all of that app's traces.
func (p *corpusPass) check(s *corpusSetup, rep *report) error {
	for _, app := range sortedKeys(p.cks) {
		got, want := p.cks[app].Result, s.refs[app]
		same, err := sameResult(got, want)
		if err != nil {
			return err
		}
		if !same {
			rep.fail("%s: incremental result over %d traces differs from a from-scratch solve", app, len(p.cks[app].Extracts))
		}
	}
	return nil
}

func runCorpus(ctx context.Context, o options) (*report, error) {
	var e endToEnd
	var s *corpusSetup
	for i := 0; i < setupReps; i++ {
		s = nil
		runtime.GC() // each set-up starts from the same heap
		w := startWatch()
		next, err := setupCorpus(ctx, o.seed)
		if err != nil {
			return nil, err
		}
		e.setup(w)
		s = next
	}
	rep := &report{record: map[string]any{
		"traces":           len(s.order),
		"batch":            corpusBatch,
		"latency_limit_ms": ms(corpusLimit),
	}}
	cfg := core.DefaultConfig()
	var tl *corpusLayers
	if o.traced {
		tl = newCorpusLayers(cfg)
	}
	e.limit = corpusLimit

	// The loop runs whole passes, starting a new one while the run has
	// time left: a batch's cost grows with the corpus, so a run cut
	// mid-pass would weigh early, cheap batches by where it stopped. Only
	// the passes themselves count towards ops_per_s, not the checks and
	// clean-up between them.
	passes := 0
	var late []time.Duration
	start := time.Now()
	prevEnd := start
	for ; passes == 0 || time.Since(start) < o.length; passes++ {
		runtime.GC() // each pass pays for its own garbage only
		passWatch := startWatch()
		pass, err := newCorpusPass(filepath.Join(o.workDir, fmt.Sprintf("corpus-%03d", passes)))
		if err != nil {
			return nil, err
		}
		if tl != nil {
			tl.reset()
		}
		for next := 0; next < len(s.order); next += corpusBatch {
			batch := s.order[next:min(next+corpusBatch, len(s.order))]
			var bt *batchTimes
			if tl != nil && next/corpusBatch%2 == 1 {
				bt = &batchTimes{}
			}
			var prevCks map[string]*core.Checkpoint
			if tl != nil {
				prevCks = make(map[string]*core.Checkpoint, len(pass.cks))
				for app, ck := range pass.cks {
					prevCks[app] = ck
				}
			}
			rep.attempted++
			late = append(late, time.Since(prevEnd))
			w := startWatch()
			touched, err := pass.update(ctx, batch, cfg, bt)
			lat, cpu := w.elapsed()
			if err != nil {
				rep.failOp("%v", err)
			} else {
				e.add(lat)
				e.cpus = append(e.cpus, cpu)
			}
			if tl != nil {
				if err := tl.observe(pass, prevCks, batch, touched, lat, bt, rep); err != nil {
					return nil, err
				}
			}
			prevEnd = time.Now()
		}
		wall, cpu := passWatch.elapsed()
		e.busy += wall
		e.busyCPU += cpu
		if err := pass.check(s, rep); err != nil {
			return nil, err
		}
		os.RemoveAll(pass.c.Dir())
	}
	rep.record["passes"] = passes
	for _, app := range apps.Names() {
		e.quality.add(s.progs[app], s.refs[app])
	}
	if tl != nil {
		vals := map[string]float64{"loadgen.late_ms_p95": ms(percentile(late, 0.95))}
		tl.fill(vals)
		rep.metrics = layerMetrics(vals)
		return rep, nil
	}
	rep.metrics = e.metrics(rep)
	return rep, nil
}

// corpusLayers is the corpus per-layer pass. Odd batches are timed call by
// call (Corpus.Ingest, core.InferIncremental); even batches are timed as a
// whole, and the gap between the two is the timing overhead. After every
// batch, outside its op time, the benchmark measures the codec
// (EncodeTrace/DecodeTrace, Corpus.Get) and extraction (core.ExtractTrace,
// window.FindConflicts/BuildWindows) on the batch's traces, and re-solves
// each touched app itself — the extracts folded canonically into its own
// accumulator, warm from the checkpoint's previous basis — asserting the
// same inferred set as InferIncremental.
type corpusLayers struct {
	scfg solver.Config
	wcfg window.Config
	accs map[string]*window.Observations

	batches, tracedBatches int
	timedLat, plainLat     time.Duration
	ingest, get            []time.Duration
	incremental, extract   time.Duration
	window                 time.Duration
	conflicts, windows     int
	encBytes, decBytes     int64
	encTime, decTime       time.Duration

	solver                                time.Duration
	solves, warm, pivots, presolved, rows int
}

func newCorpusLayers(cfg core.Config) *corpusLayers {
	return &corpusLayers{scfg: solverConfig(cfg), wcfg: cfg.Window}
}

// reset starts a pass: the replay accumulators follow the fresh checkpoints.
func (l *corpusLayers) reset() { l.accs = map[string]*window.Observations{} }

// observe folds one finished batch into the layer figures. prevCks are the
// checkpoints the batch update started from.
func (l *corpusLayers) observe(pass *corpusPass, prevCks map[string]*core.Checkpoint, batch []keyedTrace, touched []string, lat time.Duration, bt *batchTimes, rep *report) error {
	l.batches++
	if bt != nil {
		l.tracedBatches++
		l.timedLat += lat
		l.ingest = append(l.ingest, bt.ingest...)
		l.incremental += bt.incremental
	} else {
		l.plainLat += lat
	}
	fresh := map[string][]core.TraceExtract{}
	for _, kt := range batch {
		t0 := time.Now()
		bin, err := store.EncodeTrace(kt.tr)
		t1 := time.Now()
		if err != nil {
			return err
		}
		if _, err := store.DecodeTrace(bin); err != nil {
			return err
		}
		t2 := time.Now()
		if _, err := pass.c.Get(kt.key); err != nil {
			return err
		}
		t3 := time.Now()
		x := core.ExtractTrace(kt.key, kt.tr, l.wcfg)
		t4 := time.Now()
		conflicts := window.FindConflicts(kt.tr, l.wcfg)
		ws := window.BuildWindows(kt.tr, conflicts)
		t5 := time.Now()
		l.encTime += t1.Sub(t0)
		l.decTime += t2.Sub(t1)
		l.encBytes += int64(len(bin))
		l.decBytes += int64(len(bin))
		l.get = append(l.get, t3.Sub(t2))
		l.extract += t4.Sub(t3)
		l.window += t5.Sub(t4)
		l.conflicts += len(conflicts)
		l.windows += len(ws)
		fresh[kt.tr.App] = append(fresh[kt.tr.App], x)
	}
	for _, app := range touched {
		acc := l.accs[app]
		if acc == nil {
			acc = window.NewObservations(l.wcfg)
			l.accs[app] = acc
		}
		xs := fresh[app]
		sort.Slice(xs, func(i, j int) bool { return xs[i].Key < xs[j].Key })
		for i := range xs {
			acc.AddWindowsCanonical(xs[i].Windows)
			acc.AddStats(xs[i].Durations, xs[i].LibAPIs)
		}
		ck := pass.cks[app]
		if ck == nil {
			continue // the update failed; already counted
		}
		var warm *lp.Basis
		if prev := prevCks[app]; prev != nil {
			warm = prev.Basis
		}
		t0 := time.Now()
		sr, _, err := solver.NewEncoder(l.scfg).Solve(acc, warm)
		l.solver += time.Since(t0)
		if err != nil {
			return err
		}
		l.solves++
		if sr.WarmStarted {
			l.warm++
		}
		l.pivots += sr.Iters
		l.presolved += sr.RowsPresolved
		l.rows += sr.Constraints
		if !reflect.DeepEqual(inferredFrom(sr), ck.Result.Inferred) {
			rep.fail("%s: re-solving the batch's extracts differs from InferIncremental", app)
		}
	}
	return nil
}

func (l *corpusLayers) fill(vals map[string]float64) {
	vals["store.ingest_ms_p50"] = ms(percentile(l.ingest, 0.5))
	vals["store.get_ms_p50"] = ms(percentile(l.get, 0.5))
	vals["store.encode_mb_per_s"] = mbPerS(l.encBytes, l.encTime)
	vals["store.decode_mb_per_s"] = mbPerS(l.decBytes, l.decTime)
	vals["core.extract_ms"] = perOp(l.extract, l.batches)
	vals["core.incremental_ms"] = perOp(l.incremental, l.tracedBatches)
	vals["window.busy_ms"] = perOp(l.window, l.batches)
	vals["window.conflicts"] = float64(l.conflicts) / float64(max(l.batches, 1))
	vals["window.windows"] = float64(l.windows) / float64(max(l.batches, 1))
	vals["solver.busy_ms"] = perOp(l.solver, l.batches)
	vals["solver.pivots"] = float64(l.pivots) / float64(max(l.batches, 1))
	vals["solver.warm_ratio"] = ratio(l.warm, l.solves)
	vals["solver.presolve_row_ratio"] = ratio(l.presolved, l.rows)
	if plain := l.batches - l.tracedBatches; plain > 0 && l.tracedBatches > 0 {
		timed := float64(l.timedLat) / float64(l.tracedBatches)
		untimed := float64(l.plainLat) / float64(plain)
		vals["bench.trace_overhead_pct"] = 100 * (timed/untimed - 1)
	}
}

func mbPerS(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / (1 << 20) / d.Seconds()
}
