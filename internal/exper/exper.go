// Package exper drives every experiment of the paper's evaluation
// (Section 5): it runs the SherLock engine over the benchmark applications
// under the parameterizations each table/figure calls for, returns
// structured results for tests to assert on, and renders them as ASCII
// tables shaped like the paper's (render.go). Evaluate is the one entry
// point that runs and prints the whole evaluation.
package exper

import (
	"context"
	"io"
	"sort"

	"sherlock/internal/apps"
	"sherlock/internal/core"
	"sherlock/internal/prog"
	"sherlock/internal/race"
	"sherlock/internal/solver"
	"sherlock/internal/trace"
	"sherlock/internal/tsvd"
	"sherlock/internal/window"
)

// AppRun bundles one application's inference and score.
type AppRun struct {
	App    *prog.Program
	Result *core.Result
	Score  *core.Score
}

// RunAll infers every benchmark app under cfg, campaigns running
// concurrently via core.InferAll.
func RunAll(ctx context.Context, cfg core.Config) ([]AppRun, error) {
	all := apps.All()
	results, err := core.InferAll(ctx, all, cfg)
	if err != nil {
		return nil, err
	}
	out := make([]AppRun, 0, len(all))
	for i, app := range all {
		res := results[i]
		out = append(out, AppRun{App: app, Result: res, Score: core.ScoreResult(app, res)})
	}
	return out, nil
}

// UniqueCorrect counts distinct correctly inferred keys across runs
// (the paper's parenthesized unique sums).
func UniqueCorrect(runs []AppRun) int {
	seen := map[trace.Key]bool{}
	for _, r := range runs {
		for _, c := range r.Score.Correct {
			seen[c.Key] = true
		}
	}
	return len(seen)
}

// UniqueTotal counts distinct inferred keys (correct or not) across runs.
func UniqueTotal(runs []AppRun) int {
	seen := map[trace.Key]bool{}
	for _, r := range runs {
		for _, inf := range r.Result.Inferred {
			seen[inf.Key] = true
		}
	}
	return len(seen)
}

// ---------------------------------------------------------------------------
// Table 2 — inferred results after 3 rounds
// ---------------------------------------------------------------------------

// Table2Row is one application's classification counts.
type Table2Row struct {
	App         string
	Syncs       int
	DataRacy    int
	InstrErrors int
	NotSync     int
	Missed      int
}

// Table2 classifies the default campaign's inferences per app.
func Table2(runs []AppRun) []Table2Row {
	rows := make([]Table2Row, 0, len(runs))
	for _, r := range runs {
		rows = append(rows, Table2Row{
			App:         r.App.Name,
			Syncs:       len(r.Score.Correct),
			DataRacy:    len(r.Score.DataRacy),
			InstrErrors: len(r.Score.InstrErrors),
			NotSync:     len(r.Score.NotSync),
			Missed:      len(r.Score.Missed),
		})
	}
	return rows
}

// ---------------------------------------------------------------------------
// Table 3 — race detection, Manual_dr vs SherLock_dr
// ---------------------------------------------------------------------------

// Table3 compares the two detector variants per app, using each app's own
// inference result for SherLock_dr.
func Table3(ctx context.Context, runs []AppRun) ([]*race.Comparison, error) {
	out := make([]*race.Comparison, 0, len(runs))
	for _, r := range runs {
		cmp, err := race.Compare(ctx, r.App, r.Result.SyncKeys(), race.DefaultCompareConfig())
		if err != nil {
			return nil, err
		}
		out = append(out, cmp)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Table 4 — breakdown of false positives/negatives
// ---------------------------------------------------------------------------

// Table4Row is one misclassification bucket.
type Table4Row struct {
	Category   prog.FPCategory
	FalseSyncs int
	Missed     int
	FalseRaces int
}

// Table4Categories fixes the row order of the paper's Table 4.
var Table4Categories = []prog.FPCategory{
	prog.CatInstrError, prog.CatDoubleRole, prog.CatDispose,
	prog.CatStaticCtor, prog.CatOther,
}

// Table4 aggregates bucket counts across apps, joining the inference scores
// with SherLock_dr's false-race causes.
func Table4(runs []AppRun, cmps []*race.Comparison) []Table4Row {
	fp := map[prog.FPCategory]int{}
	miss := map[prog.FPCategory]int{}
	falseRaces := map[prog.FPCategory]int{}
	for _, r := range runs {
		for c, n := range r.Score.FPByCategory {
			if c == prog.CatDataRacy {
				continue // Table 4 covers the non-race misclassifications
			}
			fp[c] += n
		}
		for c, n := range r.Score.MissByCategory {
			miss[c] += n
		}
	}
	for _, c := range cmps {
		for cat, n := range c.SherFalseByCause {
			falseRaces[cat] += n
		}
	}
	rows := make([]Table4Row, 0, len(Table4Categories))
	for _, cat := range Table4Categories {
		rows = append(rows, Table4Row{
			Category: cat, FalseSyncs: fp[cat], Missed: miss[cat], FalseRaces: falseRaces[cat],
		})
	}
	return rows
}

// ---------------------------------------------------------------------------
// Table 5 — hypothesis ablation
// ---------------------------------------------------------------------------

// Ablation names one Table 5 row and its hypothesis toggle.
type Ablation struct {
	Name  string
	Apply func(*solver.Hypotheses)
}

// Ablations lists the paper's Table 5 rows.
var Ablations = []Ablation{
	{"SherLock", func(*solver.Hypotheses) {}},
	{"w/o Mostly are Protected", func(h *solver.Hypotheses) { h.MostlyProtected = false }},
	{"w/o Synchronizations are Rare", func(h *solver.Hypotheses) { h.SyncsAreRare = false }},
	{"w/o Acq-Time Varies", func(h *solver.Hypotheses) { h.AcqTimeVaries = false }},
	{"w/o Mostly are Paired", func(h *solver.Hypotheses) { h.MostlyPaired = false }},
	{"w/o Read-Acq & Write-Rel", func(h *solver.Hypotheses) { h.ReadAcqWriteRel = false }},
	{"w/o Single Role", func(h *solver.Hypotheses) { h.SingleRole = false }},
}

// Table5Row is one ablation's aggregate result.
type Table5Row struct {
	Name      string
	Correct   int // unique correct across apps
	Total     int // unique inferred across apps
	Precision float64
}

// Table5 runs every ablation over all apps.
func Table5(ctx context.Context) ([]Table5Row, error) {
	rows := make([]Table5Row, 0, len(Ablations))
	for _, ab := range Ablations {
		cfg := core.DefaultConfig()
		ab.Apply(&cfg.Solver.Hyp)
		runs, err := RunAll(ctx, cfg)
		if err != nil {
			return nil, err
		}
		row := Table5Row{Name: ab.Name, Correct: UniqueCorrect(runs), Total: UniqueTotal(runs)}
		if row.Total > 0 {
			row.Precision = float64(row.Correct) / float64(row.Total)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Figure 4 — Perturber / feedback settings across rounds
// ---------------------------------------------------------------------------

// FeedbackSetting names one Figure 4 line.
type FeedbackSetting struct {
	Name  string
	Apply func(*core.Config)
}

// FeedbackSettings lists the figure's four lines.
var FeedbackSettings = []FeedbackSetting{
	{"SherLock", func(*core.Config) {}},
	{"no delay injection", func(c *core.Config) { c.InjectDelays = false }},
	{"no accumulation", func(c *core.Config) { c.Accumulate = false }},
	{"no race removal", func(c *core.Config) { c.RemoveRacyMP = false }},
}

// Figure4Series holds correct-sync counts per round for one setting.
type Figure4Series struct {
	Name    string
	Correct []int // index = round-1, summed unique across apps
}

// Figure4Rounds is the number of rounds Figure 4 plots.
const Figure4Rounds = 5

// Figure4 runs each feedback setting for Figure4Rounds rounds.
func Figure4(ctx context.Context) ([]Figure4Series, error) {
	out := make([]Figure4Series, 0, len(FeedbackSettings))
	for _, fs := range FeedbackSettings {
		cfg := core.DefaultConfig()
		cfg.Rounds = Figure4Rounds
		fs.Apply(&cfg)
		perRound := make([]map[trace.Key]bool, Figure4Rounds)
		for i := range perRound {
			perRound[i] = map[trace.Key]bool{}
		}
		all := apps.All()
		results, err := core.InferAll(ctx, all, cfg)
		if err != nil {
			return nil, err
		}
		for ai, app := range all {
			res := results[ai]
			for i, snap := range res.Rounds {
				m := map[trace.Key]trace.Role{}
				for _, k := range snap.Acquires {
					m[k] = trace.RoleAcquire
				}
				for _, k := range snap.Releases {
					m[k] = trace.RoleRelease
				}
				for k, role := range m {
					if tr, ok := app.Truth.Syncs[k]; ok && tr == role {
						perRound[i][k] = true
					}
				}
			}
		}
		series := Figure4Series{Name: fs.Name, Correct: make([]int, Figure4Rounds)}
		for i := range perRound {
			series.Correct[i] = len(perRound[i])
		}
		out = append(out, series)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Table 6 — λ sensitivity
// ---------------------------------------------------------------------------

// LambdaValues are the paper's sweep points.
var LambdaValues = []float64{0.1, 0.2, 0.4, 0.6, 0.8, 1, 5, 10, 50, 100}

// SweepRow is one parameter sweep point.
type SweepRow struct {
	Param   float64
	Correct int
	Total   int
}

// Table6 sweeps λ.
func Table6(ctx context.Context) ([]SweepRow, error) {
	rows := make([]SweepRow, 0, len(LambdaValues))
	for _, lam := range LambdaValues {
		cfg := core.DefaultConfig()
		cfg.Solver.Lambda = lam
		runs, err := RunAll(ctx, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SweepRow{Param: lam, Correct: UniqueCorrect(runs), Total: UniqueTotal(runs)})
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Table 7 — Near sensitivity
// ---------------------------------------------------------------------------

// NearValues span the paper's small/default/large sweep. The paper's small
// setting (0.01 s against 1 s) cut most conflicting pairs because its
// operations span milliseconds; our virtual operations span nanoseconds to
// microseconds, so the equivalent "too small" window is 2 µs (0.002×) —
// what matters is that it is smaller than the program's synchronization
// distances, as the paper's was.
var NearValues = []int64{2_000, 1_000_000, 100_000_000}

// Table7 sweeps Near.
func Table7(ctx context.Context) ([]SweepRow, error) {
	rows := make([]SweepRow, 0, len(NearValues))
	for _, near := range NearValues {
		cfg := core.DefaultConfig()
		cfg.Window.Near = near
		runs, err := RunAll(ctx, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SweepRow{
			Param:   float64(near) / float64(window.DefaultConfig().Near),
			Correct: UniqueCorrect(runs),
			Total:   UniqueTotal(runs),
		})
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Tables 8/9 — inferred synchronization listings
// ---------------------------------------------------------------------------

// Listing is one app's inferred operations, split by role.
type Listing struct {
	App      string
	Releases []string
	Acquires []string
}

// Listings renders the per-app inferred operation lists (the reproduction
// of Tables 8 and 9, over all eight apps).
func Listings(runs []AppRun) []Listing {
	out := make([]Listing, 0, len(runs))
	for _, r := range runs {
		l := Listing{App: r.App.Name + " (" + r.App.Title + ")"}
		for _, inf := range r.Result.Inferred {
			disp := inf.Key.Display()
			if inf.Role == trace.RoleRelease {
				l.Releases = append(l.Releases, disp)
			} else {
				l.Acquires = append(l.Acquires, disp)
			}
		}
		sort.Strings(l.Releases)
		sort.Strings(l.Acquires)
		out = append(out, l)
	}
	return out
}

// ---------------------------------------------------------------------------
// Section 5.6 — TSVD enhancement
// ---------------------------------------------------------------------------

// TSVDRow is one app's TSVD comparison.
type TSVDRow struct {
	App         string
	Conflicting int
	TSVDSynced  int
	SherSynced  int
}

// TSVDEnhancement runs the TSVD experiment on every app, using each app's
// own inference result.
func TSVDEnhancement(ctx context.Context, runs []AppRun) ([]TSVDRow, error) {
	out := make([]TSVDRow, 0, len(runs))
	for _, r := range runs {
		t, err := tsvd.Analyze(ctx, r.App, r.Result.SyncKeys(), tsvd.DefaultConfig())
		if err != nil {
			return nil, err
		}
		out = append(out, TSVDRow{
			App:         r.App.Name,
			Conflicting: len(t.Conflicting),
			TSVDSynced:  len(t.TSVDSynced),
			SherSynced:  len(t.SherSynced),
		})
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Extensions beyond the paper
// ---------------------------------------------------------------------------

// BarrierRoles records which roles of App-5's Barrier::SignalAndWait — a
// double-role API whose arrival releases and whose return acquires — the
// hard and the soft (Section 5.5 future work) Single-Role constraint infer.
type BarrierRoles struct {
	HardAcquire, HardRelease bool
	SoftAcquire, SoftRelease bool
}

// SoftSingleRole reruns App-5 with Single-Role as a soft constraint and
// reads the barrier's roles from both runs; runs supplies the hard one.
func SoftSingleRole(ctx context.Context, runs []AppRun) (BarrierRoles, error) {
	const barrier = "System.Threading.Barrier::SignalAndWait"
	var out BarrierRoles
	for _, r := range runs {
		if r.App.Name != "App-5" {
			continue
		}
		cfg := core.DefaultConfig()
		cfg.Solver.SoftSingleRole = true
		soft, err := core.Infer(ctx, r.App, cfg)
		if err != nil {
			return out, err
		}
		hardSet, softSet := r.Result.SyncKeys(), soft.SyncKeys()
		_, out.HardAcquire = hardSet["begin:"+barrier]
		_, out.HardRelease = hardSet["end:"+barrier]
		_, out.SoftAcquire = softSet["begin:"+barrier]
		_, out.SoftRelease = softSet["end:"+barrier]
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// The whole evaluation
// ---------------------------------------------------------------------------

// Evaluation holds every experiment's structured result.
type Evaluation struct {
	// Runs is the default-configuration campaign over all apps. Tables 2,
	// 3, 4, 8/9, the TSVD comparison and both extensions share it.
	Runs     []AppRun
	Table3   []*race.Comparison
	Table5   []Table5Row
	Figure4  []Figure4Series
	Table6   []SweepRow
	Table7   []SweepRow
	TSVD     []TSVDRow
	Overhead []OverheadRow
	Barrier  BarrierRoles
	// ProbabilisticCorrect is the unique correct count when each delay is
	// injected with probability 0.5 (the paper's footnote 1).
	ProbabilisticCorrect int
}

// Run runs every experiment once. The ablation and sweep tables run their
// default-configuration point on their own, so their agreement with Runs
// is a check, not a copy.
func Run(ctx context.Context) (*Evaluation, error) {
	e := &Evaluation{}
	var err error
	if e.Runs, err = RunAll(ctx, core.DefaultConfig()); err != nil {
		return nil, err
	}
	if e.Table3, err = Table3(ctx, e.Runs); err != nil {
		return nil, err
	}
	if e.Table5, err = Table5(ctx); err != nil {
		return nil, err
	}
	if e.Figure4, err = Figure4(ctx); err != nil {
		return nil, err
	}
	if e.Table6, err = Table6(ctx); err != nil {
		return nil, err
	}
	if e.Table7, err = Table7(ctx); err != nil {
		return nil, err
	}
	if e.TSVD, err = TSVDEnhancement(ctx, e.Runs); err != nil {
		return nil, err
	}
	if e.Overhead, err = Overhead(ctx); err != nil {
		return nil, err
	}
	if e.Barrier, err = SoftSingleRole(ctx, e.Runs); err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.DelayProbability = 0.5
	prob, err := RunAll(ctx, cfg)
	if err != nil {
		return nil, err
	}
	e.ProbabilisticCorrect = UniqueCorrect(prob)
	return e, nil
}

// Evaluate runs the whole evaluation and writes every section to w.
func Evaluate(ctx context.Context, w io.Writer) error {
	e, err := Run(ctx)
	if err != nil {
		return err
	}
	e.Render(w)
	return nil
}
