// Rendering: ASCII tables shaped like the paper's Tables 1–9 and Figure 4.

package exper

import (
	"fmt"
	"io"
	"strings"

	"sherlock/internal/race"
)

// Render writes every section of the evaluation to w, each under a
// "=== name" marker line. The names are the sections of
// testdata/evaluation.golden and the "golden:name" blocks of EXPERIMENTS.md.
func (e *Evaluation) Render(w io.Writer) {
	sections := []struct {
		name   string
		render func()
	}{
		{"table1", func() { renderTable1(w, e.Runs) }},
		{"table2", func() { renderTable2(w, Table2(e.Runs), UniqueCorrect(e.Runs)) }},
		{"table3", func() { renderTable3(w, e.Table3) }},
		{"table4", func() { renderTable4(w, Table4(e.Runs, e.Table3)) }},
		{"table5", func() { renderTable5(w, e.Table5) }},
		{"figure4", func() { renderFigure4(w, e.Figure4) }},
		{"table6", func() { renderSweep(w, "Table 6: sensitivity of lambda", "lambda", e.Table6) }},
		{"table7", func() { renderSweep(w, "Table 7: sensitivity of Near (x default)", "near", e.Table7) }},
		{"listings", func() { renderListings(w, Listings(e.Runs)) }},
		{"tsvd", func() { renderTSVD(w, e.TSVD) }},
		{"overhead", func() { renderOverhead(w, e.Overhead) }},
		{"extensions", func() { e.renderExtensions(w) }},
	}
	for i, s := range sections {
		if i > 0 {
			fmt.Fprintln(w)
		}
		line(w, "=== %s", s.name)
		s.render()
	}
}

// line writes a formatted row.
func line(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format+"\n", args...)
}

func rule(w io.Writer, n int) {
	fmt.Fprintln(w, strings.Repeat("-", n))
}

// renderTable1 prints the benchmark inventory (paper Table 1 metadata plus
// our scaled concurrency-scenario counts).
func renderTable1(w io.Writer, runs []AppRun) {
	line(w, "Table 1: Applications in benchmarks")
	line(w, "%-6s %-20s %9s %7s %11s %10s", "ID", "Name", "LoC", "#Stars", "#PaperTests", "#Scenarios")
	rule(w, 70)
	for _, r := range runs {
		p := r.App
		line(w, "%-6s %-20s %8.1fK %7d %11d %10d",
			p.Name, p.Title, float64(p.LoC)/1000, p.Stars, p.PaperTests, len(p.Tests))
	}
}

// renderTable2 prints inference results after 3 rounds.
func renderTable2(w io.Writer, rows []Table2Row, unique int) {
	line(w, "Table 2: SherLock inferred results after 3 rounds")
	line(w, "%-6s %6s %10s %14s %9s %7s", "ID", "Syncs", "Data Racy", "Instr. Errors", "Not Sync", "Missed")
	rule(w, 60)
	var s, dr, ie, ns, ms int
	for _, r := range rows {
		line(w, "%-6s %6d %10d %14d %9d %7d", r.App, r.Syncs, r.DataRacy, r.InstrErrors, r.NotSync, r.Missed)
		s += r.Syncs
		dr += r.DataRacy
		ie += r.InstrErrors
		ns += r.NotSync
		ms += r.Missed
	}
	rule(w, 60)
	line(w, "%-6s %3d(%d) %10d %14d %9d %7d", "Sum", s, unique, dr, ie, ns, ms)
}

// renderTable3 prints the detector comparison.
func renderTable3(w io.Writer, cmps []*race.Comparison) {
	line(w, "Table 3: SherLock vs manual annotation in race detection")
	line(w, "(only the first data race reported in each run is counted)")
	line(w, "%-6s | %12s %14s | %13s %15s", "ID", "Manual true", "SherLock true", "Manual false", "SherLock false")
	rule(w, 72)
	var mt, st, mf, sf int
	for _, c := range cmps {
		line(w, "%-6s | %12d %14d | %13d %15d", c.App, c.ManualTrue, c.SherTrue, c.ManualFalse, c.SherFalse)
		mt += c.ManualTrue
		st += c.SherTrue
		mf += c.ManualFalse
		sf += c.SherFalse
	}
	rule(w, 72)
	line(w, "%-6s | %12d %14d | %13d %15d", "Sum", mt, st, mf, sf)
}

// renderTable4 prints the misclassification breakdown.
func renderTable4(w io.Writer, rows []Table4Row) {
	line(w, "Table 4: Breakdown of false positives/negatives")
	line(w, "%-14s %12s %13s %12s", "Category", "#False Sync", "#Missed Sync", "#False Races")
	rule(w, 56)
	var fs, ms, fr int
	for _, r := range rows {
		line(w, "%-14s %12d %13d %12d", r.Category, r.FalseSyncs, r.Missed, r.FalseRaces)
		fs += r.FalseSyncs
		ms += r.Missed
		fr += r.FalseRaces
	}
	rule(w, 56)
	line(w, "%-14s %12d %13d %12d", "Total", fs, ms, fr)
}

// renderTable5 prints the hypothesis ablation.
func renderTable5(w io.Writer, rows []Table5Row) {
	line(w, "Table 5: Inference with or without certain hypothesis")
	line(w, "%-32s %8s %7s %10s", "", "#Correct", "#Total", "Precision")
	rule(w, 60)
	for _, r := range rows {
		prec := "n/a"
		if r.Total > 0 {
			prec = fmt.Sprintf("%.0f%%", 100*r.Precision)
		}
		line(w, "%-32s %8d %7d %10s", r.Name, r.Correct, r.Total, prec)
	}
}

// renderFigure4 prints the per-round series as an ASCII chart.
func renderFigure4(w io.Writer, series []Figure4Series) {
	line(w, "Figure 4: correctly inferred unique synchronizations per round")
	header := fmt.Sprintf("%-22s", "setting")
	if len(series) > 0 {
		for i := range series[0].Correct {
			header += fmt.Sprintf(" round%-2d", i+1)
		}
	}
	// The last " round%-2d" pads with a space; the rule keeps the
	// padded width, which is the rows' width.
	line(w, "%s", strings.TrimRight(header, " "))
	rule(w, len(header))
	for _, s := range series {
		row := fmt.Sprintf("%-22s", s.Name)
		for _, c := range s.Correct {
			row += fmt.Sprintf(" %7d", c)
		}
		line(w, "%s", row)
	}
}

// renderSweep prints a λ or Near sensitivity table.
func renderSweep(w io.Writer, title, param string, rows []SweepRow) {
	line(w, "%s", title)
	line(w, "%-10s %8s %7s", param, "#correct", "#total")
	rule(w, 30)
	for _, r := range rows {
		line(w, "%-10.4g %8d %7d", r.Param, r.Correct, r.Total)
	}
}

// renderListings prints Tables 8/9-style inferred operation lists.
func renderListings(w io.Writer, ls []Listing) {
	line(w, "Tables 8/9: inferred synchronizations per application")
	for _, l := range ls {
		rule(w, 76)
		line(w, "App: %s", l.App)
		line(w, "  Releases:")
		for _, r := range l.Releases {
			line(w, "    %s", r)
		}
		line(w, "  Acquires:")
		for _, a := range l.Acquires {
			line(w, "    %s", a)
		}
	}
}

// renderTSVD prints the Section 5.6 enhancement comparison.
func renderTSVD(w io.Writer, rows []TSVDRow) {
	line(w, "TSVD enhancement (Section 5.6): synchronized conflicting API-call pairs")
	line(w, "%-6s %12s %12s %16s", "ID", "#Conflicting", "TSVD-synced", "SherLock-synced")
	rule(w, 50)
	var c, t, s int
	for _, r := range rows {
		line(w, "%-6s %12d %12d %16d", r.App, r.Conflicting, r.TSVDSynced, r.SherSynced)
		c += r.Conflicting
		t += r.TSVDSynced
		s += r.SherSynced
	}
	rule(w, 50)
	line(w, "%-6s %12d %12d %16d", "Sum", c, t, s)
}

// renderOverhead prints the Section 5.6 cost accounting.
func renderOverhead(w io.Writer, rows []OverheadRow) {
	line(w, "Overhead (Section 5.6): instrumented+solve vs uninstrumented baseline")
	line(w, "%-6s %10s %10s %10s %8s %8s %10s", "ID", "baseline", "tracing", "solving", "events", "windows", "overhead")
	rule(w, 70)
	for _, r := range rows {
		line(w, "%-6s %10s %10s %10s %8d %8d %9.0f%%",
			r.App, r.Baseline.Round(10e3), r.Tracing.Round(10e3), r.Solving.Round(10e3),
			r.Events, r.Windows, r.OverheadPct)
	}
}

// renderExtensions prints the two extensions beyond the paper.
func (e *Evaluation) renderExtensions(w io.Writer) {
	b := e.Barrier
	line(w, "Extension (soft Single-Role) on App-5 Barrier: hard=(acq %v, rel %v) soft=(acq %v, rel %v)",
		b.HardAcquire, b.HardRelease, b.SoftAcquire, b.SoftRelease)
	line(w, "Extension (probabilistic delays, p=0.5): %d unique correct vs %d deterministic",
		e.ProbabilisticCorrect, UniqueCorrect(e.Runs))
}
