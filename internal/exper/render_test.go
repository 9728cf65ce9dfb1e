package exper

import (
	"strings"
	"testing"

	"sherlock/internal/apps"
	"sherlock/internal/prog"
	"sherlock/internal/race"
)

func TestTable1Renders(t *testing.T) {
	var runs []AppRun
	for _, app := range apps.All() {
		runs = append(runs, AppRun{App: app})
	}
	var b strings.Builder
	renderTable1(&b, runs)
	out := b.String()
	for _, want := range []string{"Table 1", "App-1", "ApplicationInsights", "App-8", "System.Linq.Dynamic"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q", want)
		}
	}
}

func TestTable2Renders(t *testing.T) {
	rows := []Table2Row{
		{App: "App-1", Syncs: 10, DataRacy: 2, InstrErrors: 1, NotSync: 3, Missed: 4},
		{App: "App-2", Syncs: 6},
	}
	var b strings.Builder
	renderTable2(&b, rows, 14)
	out := b.String()
	if !strings.Contains(out, "16(14)") {
		t.Errorf("sum row with unique count missing:\n%s", out)
	}
	if !strings.Contains(out, "Data Racy") {
		t.Error("header missing")
	}
}

func TestTable3Renders(t *testing.T) {
	var b strings.Builder
	renderTable3(&b, []*race.Comparison{
		{App: "App-1", ManualTrue: 1, SherTrue: 5, ManualFalse: 40, SherFalse: 3},
		{App: "App-2", ManualFalse: 2},
	})
	out := b.String()
	for _, want := range []string{"Manual true", "SherLock false", "Sum"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 3 missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "42") { // summed manual false
		t.Error("sums not computed")
	}
}

func TestTable4And5Render(t *testing.T) {
	var b strings.Builder
	renderTable4(&b, []Table4Row{
		{Category: prog.CatInstrError, FalseSyncs: 5, Missed: 3, FalseRaces: 17},
	})
	if !strings.Contains(b.String(), "instr-errors") {
		t.Error("Table 4 category missing")
	}

	b.Reset()
	renderTable5(&b, []Table5Row{
		{Name: "SherLock", Correct: 10, Total: 12, Precision: 0.8333},
		{Name: "w/o Mostly are Protected", Correct: 0, Total: 0},
	})
	out := b.String()
	if !strings.Contains(out, "83%") || !strings.Contains(out, "n/a") {
		t.Errorf("Table 5 precision formatting wrong:\n%s", out)
	}
}

func TestFigure4AndSweepRender(t *testing.T) {
	var b strings.Builder
	renderFigure4(&b, []Figure4Series{
		{Name: "SherLock", Correct: []int{10, 12, 12}},
		{Name: "no delay injection", Correct: []int{10, 10, 10}},
	})
	out := b.String()
	if !strings.Contains(out, "round3") || !strings.Contains(out, "no delay injection") {
		t.Errorf("Figure 4 rendering wrong:\n%s", out)
	}

	b.Reset()
	renderSweep(&b, "Table 6: sensitivity of lambda", "lambda", []SweepRow{
		{Param: 0.2, Correct: 63, Total: 91},
		{Param: 100, Correct: 0, Total: 0},
	})
	if !strings.Contains(b.String(), "0.2") {
		t.Error("sweep param missing")
	}
}

func TestListingsAndTSVDRender(t *testing.T) {
	var b strings.Builder
	renderListings(&b, []Listing{{
		App:      "App-7 (Stastd)",
		Releases: []string{"DataflowBlock::Post-End"},
		Acquires: []string{"MessageHandler-Begin"},
	}})
	out := b.String()
	if !strings.Contains(out, "Post-End") || !strings.Contains(out, "Acquires:") {
		t.Errorf("listing rendering wrong:\n%s", out)
	}

	b.Reset()
	renderTSVD(&b, []TSVDRow{{App: "App-1", Conflicting: 3, TSVDSynced: 2, SherSynced: 3}})
	if !strings.Contains(b.String(), "TSVD-synced") {
		t.Error("TSVD header missing")
	}
}

func TestOverheadRenders(t *testing.T) {
	var b strings.Builder
	renderOverhead(&b, []OverheadRow{
		{App: "App-1", Baseline: 1000, Tracing: 3000, Solving: 2000, Events: 10, Windows: 4, OverheadPct: 400},
	})
	out := b.String()
	if !strings.Contains(out, "400%") {
		t.Errorf("overhead percent missing:\n%s", out)
	}
}
