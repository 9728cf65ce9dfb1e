package exper

import (
	"testing"

	"sherlock/internal/core"
	"sherlock/internal/prog"
	"sherlock/internal/race"
	"sherlock/internal/trace"
)

// The tests below check structural invariants of the shared evaluation
// that TestEvaluationGolden's -update would otherwise record unchecked.

func TestRunAllAndUniqueCounting(t *testing.T) {
	runs := sharedEvaluation(t).Runs
	if len(runs) != 8 {
		t.Fatalf("runs = %d, want 8", len(runs))
	}
	uc, ut := UniqueCorrect(runs), UniqueTotal(runs)
	if uc == 0 || ut < uc {
		t.Fatalf("unique correct %d / total %d implausible", uc, ut)
	}
	// Unique must not exceed the plain sums.
	var sumCorrect int
	for _, r := range runs {
		sumCorrect += len(r.Score.Correct)
	}
	if uc > sumCorrect {
		t.Errorf("unique correct %d exceeds sum %d", uc, sumCorrect)
	}
}

func TestTable2Shape(t *testing.T) {
	runs := sharedEvaluation(t).Runs
	rows := Table2(runs)
	if len(rows) != 8 || len(runs) != 8 {
		t.Fatalf("rows/runs = %d/%d", len(rows), len(runs))
	}
	for i, r := range rows {
		if r.App != runs[i].App.Name {
			t.Errorf("row %d app mismatch", i)
		}
		if r.Syncs == 0 {
			t.Errorf("%s inferred no syncs", r.App)
		}
	}
}

func TestTable4JoinsScoresAndRaceCauses(t *testing.T) {
	// Fabricated inputs: one run with categorized misclassifications, one
	// comparison with false-race causes.
	app := prog.New("x", "X")
	app.Truth.Category[prog.WK("C::f")] = prog.CatDispose
	score := &core.Score{
		FPByCategory:   map[prog.FPCategory]int{prog.CatInstrError: 2, prog.CatDataRacy: 9},
		MissByCategory: map[prog.FPCategory]int{prog.CatDoubleRole: 1},
	}
	runs := []AppRun{{App: app, Result: &core.Result{}, Score: score}}
	cmps := []*race.Comparison{{
		App:              "x",
		SherFalseByCause: map[prog.FPCategory]int{prog.CatDispose: 3, prog.CatOther: 4},
	}}
	rows := Table4(runs, cmps)
	byCat := map[prog.FPCategory]Table4Row{}
	for _, r := range rows {
		byCat[r.Category] = r
	}
	if byCat[prog.CatInstrError].FalseSyncs != 2 {
		t.Errorf("instr-errors FP = %d", byCat[prog.CatInstrError].FalseSyncs)
	}
	if byCat[prog.CatDoubleRole].Missed != 1 {
		t.Errorf("double-roles missed = %d", byCat[prog.CatDoubleRole].Missed)
	}
	if byCat[prog.CatDispose].FalseRaces != 3 || byCat[prog.CatOther].FalseRaces != 4 {
		t.Errorf("false races misjoined: %+v", rows)
	}
	// Data-racy ops are excluded from Table 4's FP column.
	for _, r := range rows {
		if r.Category == prog.CatDataRacy {
			t.Error("data-racy must not appear as a Table 4 row")
		}
	}
}

func TestFigure4SeriesShape(t *testing.T) {
	series := sharedEvaluation(t).Figure4
	if len(series) != len(FeedbackSettings) {
		t.Fatalf("series = %d, want %d", len(series), len(FeedbackSettings))
	}
	for _, s := range series {
		if len(s.Correct) != Figure4Rounds {
			t.Errorf("%s: rounds = %d, want %d", s.Name, len(s.Correct), Figure4Rounds)
		}
		for _, c := range s.Correct {
			if c <= 0 {
				t.Errorf("%s: zero correct syncs", s.Name)
			}
		}
	}
}

func TestListings(t *testing.T) {
	ls := Listings(sharedEvaluation(t).Runs)
	if len(ls) != 8 {
		t.Fatalf("listings = %d", len(ls))
	}
	for _, l := range ls {
		if len(l.Releases)+len(l.Acquires) == 0 {
			t.Errorf("%s: empty listing", l.App)
		}
	}
}

func TestTSVDEnhancementShape(t *testing.T) {
	rows := sharedEvaluation(t).TSVD
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	conflicting := 0
	for _, r := range rows {
		if r.TSVDSynced > r.Conflicting || r.SherSynced > r.Conflicting {
			t.Errorf("%s: synced exceeds conflicting: %+v", r.App, r)
		}
		conflicting += r.Conflicting
	}
	if conflicting == 0 {
		t.Error("no conflicting thread-unsafe pairs found across apps")
	}
}

func TestOverheadRows(t *testing.T) {
	rows := sharedEvaluation(t).Overhead
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Events == 0 || r.Windows == 0 {
			t.Errorf("%s: no events/windows recorded", r.App)
		}
		if r.Baseline <= 0 || r.Tracing <= 0 || r.Solving <= 0 {
			t.Errorf("%s: missing timings: %+v", r.App, r)
		}
	}
}

// keyRole helper sanity for unique counting.
func TestUniqueCorrectDedupes(t *testing.T) {
	app := prog.New("y", "Y")
	k := trace.KeyFor(trace.KindWrite, "C::f")
	mk := func() AppRun {
		return AppRun{
			App:    app,
			Result: &core.Result{},
			Score: &core.Score{Correct: []core.InferredSync{
				{Key: k, Role: trace.RoleRelease},
			}},
		}
	}
	if got := UniqueCorrect([]AppRun{mk(), mk(), mk()}); got != 1 {
		t.Errorf("UniqueCorrect = %d, want 1", got)
	}
}
