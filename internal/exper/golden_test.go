package exper

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"sherlock/internal/core"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/evaluation.golden from the current code")

var goldenPath = filepath.Join("testdata", "evaluation.golden")

// evaluation runs the whole evaluation once per test binary; every test
// that needs campaign results reads this one Run.
var evaluation = sync.OnceValues(func() (*Evaluation, error) {
	return Run(context.Background())
})

// sharedEvaluation returns the shared Run, failing t if it failed.
func sharedEvaluation(t *testing.T) *Evaluation {
	t.Helper()
	e, err := evaluation()
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// maskWallClock replaces the overhead section's host-dependent columns —
// baseline, tracing, solving and overhead % — with "*". Every other byte
// of the text passes through.
func maskWallClock(text string) string {
	lines := strings.Split(text, "\n")
	in, body := false, false
	for i, line := range lines {
		switch {
		case strings.HasPrefix(line, "=== "):
			in, body = line == "=== overhead", false
		case in && strings.HasPrefix(line, "---"):
			body = true
		case in && body:
			f := strings.Fields(line)
			if len(f) == 7 {
				lines[i] = fmt.Sprintf("%-6s %10s %10s %10s %8s %8s %10s", f[0], "*", "*", "*", f[4], f[5], "*")
			}
		}
	}
	return strings.Join(lines, "\n")
}

// assertShapes checks the paper's qualitative claims on the structured
// results, so that -update cannot record an evaluation that breaks them.
func assertShapes(t *testing.T, e *Evaluation) {
	t.Helper()

	// Table 3: SherLock_dr finds at least as many true races and strictly
	// fewer false races than Manual_dr.
	var mt, st, mf, sf int
	for _, c := range e.Table3 {
		mt += c.ManualTrue
		st += c.SherTrue
		mf += c.ManualFalse
		sf += c.SherFalse
	}
	if st < mt || sf >= mf {
		t.Errorf("Table 3: manual %d/%d vs SherLock %d/%d (true/false races)", mt, mf, st, sf)
	}

	// Table 5: without Mostly-Protected nothing is inferred; without
	// Synchronizations-are-Rare precision falls.
	if e.Table5[1].Total != 0 {
		t.Errorf("Table 5: w/o Mostly-Protected inferred %d, want 0", e.Table5[1].Total)
	}
	if e.Table5[2].Precision >= e.Table5[0].Precision {
		t.Errorf("Table 5: w/o Syncs-are-Rare precision %.2f, want below %.2f", e.Table5[2].Precision, e.Table5[0].Precision)
	}

	// Table 6: an extreme λ suppresses inference.
	lam := map[float64]SweepRow{}
	for _, r := range e.Table6 {
		lam[r.Param] = r
	}
	if lam[100].Total >= lam[0.2].Total {
		t.Errorf("Table 6: λ=100 infers %d, want fewer than λ=0.2's %d", lam[100].Total, lam[0.2].Total)
	}

	// Table 7: a window smaller than the sync distances finds fewer syncs.
	near := map[float64]SweepRow{}
	for _, r := range e.Table7 {
		near[r.Param] = r
	}
	if near[0.002].Correct >= near[1].Correct {
		t.Errorf("Table 7: Near 0.002x finds %d, want fewer than 1x's %d", near[0.002].Correct, near[1].Correct)
	}

	// Figure 4: by the last round the full system is at least every
	// ablated setting.
	full := e.Figure4[0].Correct
	last := len(full) - 1
	for _, s := range e.Figure4[1:] {
		if full[last] < s.Correct[last] {
			t.Errorf("Figure 4: full SherLock (%d) beaten by %q (%d) at round %d", full[last], s.Name, s.Correct[last], last+1)
		}
	}

	// TSVD: SherLock certifies at least as many pairs as TSVD.
	var tsvdSynced, sherSynced int
	for _, r := range e.TSVD {
		tsvdSynced += r.TSVDSynced
		sherSynced += r.SherSynced
	}
	if sherSynced < tsvdSynced {
		t.Errorf("TSVD: SherLock certifies %d pairs, TSVD %d", sherSynced, tsvdSynced)
	}

	// Soft Single-Role recovers both roles of the barrier that the hard
	// constraint forfeits one of.
	b := e.Barrier
	if b.HardAcquire && b.HardRelease {
		t.Error("extensions: hard Single-Role kept both barrier roles, want one forfeited")
	}
	if !b.SoftAcquire || !b.SoftRelease {
		t.Errorf("extensions: soft Single-Role barrier roles acquire=%v release=%v, want both", b.SoftAcquire, b.SoftRelease)
	}

	// Probabilistic delays stay close to deterministic injection.
	uc, ut := UniqueCorrect(e.Runs), UniqueTotal(e.Runs)
	if d := e.ProbabilisticCorrect - uc; d < -4 || d > 4 {
		t.Errorf("extensions: p=0.5 delays give %d unique correct, deterministic %d", e.ProbabilisticCorrect, uc)
	}

	// Every table's default-configuration point runs the same campaign as
	// Table 2, so all of them report its unique counts.
	def := core.DefaultConfig()
	for name, r := range map[string]SweepRow{
		"Table 5 SherLock":       {Correct: e.Table5[0].Correct, Total: e.Table5[0].Total},
		"Table 6 default lambda": lam[def.Solver.Lambda],
		"Table 7 Near 1x":        near[1],
	} {
		if r.Correct != uc || r.Total != ut {
			t.Errorf("%s: %d/%d, want Table 2's unique %d/%d", name, r.Correct, r.Total, uc, ut)
		}
	}
}

// TestEvaluationGolden pins the whole evaluation: the paper's shapes on
// the structured results, then the rendered text, with only the
// wall-clock columns masked. Run with -update to rewrite the file after a
// deliberate change of results.
func TestEvaluationGolden(t *testing.T) {
	e := sharedEvaluation(t)
	assertShapes(t, e)
	if t.Failed() {
		t.FailNow()
	}
	var out strings.Builder
	e.Render(&out)
	got := []byte(maskWallClock(out.String()))
	if *updateGolden {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i, line := range gotLines {
		if i >= len(wantLines) || line != wantLines[i] {
			t.Errorf("golden mismatch at line %d:\n got: %s\nwant: %s", i+1, line, wantLines[min(i, len(wantLines)-1)])
		}
	}
	if len(wantLines) > len(gotLines) {
		t.Errorf("output has %d lines, the golden %d", len(gotLines), len(wantLines))
	}
}
