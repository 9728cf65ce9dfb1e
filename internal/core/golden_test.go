package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sherlock/internal/apps"
	"sherlock/internal/gen"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/campaign_golden.txt from the current code")

// goldenMix is the campaign mix of the end-to-end benchmark: the eight
// built-ins, then gen:1..4 for every profile at sizes 4 and 16.
func goldenMix() []string {
	names := apps.Names()
	for _, profile := range gen.Profiles {
		for _, size := range []int{4, 16} {
			for k := 1; k <= 4; k++ {
				names = append(names, gen.Spec{Seed: int64(k), Profile: profile, Size: size}.Name())
			}
		}
	}
	return names
}

// renderCampaign writes every result field the LP decides, with floats as
// their exact bits: the inferred syncs, the per-round window counts,
// pivots and warm flags, and the final problem size and objective.
func renderCampaign(r *Result) string {
	var b strings.Builder
	for _, s := range r.Inferred {
		fmt.Fprintf(&b, "sync %s %s %016x\n", s.Key, s.Role, math.Float64bits(s.Prob))
	}
	for _, rs := range r.Rounds {
		fmt.Fprintf(&b, "round %d windows=%d iters=%d warm=%t\n", rs.Round, rs.Windows, rs.LPIters, rs.Warm)
	}
	fmt.Fprintf(&b, "lp vars=%d constraints=%d objective=%016x\n",
		r.Overhead.Vars, r.Overhead.Constraints, math.Float64bits(r.Overhead.Objective))
	return b.String()
}

// TestCampaignGolden pins campaign output across versions: for the
// benchmark mix at seeds 1-3 under the default config, one line per
// campaign holds the inferred count and a SHA-256 of renderCampaign. Run
// with -update to rewrite the file after a deliberate change of results.
func TestCampaignGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("120 campaigns")
	}
	ctx := context.Background()
	var got bytes.Buffer
	renders := map[string]string{}
	for _, name := range goldenMix() {
		app, err := apps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			cfg := DefaultConfig()
			cfg.Seed = seed
			res, err := Infer(ctx, app, cfg)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			id := fmt.Sprintf("%s seed=%d", name, seed)
			renders[id] = renderCampaign(res)
			fmt.Fprintf(&got, "%s inferred=%d sha256=%x\n", id, len(res.Inferred), sha256.Sum256([]byte(renders[id])))
		}
	}

	path := filepath.Join("testdata", "campaign_golden.txt")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	for i, line := range strings.Split(got.String(), "\n") {
		if i < len(wantLines) && line == wantLines[i] {
			continue
		}
		t.Errorf("golden mismatch:\n got: %s\nwant: %s", line, wantLines[min(i, len(wantLines)-1)])
		id, _, _ := strings.Cut(line, " inferred=")
		if r, ok := renders[id]; ok {
			t.Logf("%s rendering:\n%s", id, r)
		}
	}
}
