package core

import (
	"context"
	"slices"
	"testing"

	"sherlock/internal/apps"
	"sherlock/internal/trace"
)

// finalSets returns the final inferred operation set as a comparable
// fingerprint (keys with roles, in Inferred's sorted order).
func finalSets(r *Result) []string {
	out := make([]string, 0, len(r.Inferred))
	for _, s := range r.Inferred {
		role := "acq"
		if s.Role == trace.RoleRelease {
			role = "rel"
		}
		out = append(out, string(s.Key)+"="+role)
	}
	return out
}

// TestInferStaticDeterministicAllApps: static-only inference must succeed
// on every app, report no execution cost, and be bit-identical across
// runs — the property the server's content-addressed cache assumes.
func TestInferStaticDeterministicAllApps(t *testing.T) {
	ctx := context.Background()
	for _, p := range apps.All() {
		cfg := DefaultConfig()
		r1, an1, err := InferStatic(ctx, p, cfg)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		r2, an2, err := InferStatic(ctx, p, cfg)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if !slices.Equal(finalSets(r1), finalSets(r2)) {
			t.Errorf("%s: static inference not deterministic", p.Name)
		}
		if an1.ProgramHash != an2.ProgramHash || an1.ProgramHash == "" {
			t.Errorf("%s: program hash unstable or empty", p.Name)
		}
		if r1.Overhead.Events != 0 || r1.Overhead.RunWall != 0 {
			t.Errorf("%s: static inference reports execution cost: %+v", p.Name, r1.Overhead)
		}
		if len(r1.Inferred) == 0 {
			t.Errorf("%s: static inference found nothing", p.Name)
		}
	}
}
