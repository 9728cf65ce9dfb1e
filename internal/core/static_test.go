package core

import (
	"context"
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

func sameSets(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestHybridMatchesDynamicAllApps is the seeded-campaign golden contract:
// on every benchmark app, a campaign seeded with the dynamic campaign's own
// posterior (the refine steady state) must land on the byte-identical
// final inferred operation set as the unseeded campaign, and must converge
// (first round whose sets equal the final sets) no later. The priors only
// tilt round 0's reported solve — the executions and every later round are
// evidence-only — so the fixpoint is the dynamic one; the seeding buys an
// earlier report, never a different answer.
func TestHybridMatchesDynamicAllApps(t *testing.T) {
	ctx := context.Background()
	fewer := 0
	for _, p := range apps.All() {
		cfg := DefaultConfig()
		cfg.Parallelism = 2

		dyn, err := Infer(ctx, p, cfg)
		if err != nil {
			t.Fatalf("%s: dynamic: %v", p.Name, err)
		}

		scfg := cfg
		scfg.StaticPriors, err = PosteriorFromResult(dyn, cfg).Priors(cfg)
		if err != nil {
			t.Fatalf("%s: posterior priors: %v", p.Name, err)
		}
		seeded, err := Infer(ctx, p, scfg)
		if err != nil {
			t.Fatalf("%s: seeded: %v", p.Name, err)
		}

		if ds, ss := finalSets(dyn), finalSets(seeded); !sameSets(ds, ss) {
			t.Errorf("%s: seeded final set diverges from dynamic:\n dynamic: %v\n seeded:  %v", p.Name, ds, ss)
		}
		dr, sr := dyn.RoundsToConverge(), seeded.RoundsToConverge()
		if sr > dr {
			t.Errorf("%s: seeded campaign converges in %d rounds, dynamic in %d", p.Name, sr, dr)
		}
		if sr < dr {
			fewer++
		}
		t.Logf("%s: rounds to converge: dynamic=%d seeded=%d", p.Name, dr, sr)
	}
	t.Logf("seeded strictly faster on %d/8 apps", fewer)
}

// TestPosteriorRoundTrip: posterior persistence is exact, the signature
// check rejects mismatched configs, and a refined campaign seeded from
// posteriors still lands on the dynamic fixpoint.
func TestPosteriorRoundTrip(t *testing.T) {
	ctx := context.Background()
	p, err := apps.ByName("App-1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Parallelism = 2
	res, err := Infer(ctx, p, cfg)
	if err != nil {
		t.Fatal(err)
	}

	post := PosteriorFromResult(res, cfg)
	data, err := EncodePosterior(post)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodePosterior(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.App != res.App || back.ConfigSig != ConfigSignature(cfg) || back.Rounds != len(res.Rounds) {
		t.Fatalf("posterior round-trip mangled header: %+v", back)
	}
	if len(back.Acquires) != len(res.Acquires) || len(back.Releases) != len(res.Releases) {
		t.Fatalf("posterior round-trip dropped probabilities")
	}

	other := cfg
	other.Solver.Threshold = cfg.Solver.Threshold / 2
	if _, err := back.Priors(other); err == nil {
		t.Fatal("posterior accepted a config with a different signature")
	}

	pri, err := back.Priors(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := cfg
	rcfg.StaticPriors = pri
	refined, err := Infer(ctx, p, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSets(finalSets(res), finalSets(refined)) {
		t.Fatalf("refined campaign diverges from its own posterior source:\n%v\nvs\n%v", finalSets(res), finalSets(refined))
	}
	if refined.RoundsToConverge() > res.RoundsToConverge() {
		t.Errorf("refine converges in %d rounds, original in %d", refined.RoundsToConverge(), res.RoundsToConverge())
	}

	if _, err := DecodePosterior([]byte(`{"version":"bogus"}`)); err == nil {
		t.Fatal("DecodePosterior accepted an unknown version")
	}
}

// TestRefineConvergesFaster pins the refine-mode payoff: on App-6 the
// dynamic campaign needs two rounds to reach its final sets, but a second
// campaign seeded with the first's posteriors reports the final set one
// round earlier, in its first round. Every round still executes; only the report
// converges sooner. (Everything is seeded, so the speedup is a stable
// property, not a lucky schedule.)
func TestRefineConvergesFaster(t *testing.T) {
	ctx := context.Background()
	p, err := apps.ByName("App-6")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Parallelism = 2
	first, err := Infer(ctx, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.RoundsToConverge() < 2 {
		t.Fatalf("App-6 dynamic campaign converges in %d rounds; expected ≥2 for this test to be meaningful", first.RoundsToConverge())
	}

	pri, err := PosteriorFromResult(first, cfg).Priors(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := cfg
	rcfg.StaticPriors = pri
	refined, err := Infer(ctx, p, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSets(finalSets(first), finalSets(refined)) {
		t.Fatalf("refined campaign final set diverges:\n%v\nvs\n%v", finalSets(first), finalSets(refined))
	}
	if rr := refined.RoundsToConverge(); rr >= first.RoundsToConverge() {
		t.Errorf("refine converges in %d rounds, original in %d — posterior seeding saved nothing", rr, first.RoundsToConverge())
	}
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
		if !sameSets(finalSets(r1), finalSets(r2)) {
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
