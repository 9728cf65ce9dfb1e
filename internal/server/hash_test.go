package server

import (
	"strings"
	"testing"

	"sherlock/internal/core"
)

func TestJobKeyDeterministic(t *testing.T) {
	spec := JobSpec{App: "App-1"}
	cfg := spec.effectiveConfig(core.DefaultConfig())
	k1 := JobKey(spec, cfg)
	k2 := JobKey(spec, cfg)
	if k1 != k2 {
		t.Fatalf("same input hashed differently: %s vs %s", k1, k2)
	}
	if len(k1) != 64 || strings.ToLower(k1) != k1 {
		t.Fatalf("key %q is not lowercase sha256 hex", k1)
	}
}

// TestJobKeyGolden pins the v1 encoding across processes and builds: the
// same spec+config must hash to this exact address forever (or the
// encoding version must be bumped).
func TestJobKeyGolden(t *testing.T) {
	spec := JobSpec{App: "App-1"}
	cfg := spec.effectiveConfig(core.DefaultConfig())
	const golden = "ece0fe0ce6d158f227430fe1fd451851cd64c22de2837e7c5d0d0b7d9adce0c9"
	if got := JobKey(spec, cfg); got != golden {
		t.Fatalf("JobKey(App-1, defaults) = %s, want %s\n"+
			"(an intentional encoding change must bump keyEncodingV1 and this golden)", got, golden)
	}
}

func TestJobKeySensitivity(t *testing.T) {
	base := core.DefaultConfig()
	ref := JobKey(JobSpec{App: "App-1"}, JobSpec{App: "App-1"}.effectiveConfig(base))

	// Result-relevant changes move the key.
	for name, spec := range map[string]JobSpec{
		"app":    {App: "App-2"},
		"seed":   {App: "App-1", Seed: 7},
		"rounds": {App: "App-1", Rounds: 5},
		"lambda": {App: "App-1", Lambda: 0.5},
		"near":   {App: "App-1", Near: 500},
	} {
		if got := JobKey(spec, spec.effectiveConfig(base)); got == ref {
			t.Errorf("%s override should change the key", name)
		}
	}

	// Execution-irrelevant knobs must NOT move the key: parallelism and
	// cold-start change cost, not results.
	para := base
	para.Parallelism = 16
	if got := JobKey(JobSpec{App: "App-1"}, JobSpec{App: "App-1"}.effectiveConfig(para)); got != ref {
		t.Error("Parallelism should not change the key")
	}
	cold := base
	cold.ColdStart = true
	if got := JobKey(JobSpec{App: "App-1"}, JobSpec{App: "App-1"}.effectiveConfig(cold)); got != ref {
		t.Error("ColdStart should not change the key")
	}

	// Overrides that equal the server defaults address the same entry as
	// omitted fields (the hash covers the effective config).
	same := JobSpec{App: "App-1", Rounds: base.Rounds, Seed: base.Seed}
	if got := JobKey(same, same.effectiveConfig(base)); got != ref {
		t.Error("explicit defaults should hash like omitted fields")
	}
}
