package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"sherlock/internal/apps"
	"sherlock/internal/core"
)

// declared is the part of BENCHMARK.json the self-test checks against.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestEveryWorkloadEmitsDeclaredMetrics runs each workload briefly,
// untraced and traced, and checks that it passes its correctness checks
// and emits exactly the metrics BENCHMARK.json names, with their units.
// corpus is not declared (README.md says why) but emits the same set.
func TestEveryWorkloadEmitsDeclaredMetrics(t *testing.T) {
	d := readDeclared(t)
	for _, w := range d.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json names workload %q, the command has no such workload", w.Name)
		}
	}
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			want := map[string]string{}
			if traced {
				for _, m := range d.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range d.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			rep, err := wl.run(context.Background(), options{seed: 7, length: time.Second, traced: traced, workDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			if len(rep.problems) > 0 || rep.failed > 0 || rep.attempted == 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d: %v", wl.name, traced, rep.attempted, rep.failed, rep.problems)
			}
			got := map[string]string{}
			for name, m := range rep.metrics {
				got[name] = m.Unit
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v: emitted metrics %v, BENCHMARK.json declares %v", wl.name, traced, got, want)
			}
		}
	}
}

// TestCampaignReplayMatchesEngine checks the replay behind the traced
// campaign pass against core.Infer on every built-in app.
func TestCampaignReplayMatchesEngine(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Parallelism = 1
	var l campaignLayers
	for _, p := range apps.All() {
		if _, err := l.op(context.Background(), p, cfg); err != nil {
			t.Error(err)
		}
	}
	if l.ops != len(apps.All()) || l.runs == 0 || l.solves == 0 {
		t.Errorf("replayed %d campaigns with %d runs and %d solves", l.ops, l.runs, l.solves)
	}
}

// TestInputsDependOnlyOnSeed checks that the generated inputs repeat for a
// seed and change with it.
func TestInputsDependOnlyOnSeed(t *testing.T) {
	ctx := context.Background()
	draw := func(seed int64) *serveInputs {
		in, err := captureServe(ctx, seed)
		if err != nil {
			t.Fatal(err)
		}
		in.schedule(seed, time.Second)
		return in
	}
	a, b, c := draw(1), draw(1), draw(2)
	if !reflect.DeepEqual(a.reqs, b.reqs) || !reflect.DeepEqual(a.uploads, b.uploads) {
		t.Error("serve inputs differ between two draws of seed 1")
	}
	if reflect.DeepEqual(a.reqs, c.reqs) {
		t.Error("serve requests are the same for seeds 1 and 2")
	}
	x, err := setupCorpus(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	y, err := setupCorpus(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(x.order) != len(y.order) || x.order[0].key == y.order[0].key {
		t.Errorf("corpus seeds 1 and 2: %d and %d traces, first key equal: %v", len(x.order), len(y.order), x.order[0].key == y.order[0].key)
	}
}
