package core

import (
	"context"
	"strings"
	"testing"

	"sherlock/internal/apps"
	"sherlock/internal/obs"
	"sherlock/internal/sched"
	"sherlock/internal/trace"
	"sherlock/internal/window"
)

// traceCampaign runs one campaign with a MemorySink observer and returns
// the deterministic rendering of its span forest.
func traceCampaign(t *testing.T, name string, parallelism int) string {
	t.Helper()
	app, err := apps.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	mem := obs.NewMemorySink()
	cfg := DefaultConfig()
	cfg.Parallelism = parallelism
	cfg.Observer = SinkObserver(mem)
	if _, err := Infer(context.Background(), app, cfg); err != nil {
		t.Fatal(err)
	}
	return mem.Render()
}

// TestSpanTreeGoldenAcrossParallelism is the observability layer's core
// guarantee: the deterministic rendering — span IDs, tree shape, every
// non-duration attribute, counter totals — is byte-identical between a
// sequential and a heavily parallel campaign. Wall-clock durations are the
// only thing allowed to differ, and Render excludes them.
func TestSpanTreeGoldenAcrossParallelism(t *testing.T) {
	for _, name := range []string{"App-1", "App-2", "App-3"} {
		t.Run(name, func(t *testing.T) {
			seq := traceCampaign(t, name, 1)
			par := traceCampaign(t, name, 8)
			if seq != par {
				t.Fatalf("span trees diverge across parallelism:\n--- p=1 ---\n%s--- p=8 ---\n%s", seq, par)
			}
			// Sanity: the tree actually has the campaign shape.
			for _, want := range []string{
				"campaign:" + name + "{",
				"  round:01{",
				"    execute{",
				"      run:00{",
				"        sched{",
				"        extract{",
				"    encode{",
				"    solve{",
				"counters:",
				"  runs=",
				"  windows=",
			} {
				if !strings.Contains(seq, want) {
					t.Errorf("render missing %q:\n%s", want, seq)
				}
			}
		})
	}
}

// TestExtractSpanCountsCapped: every conflict a run finds is either built
// into a window or dropped because its pair was at the per-pair cap when
// the round began, so each extract span's windows and capped sum to its
// conflicts. App-1's default campaign fills pairs, so some are capped.
func TestExtractSpanCountsCapped(t *testing.T) {
	app, err := apps.ByName("App-1")
	if err != nil {
		t.Fatal(err)
	}
	mem := obs.NewMemorySink()
	cfg := DefaultConfig()
	cfg.Observer = SinkObserver(mem)
	if _, err := Infer(context.Background(), app, cfg); err != nil {
		t.Fatal(err)
	}
	spans := map[string]map[string]int64{}
	for _, e := range mem.Events() {
		if e.Name != "extract" {
			continue
		}
		if spans[e.ID] == nil {
			spans[e.ID] = map[string]int64{}
		}
		for _, a := range e.Attrs {
			spans[e.ID][a.Key] = a.Int
		}
	}
	var windows, capped int64
	for id, at := range spans {
		if at["windows"]+at["capped"] != at["conflicts"] {
			t.Fatalf("%s: %d windows + %d capped != %d conflicts", id, at["windows"], at["capped"], at["conflicts"])
		}
		windows += at["windows"]
		capped += at["capped"]
	}
	if windows == 0 || capped == 0 {
		t.Fatalf("%d extract spans built %d windows and capped %d: the check proves little", len(spans), windows, capped)
	}
}

// TestDisableTracingStillInfers: the benchmark-baseline escape hatch must
// not change inference results, only suppress span construction.
func TestDisableTracingStillInfers(t *testing.T) {
	app, err := apps.ByName("App-2")
	if err != nil {
		t.Fatal(err)
	}
	mem := obs.NewMemorySink()
	cfg := DefaultConfig()
	cfg.DisableTracing = true
	cfg.Observer = SinkObserver(mem)
	res, err := Infer(context.Background(), app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Inferred) == 0 {
		t.Fatal("no inferences with tracing disabled")
	}
	if n := len(mem.Events()); n != 0 {
		t.Fatalf("DisableTracing leaked %d span events", n)
	}
}

// TestOfflineSolveEmitsSpansAndRound: the offline path produces its own
// deterministic span tree ("offline" root, one trace:NNN child per input,
// an encode/solve subtree) and fires the round hooks exactly once.
func TestOfflineSolveEmitsSpansAndRound(t *testing.T) {
	app, err := apps.ByName("App-1")
	if err != nil {
		t.Fatal(err)
	}
	var traces []*trace.Trace
	for i, tc := range app.Tests {
		res, err := sched.Run(app, tc, sched.Options{Seed: int64(100 + i)})
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, res.Trace)
	}

	mem := obs.NewMemorySink()
	rounds := 0
	cfg := DefaultConfig()
	cfg.Observer = ObserverFuncs{
		OnEvent: mem.Emit,
		OnRound: func(snap RoundSnapshot, acc *window.Observations) { rounds++ },
	}
	if _, err := InferFromTraces(context.Background(), traces, cfg); err != nil {
		t.Fatal(err)
	}
	if rounds != 1 {
		t.Fatalf("offline solve fired Round %d times, want 1", rounds)
	}
	render := mem.Render()
	for _, want := range []string{"offline{", "  trace:000{", "  encode{", "  solve{"} {
		if !strings.Contains(render, want) {
			t.Errorf("offline render missing %q:\n%s", want, render)
		}
	}
	// Offline rendering is deterministic too: a second identical solve
	// renders byte-identically.
	mem2 := obs.NewMemorySink()
	cfg2 := DefaultConfig()
	cfg2.Observer = SinkObserver(mem2)
	if _, err := InferFromTraces(context.Background(), traces, cfg2); err != nil {
		t.Fatal(err)
	}
	if render != mem2.Render() {
		t.Fatalf("offline renders diverge:\n%s---\n%s", render, mem2.Render())
	}
}
