package server

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"sherlock/internal/apps"
	"sherlock/internal/core"
	"sherlock/internal/obs"
)

// spansBody is the GET /v1/jobs/{id}/spans schema that renderSpans
// writes, for decoding served bodies.
type spansBody struct {
	Job      string        `json:"job"`
	Spans    []*obs.Node   `json:"spans"`
	Counters []obs.Counter `json:"counters,omitempty"`
}

// The oracle: the nested encoding/json form renderSpans replaced. Every
// node marshaled itself through an anonymous struct with an attribute
// map, inside one json.Marshal of the body.

type oracleNode struct{ n *obs.Node }

func (o *oracleNode) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		ID       string         `json:"id"`
		Name     string         `json:"name"`
		Attrs    map[string]any `json:"attrs,omitempty"`
		DurNS    int64          `json:"dur_ns"`
		Children []*oracleNode  `json:"children,omitempty"`
	}{o.n.ID, o.n.Name, attrMap(o.n.Attrs), o.n.DurNS, oracleForest(o.n.Children)})
}

func oracleForest(ns []*obs.Node) []*oracleNode {
	if ns == nil {
		return nil
	}
	out := make([]*oracleNode, len(ns))
	for i, n := range ns {
		out[i] = &oracleNode{n}
	}
	return out
}

func attrMap(attrs []obs.Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	out := make(map[string]any, len(attrs))
	for _, a := range attrs {
		switch a.Kind {
		case obs.KindStr:
			out[a.Key] = a.Str
		case obs.KindInt:
			out[a.Key] = a.Int
		case obs.KindFloat:
			out[a.Key] = a.Flt
		case obs.KindBool:
			out[a.Key] = a.Int != 0
		case obs.KindDur:
			out[a.Key+"_wall_ns"] = a.Int
		}
	}
	return out
}

func oracleSpans(jobID string, events []obs.Event) ([]byte, error) {
	return json.Marshal(struct {
		Job      string        `json:"job"`
		Spans    []*oracleNode `json:"spans"`
		Counters []obs.Counter `json:"counters,omitempty"`
	}{jobID, oracleForest(obs.BuildTree(events)), obs.CounterTotals(events)})
}

// jobSpans collects the span events of one job as runJob would: the
// daemon's default inference config, an app, static or trace_keys
// campaign.
func jobSpans(t testing.TB, kind, app string) *obs.MemorySink {
	t.Helper()
	mem := obs.NewMemorySink()
	cfg := DefaultConfig().Inference
	cfg.Observer = core.SinkObserver(mem)
	prog, err := apps.ByName(app)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	switch kind {
	case "app":
		_, err = core.Infer(ctx, prog, cfg)
	case "static":
		_, _, err = core.InferStatic(ctx, prog, cfg)
	case "trace_keys":
		_, err = core.InferFromSource(ctx, core.SliceSource(captureAppTraces(t, app, 4)), cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	return mem
}

// TestSpansJSONMatchesOracle: the stored spans body of app, static and
// trace_keys jobs of every built-in app (and a static gen:1 job) is
// byte-identical to the nested encoding/json oracle, and so is
// json.Marshal of the span forest through Node.MarshalJSON.
func TestSpansJSONMatchesOracle(t *testing.T) {
	type job struct{ kind, app string }
	var jobs []job
	for _, p := range apps.All() {
		for _, kind := range []string{"app", "static", "trace_keys"} {
			jobs = append(jobs, job{kind, p.Name})
		}
	}
	jobs = append(jobs, job{"static", "gen:1"})
	for i, j := range jobs {
		t.Run(j.kind+"/"+j.app, func(t *testing.T) {
			mem := jobSpans(t, j.kind, j.app)
			events := mem.Events()
			id := "0123456789abcdef"
			if i == 0 {
				id = `job <&> "1"`
			}
			got, err := renderSpans(id, mem)
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracleSpans(id, events)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("spans body differs from the oracle:\n got %s\nwant %s", got, want)
			}
			if cap(got) != len(got) {
				t.Errorf("stored body has cap %d for %d bytes", cap(got), len(got))
			}
			forest := obs.BuildTree(events)
			got, err = json.Marshal(forest)
			if err != nil {
				t.Fatal(err)
			}
			if want, _ = json.Marshal(oracleForest(forest)); !bytes.Equal(got, want) {
				t.Fatalf("json.Marshal([]*obs.Node) differs from the oracle:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestRenderSpansAllocs bounds the allocations of rendering a served
// App-1 job's span tree (491 events under the default config). The
// nested encoding/json renderer it replaced took 4,611.
func TestRenderSpansAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds are measured without the race detector")
	}
	mem := jobSpans(t, "app", "App-1")
	if n := len(mem.Events()); n != 491 {
		t.Logf("App-1 job emitted %d events (491 when this bound was measured)", n)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := renderSpans("0123456789abcdef", mem); err != nil {
			t.Fatal(err)
		}
	})
	// Measured 202; the bound adds a 10% margin, far less than one more
	// allocation per span would add.
	const bound = 222
	if allocs > bound {
		t.Fatalf("renderSpans: %.0f allocs per render, bound %d", allocs, bound)
	}
	t.Logf("renderSpans: %.0f allocs per render (bound %d)", allocs, bound)
}

// BenchmarkRenderSpans renders served App-1 (491 events) and App-3 (185
// events) span trees, the figures DESIGN.md §Observability quotes.
func BenchmarkRenderSpans(b *testing.B) {
	for _, app := range []string{"App-1", "App-3"} {
		b.Run(app, func(b *testing.B) {
			mem := jobSpans(b, "app", app)
			b.ReportAllocs()
			for b.Loop() {
				if _, err := renderSpans("0123456789abcdef", mem); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
