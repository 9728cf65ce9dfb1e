package obs

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanIDsAreStructuralPaths(t *testing.T) {
	mem := NewMemorySink()
	tr := New(mem)

	campaign := tr.Root("campaign", "App-1", Int("rounds", 3))
	if got, want := campaign.ID(), "campaign:App-1"; got != want {
		t.Fatalf("root ID = %q, want %q", got, want)
	}
	round := campaign.Childf("round:%02d", 1)
	if got, want := round.ID(), "campaign:App-1/round:01"; got != want {
		t.Fatalf("child ID = %q, want %q", got, want)
	}
	exec := round.Child("execute")
	run := exec.Child("run:07", Str("test", "T1"))
	if got, want := run.ID(), "campaign:App-1/round:01/execute/run:07"; got != want {
		t.Fatalf("grandchild ID = %q, want %q", got, want)
	}
	run.End()
	exec.End()
	round.End()
	campaign.End()

	events := mem.Events()
	if len(events) != 8 { // 4 starts + 4 ends
		t.Fatalf("got %d events, want 8", len(events))
	}
	// End events carry the parent edge.
	var foundRunEnd bool
	for _, e := range events {
		if e.Type == EvSpanEnd && e.Name == "run:07" {
			foundRunEnd = true
			if e.Parent != "campaign:App-1/round:01/execute" {
				t.Errorf("run end parent = %q", e.Parent)
			}
		}
	}
	if !foundRunEnd {
		t.Fatal("no end event for run:07")
	}
}

func TestNilTracerAndNilSpanAreInert(t *testing.T) {
	var tr *Tracer
	span := tr.Root("campaign", "x", Int("a", 1))
	if span != nil {
		t.Fatal("nil tracer produced a span")
	}
	// Every method on a nil span must be a no-op, not a panic.
	span.Annotate(Str("k", "v"))
	if id := span.ID(); id != "" {
		t.Fatalf("nil span ID = %q", id)
	}
	child := span.Child("c")
	if child != nil {
		t.Fatal("nil span produced a child")
	}
	span.Childf("c:%d", 1).End()
	span.End()
	span.End() // idempotent on nil too
	tr.Count("n", 1)
}

func TestNilSinkTracerStillBuildsSpans(t *testing.T) {
	tr := New(nil)
	s := tr.Root("campaign", "App-2")
	defer s.End()
	if got, want := s.Child("round:01").ID(), "campaign:App-2/round:01"; got != want {
		t.Fatalf("ID = %q, want %q", got, want)
	}
	// Counters on a sink-less tracer are dropped, not a panic.
	tr.Count("windows", 5)
}

func TestEndIsIdempotent(t *testing.T) {
	mem := NewMemorySink()
	tr := New(mem)
	s := tr.Root("a", "")
	s.End()
	s.End()
	ends := 0
	for _, e := range mem.Events() {
		if e.Type == EvSpanEnd {
			ends++
		}
	}
	if ends != 1 {
		t.Fatalf("got %d end events, want 1", ends)
	}
}

func TestFanoutTeesAndSkipsNil(t *testing.T) {
	a, b := NewMemorySink(), NewMemorySink()
	sink := Fanout(nil, a, nil, b)
	sink.Emit(Event{Type: EvCounter, Name: "n", Delta: 1})
	if len(a.Events()) != 1 || len(b.Events()) != 1 {
		t.Fatalf("fanout delivered %d/%d events", len(a.Events()), len(b.Events()))
	}
	if Fanout(nil, nil) != nil {
		t.Fatal("all-nil fanout should collapse to nil")
	}
	if Fanout(a) != Sink(a) {
		t.Fatal("single-sink fanout should return the sink itself")
	}
}

func TestMemorySinkCopiesAttrs(t *testing.T) {
	mem := NewMemorySink()
	attrs := []Attr{Int("a", 1)}
	mem.Emit(Event{Type: EvSpanEnd, ID: "x", Name: "x", Attrs: attrs})
	attrs[0] = Int("a", 99) // mutate the caller's slice after Emit
	if got := mem.Events()[0].Attrs[0].Int; got != 1 {
		t.Fatalf("sink retained caller's attr slice: got %d", got)
	}
}

// emitSample drives a small two-round campaign shape through a tracer.
func emitSample(sink Sink) {
	tr := New(sink)
	c := tr.Root("campaign", "App-1", Int("rounds", 2), Int64("seed", 42))
	for r := 1; r <= 2; r++ {
		round := c.Childf("round:%02d", r)
		exec := round.Child("execute", Int("runs", 2))
		for i := 0; i < 2; i++ {
			run := exec.Child(fmt.Sprintf("run:%02d", i), Int64("seed", int64(42+i)))
			run.Annotate(Int("windows", 3*i))
			run.End()
		}
		exec.End()
		tr.Count("runs", 2)
		round.Annotate(Int("windows", 6), Bool("warm", r > 1))
		round.End()
	}
	c.Annotate(Int("inferred", 4), Float("lambda", 0.2), Dur("wall", 17*time.Millisecond))
	c.End()
	tr.Count("windows", 12)
}

func TestRenderDeterministicAndExcludesDurations(t *testing.T) {
	a, b := NewMemorySink(), NewMemorySink()
	emitSample(a)
	emitSample(b)
	ra, rb := a.Render(), b.Render()
	if ra != rb {
		t.Fatalf("renders differ:\n%s\n---\n%s", ra, rb)
	}
	if strings.Contains(ra, "wall") {
		t.Fatalf("render leaked a Kind-'d' attribute:\n%s", ra)
	}
	for _, want := range []string{
		"campaign:App-1{inferred=4 lambda=0.2 rounds=2 seed=42}",
		"  round:01{warm=false windows=6}",
		"      run:01{seed=43 windows=3}",
		"counters:",
		"  runs=4",
		"  windows=12",
	} {
		if !strings.Contains(ra, want) {
			t.Errorf("render missing %q:\n%s", want, ra)
		}
	}
}

func TestBuildTreeSortsAndFinalizesAttrs(t *testing.T) {
	mem := NewMemorySink()
	emitSample(mem)
	roots := mem.Tree()
	if len(roots) != 1 || roots[0].ID != "campaign:App-1" {
		t.Fatalf("roots = %+v", roots)
	}
	kids := roots[0].Children
	if len(kids) != 2 || kids[0].Name != "round:01" || kids[1].Name != "round:02" {
		t.Fatalf("children = %+v", kids)
	}
	// End-event attrs replace start-event attrs.
	var warm bool
	for _, a := range kids[1].Attrs {
		if a.Key == "warm" {
			warm = a.Int != 0
		}
	}
	if !warm {
		t.Fatal("round:02 missing finalized warm=true attr")
	}
	// A span with no end event keeps its start attrs.
	tr := New(mem)
	mem.Reset()
	tr.Root("orphan", "", Str("k", "v")) // never ended
	nodes := mem.Tree()
	if len(nodes) != 1 || len(nodes[0].Attrs) != 1 || nodes[0].Attrs[0].Str != "v" {
		t.Fatalf("unended span lost start attrs: %+v", nodes)
	}
	// A parent cycle is cut at its smallest ID: a span naming itself is a
	// root, and of two spans naming each other the smaller is the root.
	cyclic := []Event{
		{Type: EvSpanStart, ID: "self", Name: "self", Parent: "self"},
		{Type: EvSpanStart, ID: "b", Name: "b", Parent: "a"},
		{Type: EvSpanStart, ID: "a", Name: "a", Parent: "b"},
		{Type: EvSpanStart, ID: "c", Name: "c", Parent: "b"},
	}
	if got, want := RenderEvents(cyclic), "a\n  b\n    c\nself\n"; got != want {
		t.Fatalf("cyclic parents rendered\n%s\nwant\n%s", got, want)
	}
}

func TestCounterTotals(t *testing.T) {
	events := []Event{
		{Type: EvCounter, Name: "b", Delta: 2},
		{Type: EvCounter, Name: "a", Delta: 1},
		{Type: EvCounter, Name: "b", Delta: 3},
	}
	got := CounterTotals(events)
	if len(got) != 2 || got[0] != (Counter{Name: "a", Total: 1}) || got[1] != (Counter{Name: "b", Total: 5}) {
		t.Fatalf("totals = %+v", got)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	emitSample(sink)
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	events, err := ParseJSONL(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemorySink()
	emitSample(mem)
	// The deterministic rendering survives the wire format.
	if got, want := RenderEvents(events), mem.Render(); got != want {
		t.Fatalf("round-tripped render differs:\n%s\n---\n%s", got, want)
	}
	// Kind-'d' attrs round-trip via the _ns suffix.
	var gotDur bool
	for _, e := range events {
		for _, a := range e.Attrs {
			if a.Key == "wall" && a.Kind == KindDur && a.Int == int64(17*time.Millisecond) {
				gotDur = true
			}
		}
	}
	if !gotDur {
		t.Fatal("duration attribute did not round-trip")
	}
}

func TestParseJSONLRejectsGarbage(t *testing.T) {
	if _, err := ParseJSONL([]byte("{not json\n")); err == nil {
		t.Fatal("want error for malformed line")
	}
	if _, err := ParseJSONL([]byte(`{"ev":"bogus","name":"x","wall":""}` + "\n")); err == nil {
		t.Fatal("want error for unknown event type")
	}
	events, err := ParseJSONL(nil)
	if err != nil || len(events) != 0 {
		t.Fatalf("empty log: events=%v err=%v", events, err)
	}
}

func TestAttrConstructorsAndValues(t *testing.T) {
	cases := []struct {
		attr Attr
		want string
	}{
		{Str("k", "v"), "v"},
		{Int("k", 7), "7"},
		{Int64("k", -9), "-9"},
		{Float("k", 0.25), "0.25"},
		{Bool("k", true), "true"},
		{Bool("k", false), "false"},
		{Dur("k", time.Second), "1s"},
	}
	for _, c := range cases {
		if got := c.attr.value(); got != c.want {
			t.Errorf("%c value = %q, want %q", c.attr.Kind, got, c.want)
		}
	}
}

// TestConcurrentEmit exercises the sink contract under the race detector:
// many goroutines emitting spans and counters into a fanned-out pair of
// sinks, exactly as the parallel runner's workers do.
func TestConcurrentEmit(t *testing.T) {
	mem := NewMemorySink()
	var buf bytes.Buffer
	jsonl := NewJSONLSink(&buf)
	tr := New(Fanout(mem, jsonl))
	root := tr.Root("campaign", "race")

	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				s := root.Child(fmt.Sprintf("run:%03d", w*perWorker+i), Int("w", w))
				s.Annotate(Int("i", i))
				s.End()
				tr.Count("runs", 1)
			}
		}(w)
	}
	wg.Wait()
	root.End()

	if got := CounterTotals(mem.Events()); len(got) != 1 || got[0] != (Counter{Name: "runs", Total: workers * perWorker}) {
		t.Fatalf("counters = %+v, want runs=%d", got, workers*perWorker)
	}
	roots := mem.Tree()
	if len(roots) != 1 || len(roots[0].Children) != workers*perWorker {
		t.Fatalf("tree shape: %d roots, %d children", len(roots), len(roots[0].Children))
	}
	if err := jsonl.Err(); err != nil {
		t.Fatal(err)
	}
	events, err := ParseJSONL(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if RenderEvents(events) != mem.Render() {
		t.Fatal("concurrent JSONL and memory renders diverge")
	}
}

// TestNoSinkSpanAllocs bounds what a span costs when nothing listens:
// every scheduler run opens and closes spans like these, so a no-sink
// Child+Annotate+End must allocate the span itself and nothing else — no
// ID string, no attribute slice. Unlike a timed gate, the count does not
// depend on the host.
func TestNoSinkSpanAllocs(t *testing.T) {
	parent := New(nil).Root("campaign", "App-1")
	test, seed := "App1.Tests::T", int64(7)
	allocs := testing.AllocsPerRun(1000, func() {
		s := parent.Child("sched", Str("test", test), Int64("seed", seed))
		s.Annotate(Int("steps", 120), Int("events", 40), Bool("deadlocked", false))
		s.End()
	})
	if allocs > 1 {
		t.Fatalf("no-sink Child+Annotate+End allocates %.1f times, want at most 1", allocs)
	}
}
