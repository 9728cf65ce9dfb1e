package sherlock

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestFacadeObserver: the public Observer surface — a MemorySink observer
// collects the campaign span tree and the Round callback fires once per
// round, in order, with the live accumulator.
func TestFacadeObserver(t *testing.T) {
	app := buildDemo()
	mem := NewMemorySink()
	rounds := 0
	cfg := DefaultConfig()
	cfg.Observer = ObserverFuncs{
		OnEvent: mem.Emit,
		OnRound: func(snap RoundSnapshot, acc *Observations) {
			rounds++
			if snap.Round != rounds || acc == nil {
				t.Errorf("Round call %d got round %d, observations %v", rounds, snap.Round, acc != nil)
			}
		},
	}
	if _, err := Infer(context.Background(), app, cfg); err != nil {
		t.Fatal(err)
	}
	if rounds != cfg.Rounds {
		t.Errorf("Round fired %d times, want %d", rounds, cfg.Rounds)
	}
	render := mem.Render()
	if !strings.Contains(render, "campaign:facade-demo{") || !strings.Contains(render, "round:01{") {
		t.Fatalf("observer missed the campaign tree:\n%s", render)
	}
}

// TestFacadeTraceOutRoundTrip: the JSONL event log written through the
// public sink parses back into the identical deterministic rendering.
func TestFacadeTraceOutRoundTrip(t *testing.T) {
	app := buildDemo()
	var buf bytes.Buffer
	mem := NewMemorySink()
	jsonl := NewJSONLSink(&buf) // serializes concurrent Emits onto buf
	cfg := DefaultConfig()
	cfg.Observer = ObserverFuncs{OnEvent: func(e SpanEvent) {
		mem.Emit(e)
		jsonl.Emit(e)
	}}
	if _, err := Infer(context.Background(), app, cfg); err != nil {
		t.Fatal(err)
	}
	events, err := ParseJSONLLog(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if RenderSpanEvents(events) != mem.Render() {
		t.Fatal("event-log render diverges from in-memory render")
	}
}

func TestCompareDetectorsOptions(t *testing.T) {
	app, err := AppByName("App-7")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Infer(context.Background(), app, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	base, err := CompareDetectors(context.Background(), app, res.SyncKeys())
	if err != nil {
		t.Fatal(err)
	}
	// Options route through: an explicit default config reproduces the
	// no-option call, and WithRaceRuns actually changes the protocol.
	same, err := CompareDetectors(context.Background(), app, res.SyncKeys(),
		WithRaceConfig(DefaultRaceConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if base.App != same.App || base.ManualTrue != same.ManualTrue {
		t.Error("WithRaceConfig(DefaultRaceConfig()) diverges from the default call")
	}
	if _, err := CompareDetectors(context.Background(), app, res.SyncKeys(),
		WithRaceRuns(1), WithRaceSeed(7)); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzeTSVDOptions(t *testing.T) {
	app, err := AppByName("App-7")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Infer(context.Background(), app, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTSVDConfig()
	got := cfg
	apply := []TSVDOption{WithTSVDRuns(5), WithTSVDSeed(11), WithTSVDNear(2_000_000), WithTSVDDelay(50_000)}
	for _, opt := range apply {
		opt(&got)
	}
	if got.Runs != 5 || got.Seed != 11 || got.Near != 2_000_000 || got.Delay != 50_000 {
		t.Fatalf("options did not apply: %+v", got)
	}
	if _, err := AnalyzeTSVD(context.Background(), app, res.SyncKeys(),
		WithTSVDConfig(cfg), WithTSVDRuns(2)); err != nil {
		t.Fatal(err)
	}
}

// TestCaptureTracePromptCancel: CaptureTrace's documented contract — a
// canceled context aborts the scheduler run promptly with a matching error.
func TestCaptureTracePromptCancel(t *testing.T) {
	app := buildDemo()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	tr, err := CaptureTrace(ctx, app, app.Tests[0], 1)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("canceled CaptureTrace took %v", elapsed)
	}
	if tr != nil {
		t.Error("canceled capture returned a trace")
	}
	if !errors.Is(err, ctx.Err()) {
		t.Fatalf("err = %v, want to match ctx.Err()", err)
	}
}
