// Package sherlock is a Go reproduction of "SherLock: Unsupervised
// Synchronization-Operation Inference" (Li, Chen, Lu, Musuvathi, Nath —
// ASPLOS 2021).
//
// SherLock infers which operations of a concurrent program act as
// synchronization — acquires and releases that induce happens-before
// edges — with no annotations: it executes the program's tests a few
// times under observation, collects acquire/release windows around
// conflicting accesses, encodes a set of synchronization properties and
// hypotheses as a linear program, and perturbs subsequent runs with
// targeted delays to sharpen the evidence.
//
// The package exposes the full pipeline:
//
//   - Program construction: build concurrent workloads with the statement
//     DSL in internal/prog, re-exported here via type aliases (Program,
//     Method, Test). The eight benchmark applications of the paper are
//     available through Apps and AppByName.
//   - Inference: Infer runs the Observer → Solver → Perturber loop and
//     returns the inferred operation set; InferAll batches whole
//     applications concurrently; ScoreResult classifies a result against
//     a program's ground truth.
//   - Consumers: CompareDetectors feeds an inferred SyncSet into a
//     FastTrack race detector next to a manually annotated baseline
//     (the paper's Manual_dr vs SherLock_dr); AnalyzeTSVD reproduces the
//     TSVD-enhancement study. Both take functional options (WithRaceRuns,
//     WithTSVDSeed, ...) over their Default*Config.
//   - Observability: set Config.Observer to receive the campaign's span
//     stream — a deterministic tree of campaign → round → execute/encode/
//     solve/perturb spans with typed attributes and counters. MemorySink
//     buffers and reconstructs trees for inspection; JSONLSink streams an
//     event log (`sherlock -trace-out=events.jsonl`). Span IDs and
//     attributes are identical across parallelism levels; only wall-clock
//     durations vary.
//
// Every entrypoint that executes tests takes a context.Context as its
// first argument; cancellation aborts a campaign between test executions
// and the returned error matches errors.Is(err, ctx.Err()). Within each
// round the per-test executions run on a bounded worker pool
// (Config.Parallelism, default GOMAXPROCS); results are bit-identical for
// every parallelism level.
//
// Quick start:
//
//	app := sherlock.NewProgram("demo", "Demo")
//	// ... add methods and tests (see examples/quickstart) ...
//	res, err := sherlock.Infer(context.Background(), app, sherlock.DefaultConfig())
//	for _, s := range res.Inferred {
//		fmt.Println(s.Role, s.Key.Display())
//	}
package sherlock

import (
	"context"
	"io"

	"sherlock/internal/apps"
	"sherlock/internal/core"
	"sherlock/internal/obs"
	"sherlock/internal/prog"
	"sherlock/internal/race"
	"sherlock/internal/sched"
	"sherlock/internal/store"
	"sherlock/internal/trace"
	"sherlock/internal/tsvd"
	"sherlock/internal/window"
)

// Core types, re-exported.
type (
	// Program is a concurrent application under analysis.
	Program = prog.Program
	// Method is one application method.
	Method = prog.Method
	// Test is one unit test of a Program.
	Test = prog.Test
	// Truth is a program's ground-truth annotation (optional; used only
	// for scoring).
	Truth = prog.Truth

	// Config tunes an inference campaign (rounds, Near, λ, hypotheses,
	// parallelism, feedback toggles). Validate reports misconfigurations.
	Config = core.Config
	// Result is the outcome of Infer.
	Result = core.Result
	// InferredSync is one reported synchronization operation.
	InferredSync = core.InferredSync
	// Score classifies a Result against ground truth.
	Score = core.Score

	// Key names a static candidate operation ("write:Class::field",
	// "begin:Class::Method", ...).
	Key = trace.Key
	// Role is acquire or release.
	Role = trace.Role
	// SyncSet maps inferred synchronization operations to their roles —
	// the typed currency between Infer (via Result.SyncKeys) and the
	// consumers CompareDetectors and AnalyzeTSVD.
	SyncSet = trace.SyncSet

	// Trace is one test execution's log in the paper's schema.
	Trace = trace.Trace
	// TraceSource streams stored traces into the offline solve
	// (InferFromSource); Corpus.Source and SliceSource implement it.
	TraceSource = core.TraceSource
	// SliceSource adapts in-memory traces to TraceSource.
	SliceSource = core.SliceSource

	// Corpus is a content-addressed on-disk trace corpus (OpenCorpus):
	// binary blobs keyed by SHA-256 of their canonical encoding, with
	// dedup, an index rebuilt from the blobs at open, and integrity
	// verification.
	Corpus = store.Corpus
	// CorpusEntry is one corpus trace's index record.
	CorpusEntry = store.Entry
	// CorpusVerifyReport is the machine-readable outcome of
	// Corpus.Verify: sorted corrupt/missing/orphan key lists.
	CorpusVerifyReport = store.VerifyReport

	// RaceComparison is a Manual_dr vs SherLock_dr detection outcome.
	RaceComparison = race.Comparison
	// RaceConfig tunes CompareDetectors (runs per test, seed). Construct
	// with DefaultRaceConfig and adjust, or use the WithRace* options.
	RaceConfig = race.CompareConfig
	// TSVDResult is the outcome of the TSVD-enhancement analysis.
	TSVDResult = tsvd.Result
	// TSVDConfig tunes AnalyzeTSVD (runs, seed, near window, delay
	// threshold). Construct with DefaultTSVDConfig and adjust, or use the
	// WithTSVD* options.
	TSVDConfig = tsvd.Config

	// Observer receives an inference campaign's observability stream: every
	// span event the tracer emits plus a Round callback at the end of each
	// round. Set it on Config.Observer. Implementations must be safe for
	// concurrent Event calls (per-test spans end on pool workers).
	Observer = core.Observer
	// ObserverFuncs adapts plain functions to Observer; nil fields are
	// skipped.
	ObserverFuncs = core.ObserverFuncs
	// RoundSnapshot summarizes one completed inference round.
	RoundSnapshot = core.RoundSnapshot
	// Observations is the accumulated window evidence handed to
	// Observer.Round.
	Observations = window.Observations

	// SpanEvent is one tracer event (span start/end, annotation, counter
	// delta) in the observability stream.
	SpanEvent = obs.Event
	// SpanNode is one reconstructed span-tree node (MemorySink.Tree,
	// sherlockd's spans endpoint).
	SpanNode = obs.Node
	// MemorySink buffers span events in memory and reconstructs span trees —
	// the test and programmatic-inspection sink.
	MemorySink = obs.MemorySink
	// JSONLSink streams span events as JSON lines to an io.Writer — the
	// event-log sink behind `sherlock -trace-out`.
	JSONLSink = obs.JSONLSink
)

// Role values.
const (
	RoleAcquire = trace.RoleAcquire
	RoleRelease = trace.RoleRelease
)

// NewProgram returns an empty program; add methods with AddMethod and unit
// tests with AddTest, then pass it to Infer.
func NewProgram(name, title string) *Program { return prog.New(name, title) }

// DefaultConfig mirrors the paper's default operating point: 3 rounds,
// Near = 1 ms (virtual), λ = 0.2, all hypotheses and feedback mechanisms
// enabled, 100 µs (virtual) injected delays, and a worker pool sized to
// runtime.GOMAXPROCS(0).
func DefaultConfig() Config { return core.DefaultConfig() }

// Infer runs the full SherLock loop — execute tests, extract windows,
// solve, perturb, repeat — and returns the inferred synchronizations.
// Within each round the per-test executions are dispatched across
// cfg.Parallelism workers; the result is identical for every parallelism
// level. ctx cancels the campaign between test executions.
func Infer(ctx context.Context, app *Program, cfg Config) (*Result, error) {
	return core.Infer(ctx, app, cfg)
}

// InferAll runs one inference campaign per application, campaigns
// executing concurrently. The result slice is indexed like apps; failed
// campaigns leave a nil entry and their errors are aggregated with
// errors.Join.
func InferAll(ctx context.Context, apps []*Program, cfg Config) ([]*Result, error) {
	return core.InferAll(ctx, apps, cfg)
}

// ScoreResult classifies an inference result against the program's ground
// truth, reproducing the paper's manual-inspection buckets.
func ScoreResult(app *Program, res *Result) *Score { return core.ScoreResult(app, res) }

// Apps returns the paper's eight benchmark applications (App-1..App-8) as
// synthetic equivalents with ground truth.
func Apps() []*Program { return apps.All() }

// AppByName returns one benchmark application by id ("App-1".."App-8").
func AppByName(name string) (*Program, error) { return apps.ByName(name) }

// SinkObserver wraps a span sink as an Observer whose Round callback is a
// no-op — the adapter for streaming a campaign's event log (for example
// SinkObserver(NewJSONLSink(f))).
func SinkObserver(s obs.Sink) Observer { return core.SinkObserver(s) }

// NewMemorySink returns an empty in-memory span sink.
func NewMemorySink() *MemorySink { return obs.NewMemorySink() }

// NewJSONLSink returns a sink writing one JSON object per span event to w.
// Safe for concurrent Emit calls; the caller owns w's lifetime.
func NewJSONLSink(w io.Writer) *JSONLSink { return obs.NewJSONLSink(w) }

// ParseJSONLLog decodes an event log written by a JSONLSink (the
// `sherlock -trace-out` format) back into span events.
func ParseJSONLLog(data []byte) ([]SpanEvent, error) { return obs.ParseJSONL(data) }

// BuildSpanTree reconstructs the deterministic span forest from events.
func BuildSpanTree(events []SpanEvent) []*SpanNode { return obs.BuildTree(events) }

// RenderSpanEvents returns the deterministic text rendering of an event
// stream: span forest plus counter totals, wall-clock fields excluded —
// byte-identical across runs and parallelism levels for the same campaign.
func RenderSpanEvents(events []SpanEvent) string { return obs.RenderEvents(events) }

// DefaultRaceConfig returns CompareDetectors' defaults (the paper's
// detection protocol: every test, a fixed run budget, deterministic seed).
func DefaultRaceConfig() RaceConfig { return race.DefaultCompareConfig() }

// RaceOption adjusts one CompareDetectors setting.
type RaceOption func(*RaceConfig)

// WithRaceRuns sets how many seeded executions each test gets per detector
// configuration.
func WithRaceRuns(n int) RaceOption { return func(c *RaceConfig) { c.Runs = n } }

// WithRaceSeed sets the base scheduler seed for the comparison.
func WithRaceSeed(seed int64) RaceOption { return func(c *RaceConfig) { c.Seed = seed } }

// WithRaceConfig replaces the whole configuration (applied before any
// other options in the same call).
func WithRaceConfig(cfg RaceConfig) RaceOption { return func(c *RaceConfig) { *c = cfg } }

// CompareDetectors runs the FastTrack race detector over the program's
// tests twice — once with the classic manually annotated synchronization
// list, once with the inferred set — and counts true/false first-reported
// races (the paper's Table 3). Pass Result.SyncKeys() as inferred; with no
// options it uses DefaultRaceConfig.
func CompareDetectors(ctx context.Context, app *Program, inferred SyncSet, opts ...RaceOption) (*RaceComparison, error) {
	cfg := DefaultRaceConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	return race.Compare(ctx, app, inferred, cfg)
}

// DefaultTSVDConfig returns AnalyzeTSVD's defaults, mirroring the TSVD
// paper's operating point.
func DefaultTSVDConfig() TSVDConfig { return tsvd.DefaultConfig() }

// TSVDOption adjusts one AnalyzeTSVD setting.
type TSVDOption func(*TSVDConfig)

// WithTSVDRuns sets how many seeded executions feed the analysis.
func WithTSVDRuns(n int) TSVDOption { return func(c *TSVDConfig) { c.Runs = n } }

// WithTSVDSeed sets the base scheduler seed for the analysis.
func WithTSVDSeed(seed int64) TSVDOption { return func(c *TSVDConfig) { c.Seed = seed } }

// WithTSVDNear sets the physical-proximity window (virtual ns) under which
// two conflicting calls count as near misses.
func WithTSVDNear(near int64) TSVDOption { return func(c *TSVDConfig) { c.Near = near } }

// WithTSVDDelay sets the injected delay (virtual ns) used to probe
// delay-propagation.
func WithTSVDDelay(delay int64) TSVDOption { return func(c *TSVDConfig) { c.Delay = delay } }

// WithTSVDConfig replaces the whole configuration (applied before any
// other options in the same call).
func WithTSVDConfig(cfg TSVDConfig) TSVDOption { return func(c *TSVDConfig) { *c = cfg } }

// AnalyzeTSVD reproduces the Section 5.6 experiment: which conflicting
// thread-unsafe API-call pairs are provably synchronized, per TSVD's
// delay-propagation heuristic and per SherLock's inferred operations.
// Pass Result.SyncKeys() as inferred; with no options it uses
// DefaultTSVDConfig.
func AnalyzeTSVD(ctx context.Context, app *Program, inferred SyncSet, opts ...TSVDOption) (*TSVDResult, error) {
	cfg := DefaultTSVDConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	return tsvd.Analyze(ctx, app, inferred, cfg)
}

// CaptureTrace executes one unit test of app under the given scheduler seed
// and returns its execution log — the raw material of inference. Traces
// serialize as JSON lines via (*Trace).Write and load with ReadTrace.
// Cancellation is prompt: the scheduler polls ctx between steps and the
// returned error matches errors.Is(err, ctx.Err()).
func CaptureTrace(ctx context.Context, app *Program, test *Test, seed int64) (*Trace, error) {
	res, err := sched.RunContext(ctx, app, test, sched.Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	return res.Trace, nil
}

// ReadTrace parses a trace serialized with (*Trace).Write.
func ReadTrace(r io.Reader) (*Trace, error) { return trace.Read(r) }

// InferFromTraces runs window extraction and a single solve over previously
// captured in-memory traces — a thin convenience wrapper over
// InferFromSource with a SliceSource.
func InferFromTraces(ctx context.Context, traces []*Trace, cfg Config) (*Result, error) {
	return core.InferFromTraces(ctx, traces, cfg)
}

// InferFromSource is the primary offline entrypoint: window extraction and
// a single solve over a streaming TraceSource — the paper's log-analysis
// step without re-execution or Perturber feedback. Sources decode one
// trace at a time, so memory stays bounded by the largest single trace;
// a corpus (OpenCorpus) plugs in via Corpus.Source, in-memory traces via
// SliceSource (or the InferFromTraces shorthand).
func InferFromSource(ctx context.Context, src TraceSource, cfg Config) (*Result, error) {
	return core.InferFromSource(ctx, src, cfg)
}

// OpenCorpus opens (creating if needed) a content-addressed trace corpus
// at dir. Ingest captured traces with Corpus.Ingest and feed them back to
// inference with InferFromSource(ctx, corpus.Source(), cfg) — the
// capture-once-infer-many workflow.
func OpenCorpus(dir string) (*Corpus, error) { return store.Open(dir) }

// EncodeTrace returns the canonical compact binary encoding of a trace
// (the corpus blob format); DecodeTrace inverts it.
func EncodeTrace(t *Trace) ([]byte, error) { return store.EncodeTrace(t) }

// DecodeTrace parses a trace in the canonical binary encoding.
func DecodeTrace(data []byte) (*Trace, error) { return store.DecodeTrace(data) }
