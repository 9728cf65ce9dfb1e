// Job model: the unit of work the daemon queues, executes, caches, and
// reports on. A job is a named benchmark application campaign, a run-free
// static report, an offline solve over corpus traces, or a watch
// subscription that re-solves as matching traces arrive.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"sherlock/internal/core"
)

// JobSpec is the client-facing description of one inference job — the body
// of POST /v1/jobs. The v1 shape names the workload with one (Mode,
// Target) pair; the original one-field-per-kind shape (App, TraceKeys,
// WatchApp, StaticApp) remains accepted verbatim.
// normalize lowers Mode/Target onto the legacy fields before validation
// and hashing, so both spellings of the same job address the same
// content key — and therefore the same cache entry. Zero-valued tuning
// fields inherit the server's base inference config; non-zero fields
// override it. The effective config (not the raw overrides) is what
// gets hashed into the job's content address, so "rounds": 3 and an
// omitted rounds field on a rounds=3 server address the same cache entry.
type JobSpec struct {
	// Mode selects the workload kind in the unified submission shape:
	// "app" (benchmark campaign), "static" (run-free report), "watch"
	// (corpus subscription), or "trace_keys" (corpus content addresses).
	// Empty means the legacy shape below.
	Mode string `json:"mode,omitempty"`
	// Target carries the mode's workload: an application name for
	// app/static/watch (built-ins "App-1".."App-8" or generated
	// "gen:<seed>[,profile=...][,size=...]"), an array of strings for
	// trace_keys.
	Target any `json:"target,omitempty"`

	// App names a benchmark application ("App-1".."App-8").
	App string `json:"app,omitempty"`
	// TraceKeys names traces already in the server's corpus (uploaded via
	// POST /v1/traces) by content address. Corpus jobs run the offline
	// solve streaming straight off the blob store — upload once, infer
	// many times without resending trace bytes.
	TraceKeys []string `json:"trace_keys,omitempty"`
	// WatchApp binds the job to every corpus trace whose App metadata
	// matches, now and in the future: the job enters the "watching" state
	// and re-solves incrementally each time a matching trace is ingested,
	// bumping its version. Watch results are byte-compatible with a
	// one-shot trace_keys job over the same trace set (same content key,
	// same result bytes modulo wall-clock overhead).
	WatchApp string `json:"watch_app,omitempty"`
	// StaticApp names a benchmark application for RUN-FREE inference: the
	// job walks the program's DSL, derives the constraint system without a
	// single execution, and solves it. The result is a prior-quality
	// report, bit-identical across runs and nodes, content-addressed by
	// the program's structural hash.
	StaticApp string `json:"static_app,omitempty"`

	// Overrides of the server's base config (zero = inherit).
	Rounds int     `json:"rounds,omitempty"`
	Lambda float64 `json:"lambda,omitempty"`
	Near   int64   `json:"near,omitempty"`
	Seed   int64   `json:"seed,omitempty"`
	// MaxSteps bounds each simulated test (guards the service against
	// adversarially long campaigns; zero = inherit).
	MaxSteps int `json:"max_steps,omitempty"`
}

// errRemovedHybrid and errRemovedTraces answer both spellings of a removed
// workload kind ("mode": "hybrid" and the legacy "hybrid": true; "mode":
// "traces" and the legacy "traces" list) so an old client gets a clear 400
// naming the replacement rather than a job it did not ask for.
var (
	errRemovedHybrid = errors.New(`job spec: hybrid mode was removed; submit the campaign as mode "app" (its final inferred set is the same)`)
	errRemovedTraces = errors.New(`job spec: inline traces were removed; upload each trace via POST /v1/traces and submit the returned keys as "trace_keys"`)
)

// UnmarshalJSON decodes a wire spec. The decoder ignores unknown fields,
// so the removed "hybrid" flag and "traces" list are checked for by name
// here; without the check a legacy {"app": ..., "hybrid": true} or
// {"app": ..., "traces": [...]} would silently run a plain campaign.
func (s *JobSpec) UnmarshalJSON(data []byte) error {
	type plain JobSpec // no methods: decodes without recursing
	var wire struct {
		plain
		Hybrid *bool           `json:"hybrid"`
		Traces json.RawMessage `json:"traces"`
	}
	if err := json.Unmarshal(data, &wire); err != nil {
		return err
	}
	if wire.Hybrid != nil && *wire.Hybrid {
		return errRemovedHybrid
	}
	if wire.Traces != nil {
		return errRemovedTraces
	}
	*s = JobSpec(wire.plain)
	return nil
}

// normalize lowers the unified (Mode, Target) shape onto the legacy
// one-field-per-kind spec, leaving Mode/Target cleared. Legacy-shaped
// specs (Mode empty, Target absent) pass through untouched. After a
// successful normalize the spec is indistinguishable from its legacy
// spelling, which is what keeps JobKey — and every cache entry filed
// under pre-mode keys — identical across the two shapes.
func (s *JobSpec) normalize() error {
	if s.Mode == "" {
		if s.Target != nil {
			return fmt.Errorf("job spec: \"target\" requires \"mode\"")
		}
		return nil
	}
	if s.App != "" || len(s.TraceKeys) > 0 || s.WatchApp != "" || s.StaticApp != "" {
		return fmt.Errorf("job spec: \"mode\" and the legacy workload fields (\"app\", \"trace_keys\", \"watch_app\", \"static_app\") are mutually exclusive")
	}
	name := func() (string, error) {
		str, ok := s.Target.(string)
		if !ok || str == "" {
			return "", fmt.Errorf("job spec: mode %q needs a non-empty string \"target\"", s.Mode)
		}
		return str, nil
	}
	list := func() ([]string, error) {
		raw, ok := s.Target.([]any)
		if !ok || len(raw) == 0 {
			return nil, fmt.Errorf("job spec: mode %q needs a non-empty string array \"target\"", s.Mode)
		}
		out := make([]string, len(raw))
		for i, v := range raw {
			str, ok := v.(string)
			if !ok {
				return nil, fmt.Errorf("job spec: mode %q target[%d] is not a string", s.Mode, i)
			}
			out[i] = str
		}
		return out, nil
	}
	var err error
	switch s.Mode {
	case "app":
		s.App, err = name()
	case "hybrid":
		return errRemovedHybrid
	case "static":
		s.StaticApp, err = name()
	case "watch":
		s.WatchApp, err = name()
	case "traces":
		return errRemovedTraces
	case "trace_keys":
		s.TraceKeys, err = list()
	default:
		return fmt.Errorf("job spec: unknown mode %q (want \"app\", \"static\", \"watch\", or \"trace_keys\")", s.Mode)
	}
	if err != nil {
		return err
	}
	s.Mode, s.Target = "", nil
	return nil
}

// validate checks well-formedness (not config ranges — the effective
// config is validated separately). Callers normalize first; a spec with
// Mode still set was never normalized.
func (s JobSpec) validate() error {
	if s.Mode != "" || s.Target != nil {
		return fmt.Errorf("job spec: internal error: spec not normalized")
	}
	set := 0
	for _, present := range []bool{s.App != "", len(s.TraceKeys) > 0, s.WatchApp != "", s.StaticApp != ""} {
		if present {
			set++
		}
	}
	if set == 0 {
		return fmt.Errorf("job spec: one of \"app\", \"trace_keys\", \"watch_app\", or \"static_app\" is required")
	}
	if set > 1 {
		return fmt.Errorf("job spec: \"app\", \"trace_keys\", \"watch_app\", and \"static_app\" are mutually exclusive")
	}
	return nil
}

// effectiveConfig resolves the spec against the server's base config.
func (s JobSpec) effectiveConfig(base core.Config) core.Config {
	cfg := base
	if s.Rounds != 0 {
		cfg.Rounds = s.Rounds
	}
	if s.Lambda != 0 {
		cfg.Solver.Lambda = s.Lambda
	}
	if s.Near != 0 {
		cfg.Window.Near = s.Near
	}
	if s.Seed != 0 {
		cfg.Seed = s.Seed
	}
	if s.MaxSteps != 0 {
		cfg.MaxStepsPerTest = s.MaxSteps
	}
	// The observer is the server's own; never inherit a caller-visible one.
	cfg.Observer = nil
	return cfg
}

// JobStatus is a job's lifecycle state.
type JobStatus string

const (
	StatusQueued   JobStatus = "queued"
	StatusRunning  JobStatus = "running"
	StatusWatching JobStatus = "watching" // subscription bound to a corpus prefix
	StatusDone     JobStatus = "done"
	StatusFailed   JobStatus = "failed"
	StatusCanceled JobStatus = "canceled"
)

// terminal reports whether a status is a final state.
func (st JobStatus) terminal() bool {
	return st == StatusDone || st == StatusFailed || st == StatusCanceled
}

// Job is one queued/executing/finished inference request.
type Job struct {
	ID  string
	Key string // content address (hash.go)

	Spec JobSpec
	Cfg  core.Config // effective config

	// noProxy marks a submission that already crossed one cluster hop
	// (cluster.go); this node must answer it itself. Immutable after
	// submit, read by the executing worker.
	noProxy bool

	mu         sync.Mutex
	status     JobStatus
	err        string
	cached     bool   // answered from the result cache, no execution
	proxied    bool   // executed by the content key's owner node
	spans      []byte // rendered span tree (obs bridge); nil for cached jobs
	submitted  time.Time
	started    time.Time
	finished   time.Time
	cancelOnce sync.Once
	cancel     func() // non-nil while cancellable; set by queue/worker
	done       chan struct{}

	// Watch-job state (subscription.go). version counts published results;
	// updated is closed and replaced on every publish, so watchers select
	// on the channel they captured to learn about the next one. key holds
	// the content address of the latest published result — it moves as the
	// bound trace set grows, unlike the immutable Key of one-shot jobs.
	version uint64
	updated chan struct{} // non-nil exactly for watch jobs
	key     string
}

func newJob(id, key string, spec JobSpec, cfg core.Config, now time.Time) *Job {
	return &Job{
		ID: id, Key: key, Spec: spec, Cfg: cfg,
		status: StatusQueued, submitted: now,
		done: make(chan struct{}),
	}
}

// newWatchJob builds a job in the watching state. Its content key is
// unknown until the first publish (no traces may match yet).
func newWatchJob(id string, spec JobSpec, cfg core.Config, now time.Time) *Job {
	return &Job{
		ID: id, Spec: spec, Cfg: cfg,
		status: StatusWatching, submitted: now,
		done:    make(chan struct{}),
		updated: make(chan struct{}),
	}
}

// publish records a new watch result version under the given content key
// and wakes every watcher. Publishing clears any transient solve error.
func (j *Job) publish(key string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusWatching {
		return
	}
	j.key = key
	j.version++
	j.err = ""
	close(j.updated)
	j.updated = make(chan struct{})
}

// watchState snapshots the fields a long-poll loop needs: the version,
// the status, and the channel that signals the next publish.
func (j *Job) watchState() (version uint64, status JobStatus, updated <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.version, j.status, j.updated
}

// setTransientError records a watch-cycle failure without leaving the
// watching state; the next successful publish clears it.
func (j *Job) setTransientError(msg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status == StatusWatching {
		j.err = msg
	}
}

// Status returns the current lifecycle state.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// setSpans stores the job's rendered span tree (obs.go). A nil or
// oversized body is dropped.
func (j *Job) setSpans(body []byte) {
	if body == nil || len(body) > maxSpanBodyBytes {
		return
	}
	j.mu.Lock()
	j.spans = body
	j.mu.Unlock()
}

// SpansJSON returns the stored span tree, or nil when none was recorded
// (job still queued, answered from the cache, or executed before tracing).
func (j *Job) SpansJSON() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.spans
}

// Cancel requests cancellation: a queued job is dropped when a worker pops
// it; a running job's context is canceled, aborting the campaign between
// test executions.
func (j *Job) Cancel() {
	j.mu.Lock()
	cancel := j.cancel
	if j.status == StatusQueued {
		// Mark immediately so the worker skips it without running.
		j.finish(StatusCanceled, "canceled before start")
	}
	j.mu.Unlock()
	if cancel != nil {
		j.cancelOnce.Do(cancel)
	}
}

// start transitions queued→running; returns false if the job was canceled
// while waiting in the queue.
func (j *Job) start(now time.Time, cancel func()) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusQueued {
		return false
	}
	j.status = StatusRunning
	j.started = now
	j.cancel = cancel
	return true
}

// finish records a terminal state. Callers must hold j.mu.
func (j *Job) finish(st JobStatus, errMsg string) {
	if j.status.terminal() {
		return
	}
	j.status = st
	j.err = errMsg
	j.finished = time.Now()
	close(j.done)
}

// finishLocked is finish with locking for callers outside the struct.
func (j *Job) finishLocked(st JobStatus, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finish(st, errMsg)
}

// view is the JSON representation served by the jobs endpoints.
type jobView struct {
	ID          string `json:"id"`
	Key         string `json:"key"`
	Status      string `json:"status"`
	Cached      bool   `json:"cached"`
	Proxied     bool   `json:"proxied,omitempty"` // executed by the key's owner node
	Version     uint64 `json:"version,omitempty"` // watch jobs: published results so far
	WatchApp    string `json:"watch_app,omitempty"`
	StaticApp   string `json:"static_app,omitempty"`
	Error       string `json:"error,omitempty"`
	SubmittedAt string `json:"submitted_at"`
	StartedAt   string `json:"started_at,omitempty"`
	FinishedAt  string `json:"finished_at,omitempty"`
	ResultURL   string `json:"result_url,omitempty"`
	SpansURL    string `json:"spans_url,omitempty"`
	WatchURL    string `json:"watch_url,omitempty"`
}

func (j *Job) view() jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := jobView{
		ID:          j.ID,
		Key:         j.Key,
		Status:      string(j.status),
		Cached:      j.cached,
		Proxied:     j.proxied,
		Version:     j.version,
		WatchApp:    j.Spec.WatchApp,
		StaticApp:   j.Spec.StaticApp,
		Error:       j.err,
		SubmittedAt: j.submitted.UTC().Format(time.RFC3339Nano),
		WatchURL:    "/v1/jobs/" + j.ID + "/watch",
	}
	if j.Spec.WatchApp != "" {
		// A watch job's key tracks the latest published trace set.
		v.Key = j.key
	}
	if !j.started.IsZero() {
		v.StartedAt = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		v.FinishedAt = j.finished.UTC().Format(time.RFC3339Nano)
	}
	if j.status == StatusDone && v.Key != "" {
		v.ResultURL = "/v1/results/" + v.Key
	}
	if j.Spec.WatchApp != "" && j.version > 0 {
		v.ResultURL = "/v1/results/" + v.Key
	}
	if j.spans != nil {
		v.SpansURL = "/v1/jobs/" + j.ID + "/spans"
	}
	return v
}
