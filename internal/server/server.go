// Package server is sherlockd's serving layer: an HTTP JSON API over the
// inference engine, backed by a bounded job queue with a worker pool
// (queue.go), a content-addressed LRU result cache (cache.go, hash.go),
// and a dependency-free Prometheus-format metrics registry (metrics.go).
//
// Endpoints (DESIGN.md carries the full reference, including per-endpoint
// error codes):
//
//	POST   /v1/jobs          submit a job (application campaign, run-free
//	                         static report, corpus trace keys, or a
//	                         watch_app subscription); 202 queued/watching,
//	                         200 on cache hit, 429 + Retry-After when the
//	                         queue or subscription cap is full, 503 draining
//	GET    /v1/jobs          list job records (?status= filter, ?limit=
//	                         and ?after= cursor pagination)
//	GET    /v1/jobs/{id}     job status
//	GET    /v1/jobs/{id}/watch
//	                         long-poll until the job publishes a version
//	                         > ?after or terminates (?timeout seconds,
//	                         default 30)
//	GET    /v1/jobs/{id}/spans
//	                         the job's campaign span tree (deterministic
//	                         IDs/attrs; wall durations vary per run)
//	DELETE /v1/jobs/{id}     cancel (queued jobs never start; running jobs
//	                         abort between test executions; watch jobs
//	                         stop their subscription)
//	GET    /v1/results/{key} the serialized result at a content address
//	POST   /v1/traces        upload one trace (binary or JSON-lines, auto-
//	                         detected) into the content-addressed corpus;
//	                         201 with the entry, 200 on dedup — and wake
//	                         every subscription watching the trace's app
//	GET    /v1/traces        list the corpus index (deterministic order)
//	GET    /metrics          Prometheus text exposition
//	GET    /healthz          liveness + queue stats (503 while draining)
//
// Every error response uses one envelope: {"error":{"code","message"}},
// with machine-readable codes (errors.go) and Retry-After on all 429/503.
//
// The cache is keyed by content, not by job: identical workload + config
// hashes to the same key in every process, so a resubmission is answered
// with the byte-identical body of the first run without re-running
// inference. Parallelism is deliberately absent from the key — results
// are bit-identical for every worker-pool size.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"sherlock/internal/apps"
	"sherlock/internal/core"
	"sherlock/internal/obs"
	"sherlock/internal/store"
	"sherlock/internal/window"
)

// maxBodyBytes bounds a request body (an uploaded trace can be large, but
// not unboundedly so).
const maxBodyBytes = 64 << 20

// maxJobRecords bounds the in-memory job-status map; the oldest terminal
// records are evicted past this point (the result itself lives on in the
// content-addressed cache).
const maxJobRecords = 16384

// Server wires queue, cache, corpus, and metrics under an http.Handler.
type Server struct {
	cfg     Config
	q       *queue
	cache   *ResultCache
	corpus  *store.Corpus
	reg     *Registry
	mux     *http.ServeMux
	cluster ClusterHook // nil = single-node (cluster.go)

	baseCtx    context.Context
	baseCancel context.CancelFunc

	// drainCh closes the moment drain begins, before the queue empties,
	// so long-poll watch handlers return promptly instead of
	// holding http.Server.Shutdown hostage for their full timeout.
	drainCh   chan struct{}
	drainOnce sync.Once

	// ephemeralCorpus is the temp dir backing the corpus when
	// Config.CorpusDir was empty; removed on Close/Shutdown.
	ephemeralCorpus string

	// exec runs one job; defaults to runJob. A field so tests can inject
	// controllable executors.
	exec executor

	draining atomic.Bool
	nextID   atomic.Uint64

	mu      sync.Mutex
	byID    map[string]*Job
	idOrder []string // submission order, for record eviction

	// Watch subscriptions (subscription.go).
	subMu sync.Mutex
	subs  map[string]*subscription // by job id
	subWG sync.WaitGroup

	// Metrics.
	submitted    *Counter
	rejected     *Counter
	jobsDone     *Counter
	jobsFailed   *Counter
	jobsCanceled *Counter
	jobsComputed *Counter
	cacheHits    *Counter
	cacheMisses  *Counter
	cacheEntries *Gauge
	cacheEvicted *Gauge
	lpPivots     *Counter
	jobSeconds   *Histogram
	runSeconds   *Histogram
	solveSeconds *Histogram
	spanSink     *spanHistSink

	tracesStored *Counter
	tracesDedup  *Counter
	corpusTraces *Gauge
	corpusBytes  *Gauge

	watchActive  *Gauge
	watchUpdates *Counter

	staticReports *Counter
}

// New builds a Server and starts its worker pool. Callers own shutdown:
// either Shutdown (graceful drain) or Close (abort).
func New(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("server: invalid config: %w", err)
	}
	corpusDir, ephemeral := cfg.CorpusDir, ""
	if corpusDir == "" {
		dir, err := os.MkdirTemp("", "sherlockd-corpus-")
		if err != nil {
			return nil, fmt.Errorf("server: ephemeral corpus: %w", err)
		}
		corpusDir, ephemeral = dir, dir
	}
	corpus, err := store.Open(corpusDir)
	if err != nil {
		if ephemeral != "" {
			os.RemoveAll(ephemeral)
		}
		return nil, fmt.Errorf("server: open corpus: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	reg := NewRegistry()
	s := &Server{
		cfg:             cfg,
		cache:           NewResultCache(cfg.CacheCapacity),
		corpus:          corpus,
		ephemeralCorpus: ephemeral,
		reg:             reg,
		baseCtx:         ctx,
		baseCancel:      cancel,
		drainCh:         make(chan struct{}),
		byID:            make(map[string]*Job),
		subs:            make(map[string]*subscription),

		submitted:    reg.Counter("sherlock_jobs_submitted_total", "Jobs accepted for execution (cache misses)."),
		rejected:     reg.Counter("sherlock_jobs_rejected_total", "Submissions rejected with 429 because the queue was full."),
		jobsDone:     reg.Counter("sherlock_jobs_total", "Jobs by terminal status.", "status", "done"),
		jobsFailed:   reg.Counter("sherlock_jobs_total", "Jobs by terminal status.", "status", "failed"),
		jobsCanceled: reg.Counter("sherlock_jobs_total", "Jobs by terminal status.", "status", "canceled"),
		jobsComputed: reg.Counter("sherlock_jobs_computed_total", "Jobs whose campaign/solve actually ran on this node (not cached, not proxied)."),
		cacheHits:    reg.Counter("sherlock_cache_hits_total", "Submissions answered from the result cache."),
		cacheMisses:  reg.Counter("sherlock_cache_misses_total", "Submissions that required a fresh campaign."),
		cacheEntries: reg.Gauge("sherlock_cache_entries", "Entries in the result cache."),
		cacheEvicted: reg.Gauge("sherlock_cache_evictions_total", "Entries evicted by the LRU policy."),
		lpPivots:     reg.Counter("sherlock_lp_pivots_total", "Simplex pivots across all campaign rounds."),
		jobSeconds:   reg.Histogram("sherlock_job_duration_seconds", "End-to-end job execution latency.", LatencyBuckets()),
		runSeconds:   reg.Histogram("sherlock_run_wall_seconds", "Per-job summed scheduler wall time (execution phase).", LatencyBuckets()),
		solveSeconds: reg.Histogram("sherlock_solve_wall_seconds", "Per-job summed LP solve wall time.", LatencyBuckets()),

		tracesStored: reg.Counter("sherlock_corpus_ingested_total", "Uploads that stored a new corpus blob."),
		tracesDedup:  reg.Counter("sherlock_corpus_dedup_total", "Uploads answered by an existing corpus blob."),
		corpusTraces: reg.Gauge("sherlock_corpus_traces", "Unique traces in the corpus."),
		corpusBytes:  reg.Gauge("sherlock_corpus_bytes", "Total stored corpus blob bytes."),

		watchActive:  reg.Gauge("sherlock_watch_subscriptions", "Active watch subscriptions."),
		watchUpdates: reg.Counter("sherlock_watch_updates_total", "Watch result versions published."),

		staticReports: reg.Counter("sherlock_static_reports_total", "Static inference reports computed on this node (not cached, not proxied)."),
	}
	s.spanSink = newSpanHistSink(reg)
	// Corpus codec spans (ingest/decode timings) feed the same phase
	// histograms as campaign spans.
	corpus.SetTracer(obs.New(s.spanSink))
	// Every ingest renamed into place wakes the subscriptions bound to
	// its app.
	corpus.OnIngest(s.notifySubscriptions)
	s.exec = s.runJob
	s.q = newQueue(ctx, cfg.QueueSize, cfg.Workers, cfg.JobTimeout,
		func(ctx context.Context, j *Job) ([]byte, error) { return s.exec(ctx, j) },
		reg, s.onFinish)

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("GET /v1/jobs/{id}/spans", s.handleJobSpans)
	mux.HandleFunc("GET /v1/jobs/{id}/watch", s.handleJobWatch)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /v1/results/{key}", s.handleResult)
	mux.HandleFunc("POST /v1/traces", s.handleTraceUpload)
	mux.HandleFunc("GET /v1/traces", s.handleTraceList)
	mux.HandleFunc("GET /v1/corpus/verify", s.handleCorpusVerify)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux = mux
	return s, nil
}

// Handler returns the HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the metrics registry (for embedding extra metrics).
func (s *Server) Registry() *Registry { return s.reg }

// Cache exposes the result cache (read-side introspection and tests).
func (s *Server) Cache() *ResultCache { return s.cache }

// Corpus exposes the trace corpus (introspection and tests).
func (s *Server) Corpus() *store.Corpus { return s.corpus }

// BeginDrain flips the server into draining mode without waiting:
// submissions start getting 503 and every long-poll watch handler
// returns its current view, so an enclosing http.Server.Shutdown
// completes on request timescales. Shutdown and Close call it
// implicitly; cmd/sherlockd calls it first so the HTTP listener can
// drain before the job queue does.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
	s.drainOnce.Do(func() { close(s.drainCh) })
}

// Draining returns a channel closed once drain has begun.
func (s *Server) Draining() <-chan struct{} { return s.drainCh }

// Shutdown drains gracefully: submissions are refused with 503, admitted
// jobs run to completion, then workers exit. If ctx expires first, the
// in-flight jobs are force-canceled and Shutdown returns ctx's error after
// the workers wind down.
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginDrain()
	err := s.q.Drain(ctx)
	if err != nil {
		// Deadline passed: abort stragglers and wait for the pool.
		s.baseCancel()
		_ = s.q.Drain(context.Background())
		s.subWG.Wait()
		s.removeEphemeralCorpus()
		return err
	}
	s.baseCancel()
	s.subWG.Wait()
	s.removeEphemeralCorpus()
	return nil
}

// Close aborts everything immediately.
func (s *Server) Close() {
	s.BeginDrain()
	s.baseCancel()
	_ = s.q.Drain(context.Background())
	s.subWG.Wait()
	s.removeEphemeralCorpus()
}

// removeEphemeralCorpus deletes the temp-dir corpus of a server that was
// started without a configured CorpusDir. Runs after the worker pool has
// wound down, so no job is still streaming from it.
func (s *Server) removeEphemeralCorpus() {
	if s.ephemeralCorpus != "" {
		_ = os.RemoveAll(s.ephemeralCorpus)
	}
}

// ---------------------------------------------------------------------------
// Handlers
// ---------------------------------------------------------------------------

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, CodeDraining, "draining")
		return
	}
	var spec JobSpec
	if !decodeRequest(w, r, &spec) {
		return
	}
	if err := spec.normalize(); err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidArgument, err.Error())
		return
	}
	if err := spec.validate(); err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidArgument, err.Error())
		return
	}
	for _, name := range []string{spec.App, spec.StaticApp} {
		if name == "" {
			continue
		}
		if _, err := apps.ByName(name); err != nil {
			writeError(w, http.StatusBadRequest, CodeInvalidArgument, err.Error())
			return
		}
	}
	if spec.WatchApp != "" && !watchAppPattern.MatchString(spec.WatchApp) {
		writeError(w, http.StatusBadRequest, CodeInvalidArgument,
			fmt.Sprintf("bad watch_app %q: want 1-100 characters of [A-Za-z0-9.,:=_-]", spec.WatchApp))
		return
	}
	var missingKeys []string
	for _, key := range spec.TraceKeys {
		if _, ok := s.corpus.Entry(key); !ok {
			missingKeys = append(missingKeys, key)
		}
	}
	if len(missingKeys) > 0 && s.cluster != nil {
		// Clients may upload to one node and submit to another: pull the
		// blobs this node is missing from their cluster owners before
		// rejecting the submission.
		if err := s.cluster.EnsureTraces(r.Context(), missingKeys); err == nil {
			missingKeys = missingKeys[:0]
			for _, key := range spec.TraceKeys {
				if _, ok := s.corpus.Entry(key); !ok {
					missingKeys = append(missingKeys, key)
				}
			}
		}
	}
	if len(missingKeys) > 0 {
		writeError(w, http.StatusBadRequest, CodeInvalidArgument,
			fmt.Sprintf("trace key %s is not in the corpus (upload it via POST /v1/traces)", missingKeys[0]))
		return
	}
	cfg := spec.effectiveConfig(s.cfg.Inference)
	if err := cfg.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidArgument, "effective config: "+err.Error())
		return
	}

	id := fmt.Sprintf("job-%06d", s.nextID.Add(1))

	if spec.WatchApp != "" {
		// Subscription: the job binds to the corpus prefix and stays in
		// the watching state, publishing a new version per matching ingest.
		j := newWatchJob(id, spec, cfg, time.Now())
		sub := newSubscription(s, j, cfg)
		if !s.addSubscription(sub) {
			writeError(w, http.StatusTooManyRequests, CodeWatchLimit,
				fmt.Sprintf("at the %d-subscription limit; cancel one or retry later", maxSubscriptions))
			return
		}
		s.remember(j)
		go sub.run()
		writeJSON(w, http.StatusAccepted, j.view())
		return
	}

	key := JobKey(spec, cfg)
	if spec.StaticApp != "" {
		// Static reports are keyed by the program's structural hash and the
		// static-relevant config, so a resubmission is answered from the
		// entry computed on this node or anywhere in the cluster.
		p, _ := apps.ByName(spec.StaticApp) // validated above
		skey, err := StaticReportKey(p, cfg)
		if err != nil {
			writeError(w, http.StatusInternalServerError, CodeInternal, "static key: "+err.Error())
			return
		}
		key = skey
	}
	j := newJob(id, key, spec, cfg, time.Now())
	j.noProxy = r.Header.Get(NoProxyHeader) != ""

	if _, ok := s.cache.Get(key); ok {
		// Content hit: the work already ran (this process) — answer
		// instantly with a pre-completed job record pointing at the result.
		s.cacheHits.Inc()
		s.answerDone(w, j, true)
		return
	}
	s.cacheMisses.Inc()

	if s.cluster != nil && !j.noProxy {
		// Cluster-wide cache: the key's owners may already hold the
		// result another node computed. Deliberately NOT copied into the
		// local cache — each node's LRU holds only the keys it computed
		// (its ring partition), so aggregate cluster capacity is a true
		// N-fold multiple instead of N copies of the same hot set; the
		// result endpoint re-fetches from the owner on demand.
		if _, ok := s.cluster.FastLookup(r.Context(), key); ok {
			s.answerDone(w, j, true)
			return
		}
		// Not cached anywhere: route the job to the key's owner node so
		// the cluster computes each key once and caches it where lookups
		// go (the proxied body stays out of the local LRU for the same
		// partitioning reason as above). Proxying happens here, on the
		// handler goroutine, never on a worker — workers only do local
		// compute, so two nodes can proxy to each other under full load
		// without deadlocking their pools. A miss (we own the key, or
		// every owner is unreachable) falls through to the local queue:
		// single-node degradation.
		if _, ok := s.cluster.ProxyJob(r.Context(), key, spec); ok {
			s.answerDone(w, j, false)
			return
		}
	}

	if err := s.q.Submit(j); err != nil {
		switch err {
		case ErrQueueFull:
			s.rejected.Inc()
			writeError(w, http.StatusTooManyRequests, CodeQueueFull, err.Error())
		default: // ErrDraining
			writeError(w, http.StatusServiceUnavailable, CodeDraining, err.Error())
		}
		return
	}
	s.submitted.Inc()
	s.remember(j)
	writeJSON(w, http.StatusAccepted, j.view())
}

// answerDone completes a submission that needed no local queueing: the
// result is cached (here or on a peer) when cached is true, or was
// computed by the key's owner node through a proxied job otherwise.
func (s *Server) answerDone(w http.ResponseWriter, j *Job, cached bool) {
	j.mu.Lock()
	j.cached = cached
	j.proxied = !cached
	j.finish(StatusDone, "")
	j.mu.Unlock()
	s.remember(j)
	writeJSON(w, http.StatusOK, j.view())
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, CodeNotFound, "unknown job id")
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

// handleJobSpans serves the job's reconstructed span tree. Cache-hit jobs
// never executed, so they have no spans — the result is content-addressed
// but the trace belongs to the run that produced it.
func (s *Server) handleJobSpans(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, CodeNotFound, "unknown job id")
		return
	}
	body := j.SpansJSON()
	if body == nil {
		writeError(w, http.StatusNotFound, CodeNotFound, "no spans for this job (not finished yet, answered from the result cache, or span tree too large)")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, CodeNotFound, "unknown job id")
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusOK, j.view())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	body, ok := s.cache.Get(r.PathValue("key"))
	if !ok && s.cluster != nil {
		// Results are content-addressed, so any node can serve any key:
		// fall back to the peers that own it.
		body, ok = s.cluster.FastLookup(r.Context(), r.PathValue("key"))
	}
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, "no result at this key (expired or never computed)")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// uploadView is the response of POST /v1/traces.
type uploadView struct {
	store.Entry
	Dedup bool `json:"dedup"`
}

// handleTraceUpload ingests one trace into the content-addressed corpus.
// The body is either the binary format or JSON lines (sniffed from the
// first bytes); either way the stored blob is the canonical binary
// encoding, so the same trace uploaded in both serializations dedups to
// one content address.
func (s *Server) handleTraceUpload(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, CodeDraining, "draining")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidArgument, "read body: "+err.Error())
		return
	}
	tr, err := store.DecodeBytes(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidArgument, "bad trace: "+err.Error())
		return
	}
	entry, added, err := s.corpus.Ingest(tr)
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, "ingest: "+err.Error())
		return
	}
	code := http.StatusOK
	if added {
		code = http.StatusCreated
		s.tracesStored.Inc()
		if s.cluster != nil {
			// Replicate the new blob to its ring owner and replicas so a
			// job routed anywhere finds it (anti-entropy backstops this).
			s.cluster.ReplicateBlob(entry.Key)
		}
	} else {
		s.tracesDedup.Inc()
	}
	writeJSON(w, code, uploadView{Entry: entry, Dedup: !added})
}

// handleCorpusVerify runs a full corpus integrity scan — every blob is
// re-hashed and re-decoded — and serves the machine-readable report.
// Expensive by design; operators and cluster repair call it, not probes.
func (s *Server) handleCorpusVerify(w http.ResponseWriter, r *http.Request) {
	rep, err := s.corpus.Verify()
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, "verify: "+err.Error())
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Clean bool `json:"clean"`
		*store.VerifyReport
	}{rep.Clean(), rep})
}

// handleTraceList serves the corpus index in its deterministic
// (key-sorted) order.
func (s *Server) handleTraceList(w http.ResponseWriter, r *http.Request) {
	entries := s.corpus.Entries()
	writeJSON(w, http.StatusOK, struct {
		Count  int           `json:"count"`
		Traces []store.Entry `json:"traces"`
	}{Count: len(entries), Traces: entries})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	evictions, size := s.cache.Stats()
	s.cacheEntries.Set(int64(size))
	s.cacheEvicted.Set(int64(evictions))
	traces, blobBytes, _ := s.corpus.Stats()
	s.corpusTraces.Set(int64(traces))
	s.corpusBytes.Set(blobBytes)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = s.reg.WriteTo(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type health struct {
		Status     string `json:"status"`
		QueueDepth int64  `json:"queue_depth"`
		InFlight   int64  `json:"jobs_inflight"`
	}
	h := health{Status: "ok", QueueDepth: s.q.depth.Value(), InFlight: s.q.inflight.Value()}
	code := http.StatusOK
	if s.draining.Load() {
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

// ---------------------------------------------------------------------------
// Job bookkeeping
// ---------------------------------------------------------------------------

func (s *Server) remember(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.byID[j.ID] = j
	s.idOrder = append(s.idOrder, j.ID)
	// Evict the oldest terminal records past the cap. Live records (queued,
	// running, watching) are skipped, not evicted, and keep their place in
	// submission order, so a long-lived watch job at the head cannot pin
	// every record behind it. Only the scanned prefix is rewritten: the
	// skipped live records move up to just before the first unscanned id.
	excess := len(s.idOrder) - maxJobRecords
	if excess <= 0 {
		return
	}
	var live []string
	i := 0
	for ; i < len(s.idOrder) && excess > 0; i++ {
		id := s.idOrder[i]
		if !s.byID[id].Status().terminal() {
			live = append(live, id)
			continue
		}
		delete(s.byID, id)
		excess--
	}
	start := i - len(live)
	copy(s.idOrder[start:i], live)
	s.idOrder = s.idOrder[start:]
}

func (s *Server) lookup(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byID[id]
}

// onFinish is the queue's completion hook for a job about to end in st:
// cache fills, terminal-status counters, and the latency histogram.
func (s *Server) onFinish(j *Job, st JobStatus, body []byte, elapsed time.Duration) {
	switch st {
	case StatusDone:
		s.jobsDone.Inc()
		if body != nil {
			s.cache.Put(j.Key, body)
		}
	case StatusFailed:
		s.jobsFailed.Inc()
	case StatusCanceled:
		s.jobsCanceled.Inc()
	}
	if elapsed > 0 {
		s.jobSeconds.Observe(elapsed.Seconds())
	}
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

// resultEnvelope is the cached/served result schema. Marshaling is
// deterministic (Go sorts map keys), so a cache hit is byte-identical to
// the cold run that populated it. Static reports carry the program's
// structural hash; campaign results leave it empty.
type resultEnvelope struct {
	Key         string       `json:"key"`
	App         string       `json:"app"`
	ProgramHash string       `json:"program_hash,omitempty"`
	Result      *core.Result `json:"result"`
}

// marshalResult renders the served result body for a content key. Shared
// by the queue executor and the watch-subscription publisher so both fill
// the cache with the same schema.
func marshalResult(key string, res *core.Result) ([]byte, error) {
	body, err := json.Marshal(resultEnvelope{Key: key, App: res.App, Result: res})
	if err != nil {
		return nil, fmt.Errorf("marshal result: %w", err)
	}
	return body, nil
}

// runJob executes one job: a full campaign for application jobs, the
// run-free static solve for static jobs, the offline solve for trace-key
// jobs. Per-phase wall time and LP pivots stream into the metrics as the
// campaign progresses; the span stream tees into the per-job memory sink
// (the spans endpoint) and the phase histograms.
//
// Cluster routing happens at submit time, not here: a worker only ever
// computes locally (proxying from a worker could deadlock two full
// pools against each other). The one cluster concern left on the worker
// is corpus completeness — a proxied trace_keys submission may name
// blobs the submit-side validation pulled but a crashed peer has since
// lost, so re-ensure before streaming the solve.
func (s *Server) runJob(ctx context.Context, j *Job) ([]byte, error) {
	if s.cluster != nil && len(j.Spec.TraceKeys) > 0 {
		if err := s.cluster.EnsureTraces(ctx, j.Spec.TraceKeys); err != nil {
			return nil, fmt.Errorf("cluster: ensure traces: %w", err)
		}
	}
	cfg := j.Cfg
	mem := obs.NewMemorySink()
	cfg.Observer = core.ObserverFuncs{
		OnEvent: obs.Fanout(mem, s.spanSink).Emit,
		OnRound: func(snap core.RoundSnapshot, _ *window.Observations) {
			s.lpPivots.Add(snap.LPIters)
		},
	}
	defer func() {
		if body, rerr := renderSpans(j.ID, mem); rerr == nil {
			j.setSpans(body)
		}
	}()

	var res *core.Result
	var err error
	switch {
	case j.Spec.StaticApp != "":
		// Run-free: the job's key is already the static report's content
		// address, so the queue's cache fill lands it exactly where
		// resubmissions and peers look for it.
		prog, aerr := apps.ByName(j.Spec.StaticApp)
		if aerr != nil {
			return nil, aerr
		}
		report, an, serr := core.InferStatic(ctx, prog, cfg)
		if serr != nil {
			return nil, serr
		}
		s.staticReports.Inc()
		s.solveSeconds.Observe(report.Overhead.SolveWall.Seconds())
		body, merr := json.Marshal(resultEnvelope{Key: j.Key, App: report.App, ProgramHash: an.ProgramHash, Result: report})
		if merr != nil {
			return nil, fmt.Errorf("marshal static result: %w", merr)
		}
		return body, nil
	case j.Spec.App != "":
		prog, aerr := apps.ByName(j.Spec.App)
		if aerr != nil {
			return nil, aerr
		}
		res, err = core.Infer(ctx, prog, cfg)
	default:
		// Stream straight off the blob store: one decoded trace in memory
		// at a time.
		res, err = core.InferFromSource(ctx, s.corpus.Source(j.Spec.TraceKeys...), cfg)
	}
	if err != nil {
		return nil, err
	}
	s.jobsComputed.Inc()
	s.runSeconds.Observe(res.Overhead.RunWall.Seconds())
	s.solveSeconds.Observe(res.Overhead.SolveWall.Seconds())

	return marshalResult(j.Key, res)
}
