// Bounded job queue and worker pool. Admission is non-blocking: when the
// buffered channel is full, Submit fails fast with ErrQueueFull and the
// HTTP layer turns that into 429 + Retry-After, so a traffic spike sheds
// load instead of growing memory without bound. Each worker derives a
// per-job context (server-wide timeout, per-job cancel) and runs the
// executor; graceful drain closes admission, lets the workers finish every
// admitted job, and then returns.
package server

import (
	"context"
	"errors"
	"sync"
	"time"
)

// ErrQueueFull is returned by Submit when the queue has no free slot.
var ErrQueueFull = errors.New("server: job queue is full")

// ErrDraining is returned by Submit once drain has begun.
var ErrDraining = errors.New("server: draining, not accepting jobs")

// executor runs one job to completion and returns its serialized result.
type executor func(ctx context.Context, job *Job) ([]byte, error)

// queue owns the channel, the workers, and the admission state.
type queue struct {
	jobs    chan *Job
	timeout time.Duration // per-job wall-clock bound (0 = none)
	exec    executor

	baseCtx context.Context

	mu       sync.Mutex
	draining bool

	wg sync.WaitGroup

	// Observability hooks, wired by the server. All non-nil after newQueue.
	depth    *Gauge
	inflight *Gauge
	onFinish func(job *Job, st JobStatus, body []byte, elapsed time.Duration)
}

// newQueue builds a queue with the given buffer size; workers start
// immediately and run until drain.
func newQueue(baseCtx context.Context, size, workers int, timeout time.Duration, exec executor, reg *Registry, onFinish func(*Job, JobStatus, []byte, time.Duration)) *queue {
	q := &queue{
		jobs:     make(chan *Job, size),
		timeout:  timeout,
		exec:     exec,
		baseCtx:  baseCtx,
		depth:    reg.Gauge("sherlock_queue_depth", "Jobs admitted but not yet started."),
		inflight: reg.Gauge("sherlock_jobs_inflight", "Jobs currently executing."),
		onFinish: onFinish,
	}
	if q.onFinish == nil {
		q.onFinish = func(*Job, JobStatus, []byte, time.Duration) {}
	}
	q.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go q.worker()
	}
	return q
}

// Submit admits a job or fails fast. The job must be in StatusQueued.
func (q *queue) Submit(j *Job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.draining {
		return ErrDraining
	}
	select {
	case q.jobs <- j:
		q.depth.Inc()
		return nil
	default:
		return ErrQueueFull
	}
}

// Drain stops admission, waits for every admitted job to finish, and
// returns nil — or ctx's error if the deadline passes first, in which case
// the base context should be canceled by the caller to abort stragglers.
func (q *queue) Drain(ctx context.Context) error {
	q.mu.Lock()
	if !q.draining {
		q.draining = true
		close(q.jobs)
	}
	q.mu.Unlock()

	done := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// worker pops jobs until the channel closes.
func (q *queue) worker() {
	defer q.wg.Done()
	for j := range q.jobs {
		q.depth.Dec()
		q.runOne(j)
	}
}

// runOne executes a single popped job through its full lifecycle.
func (q *queue) runOne(j *Job) {
	ctx := q.baseCtx
	var cancel context.CancelFunc
	if q.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, q.timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	start := time.Now()
	if !j.start(start, cancel) {
		// Canceled while queued: nothing to run, the slot frees instantly.
		q.onFinish(j, StatusCanceled, nil, 0)
		return
	}
	q.inflight.Inc()
	body, err := q.exec(ctx, j)
	q.inflight.Dec()
	elapsed := time.Since(start)

	st, msg := StatusDone, ""
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled):
		st, msg = StatusCanceled, "canceled"
	case errors.Is(err, context.DeadlineExceeded):
		st, msg = StatusFailed, "timeout: "+err.Error()
	default:
		st, msg = StatusFailed, err.Error()
	}
	// The hook fills the cache before finish wakes the job's watchers: a
	// client that resubmits the moment its job reports done must hit it.
	q.onFinish(j, st, body, elapsed)
	j.finishLocked(st, msg)
}
