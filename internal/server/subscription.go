// Watch subscriptions: a job bound to a corpus app prefix whose result
// advances as matching traces are ingested. Each subscription owns one
// goroutine that wakes on a coalescing notify channel (corpus OnIngest
// hook), re-lists the matching corpus keys, folds the new ones into its
// core.Checkpoint via InferIncremental, and publishes the result into the
// content-addressed cache under the SAME key a one-shot trace_keys job
// over that trace set would use — the incremental byte-identity invariant
// makes the two cache-coherent. The checkpoint lives in memory only: the
// corpus is the one durable store, so a restarted daemon's first update
// folds every matching corpus key from nil and republishes the same bytes
// under the same key.
package server

import (
	"context"
	"fmt"
	"net/http"
	"regexp"
	"strconv"
	"time"

	"sherlock/internal/core"
	"sherlock/internal/store"
)

// maxSubscriptions caps concurrent watch jobs: each holds a goroutine and
// a checkpoint, so admission is bounded like the job queue is.
const maxSubscriptions = 256

// watchAppPattern constrains watch_app values: they name corpus
// metadata. Besides the classic name alphabet it admits the generator
// namespace's ':', ',' and '=' ("gen:7,profile=go").
var watchAppPattern = regexp.MustCompile(`^[A-Za-z0-9.,:=_-]{1,100}$`)

// subscription is the server-side state of one watch job.
type subscription struct {
	s   *Server
	j   *Job
	app string
	cfg core.Config

	ck *core.Checkpoint

	notify chan struct{} // coalescing wake signal (capacity 1)
	stop   chan struct{} // closed by DELETE /v1/jobs/{id}
}

// newSubscription wires a subscription for job j. The caller registers it
// and starts run() on its own goroutine.
func newSubscription(s *Server, j *Job, cfg core.Config) *subscription {
	sub := &subscription{
		s:      s,
		j:      j,
		app:    j.Spec.WatchApp,
		cfg:    cfg,
		notify: make(chan struct{}, 1),
		stop:   make(chan struct{}),
	}
	j.mu.Lock()
	j.cancel = func() { close(sub.stop) }
	j.mu.Unlock()
	return sub
}

// wake delivers a coalescing notification; a wake while one is already
// pending is a no-op (the update cycle re-lists the corpus anyway).
func (sub *subscription) wake() {
	select {
	case sub.notify <- struct{}{}:
	default:
	}
}

// watchRetryMin/watchRetryMax bound the backoff a subscription sleeps
// after a failed update cycle before retrying on its own, so a transient
// solve error (timeout, I/O blip) self-heals instead of leaving the job
// stale until the next matching ingest happens to wake it.
const (
	watchRetryMin = time.Second
	watchRetryMax = time.Minute
)

// run is the subscription loop: solve whatever already matches, then
// re-solve on every wake until canceled or the server shuts down. A
// failed cycle arms a backoff timer so the update is retried even if no
// further ingest arrives; the timer is a single stoppable time.Timer
// (not time.After) so a draining server never leaves armed timers
// behind — SIGTERM stops the goroutine AND its retry state cleanly.
func (sub *subscription) run() {
	defer sub.s.subDone(sub)
	backoff := watchRetryMin
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	for {
		var retry <-chan time.Time
		if sub.update() {
			backoff = watchRetryMin
		} else {
			timer.Reset(backoff)
			retry = timer.C
			if backoff *= 2; backoff > watchRetryMax {
				backoff = watchRetryMax
			}
		}
		select {
		case <-sub.notify:
		case <-retry:
			retry = nil // fired: the timer needs no draining before Reset
		case <-sub.stop:
			sub.j.finishLocked(StatusCanceled, "watch canceled")
			return
		case <-sub.s.baseCtx.Done():
			sub.j.finishLocked(StatusCanceled, "server draining")
			return
		}
		// Left the select without consuming an armed timer: disarm it so
		// Reset starts from a clean state next round.
		if retry != nil && !timer.Stop() {
			<-timer.C
		}
	}
}

// matchingKeys lists the corpus keys bound to this subscription, in the
// corpus's deterministic (sorted) order.
func (sub *subscription) matchingKeys() []string {
	var keys []string
	for _, e := range sub.s.corpus.Entries() {
		if e.App == sub.app {
			keys = append(keys, e.Key)
		}
	}
	return keys
}

// update runs one watch cycle: list, solve incrementally if anything is
// new, keep the advanced checkpoint, fill the cache, publish. It
// reports whether the cycle succeeded; a false return makes the run loop
// retry with backoff.
func (sub *subscription) update() bool {
	keys := sub.matchingKeys()
	if len(keys) == 0 {
		return true
	}
	fresh := keys
	if sub.ck != nil {
		fresh = fresh[:0:0]
		for _, k := range keys {
			if !sub.ck.Covers(k) {
				fresh = append(fresh, k)
			}
		}
		if len(fresh) == 0 && sub.j.watchVersion() > 0 {
			return true // duplicate ingests only; nothing to publish
		}
	}

	ctx := sub.s.baseCtx
	if sub.s.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, sub.s.cfg.JobTimeout)
		defer cancel()
	}
	// The empty-key case matters: a retry after a failed publish comes back
	// with an advanced checkpoint that already covers every matching key,
	// and corpus.Source with zero keys means "the whole corpus" — which
	// would fold every other app's traces into this subscription's
	// checkpoint. Feed an explicitly empty source instead; InferIncremental
	// then republishes the checkpoint's stored result.
	var src core.KeyedSource = core.KeyedSlice(nil)
	if len(fresh) > 0 {
		src = sub.s.corpus.Source(fresh...)
	}
	res, next, err := core.InferIncremental(ctx, sub.ck, src, sub.cfg)
	if err != nil {
		sub.j.setTransientError("watch update: " + err.Error())
		return false
	}
	sub.ck = next

	// The publish key is the content address a one-shot trace_keys job
	// over the same (sorted) trace set computes — watch results and
	// one-shot results share cache entries.
	key := JobKey(JobSpec{TraceKeys: keys}, sub.cfg)
	body, err := marshalResult(key, res)
	if err != nil {
		sub.j.setTransientError("watch update: " + err.Error())
		return false
	}
	sub.s.cache.Put(key, body)
	if cl := sub.s.cluster; cl != nil {
		// Offer the fresh result to the key's owning peers so cluster-wide
		// watchers and one-shot submitters hit without re-solving.
		cl.PublishResult(key, body)
	}
	sub.j.publish(key)
	sub.s.watchUpdates.Inc()
	return true
}

// watchVersion reads the job's published-version counter.
func (j *Job) watchVersion() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.version
}

// notifySubscriptions wakes every subscription bound to app. Runs on the
// ingesting goroutine (corpus OnIngest hook), after the blob is renamed
// into place.
func (s *Server) notifySubscriptions(entry store.Entry) {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	for _, sub := range s.subs {
		if sub.app == entry.App {
			sub.wake()
		}
	}
}

// addSubscription registers a subscription if the cap allows, returning
// false at the limit.
func (s *Server) addSubscription(sub *subscription) bool {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	if len(s.subs) >= maxSubscriptions {
		return false
	}
	s.subs[sub.j.ID] = sub
	s.watchActive.Set(int64(len(s.subs)))
	s.subWG.Add(1)
	return true
}

// subDone unregisters a finished subscription (deferred by run).
func (s *Server) subDone(sub *subscription) {
	s.subMu.Lock()
	delete(s.subs, sub.j.ID)
	s.watchActive.Set(int64(len(s.subs)))
	s.subMu.Unlock()
	s.subWG.Done()
}

// handleJobWatch long-polls a job until it publishes a version greater
// than ?after or reaches a terminal state, whichever comes first; at
// ?timeout (default 30s, capped at 60s) it returns the current view so
// clients loop. It is the API's only way to wait on a job.
func (s *Server) handleJobWatch(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, CodeNotFound, "unknown job id")
		return
	}
	after, err := parseUintParam(r, "after", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidArgument, err.Error())
		return
	}
	timeoutSec, err := parseUintParam(r, "timeout", 30)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidArgument, err.Error())
		return
	}
	if timeoutSec > 60 {
		timeoutSec = 60
	}
	deadline := time.After(time.Duration(timeoutSec) * time.Second)
	for {
		version, status, updated := j.watchState()
		if version > after || status.terminal() {
			writeJSON(w, http.StatusOK, j.view())
			return
		}
		var updateCh <-chan struct{}
		if updated != nil {
			updateCh = updated // nil for one-shot jobs: rely on done
		}
		select {
		case <-updateCh:
		case <-j.Done():
		case <-deadline:
			writeJSON(w, http.StatusOK, j.view())
			return
		case <-r.Context().Done():
			return
		case <-s.drainCh:
			// Draining: answer with the current view immediately so the
			// connection closes and Shutdown does not wait out the poll.
			writeJSON(w, http.StatusOK, j.view())
			return
		}
	}
}

// parseUintParam reads an unsigned integer query parameter with a default.
func parseUintParam(r *http.Request, name string, def uint64) (uint64, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %q parameter: %v", name, err)
	}
	return v, nil
}
