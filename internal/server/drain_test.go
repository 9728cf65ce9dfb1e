// Drain hygiene: a graceful shutdown must tear down every goroutine the
// server spawned — workers, watch subscriptions (and their backoff
// timers), long-poll handlers — so a process hosting several servers
// over its lifetime (tests, benchmarks, embedded daemons) does not
// accumulate leaked goroutines.
package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// goroutinesStable samples the goroutine count until it stops above the
// limit or the deadline passes, returning the final count. GC between
// samples nudges finalizer-held goroutines along.
func goroutinesStable(limit int, deadline time.Duration) int {
	end := time.Now().Add(deadline)
	n := runtime.NumGoroutine()
	for n > limit && time.Now().Before(end) {
		runtime.GC()
		time.Sleep(20 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestShutdownLeavesNoGoroutines exercises the full goroutine surface —
// watch subscriptions with armed retry backoff, long-poll watchers and
// workers with completed jobs — then shuts down and asserts the goroutine
// count returns to its pre-server baseline.
func TestShutdownLeavesNoGoroutines(t *testing.T) {
	baseline := goroutinesStable(0, time.Second)

	cfg := fastConfig()
	cfg.CorpusDir = t.TempDir()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())

	// A couple of completed one-shot jobs keep the worker pool honest.
	resp, v := postJob(t, ts.URL, map[string]any{"app": "App-1", "max_steps": 200})
	resp.Body.Close()
	waitDone(t, ts.URL, v.ID)

	// Watch subscriptions: one that publishes (matching ingest) and one
	// idle forever. The publishing one also exercises the checkpoint path.
	traces := captureAppTraces(t, "App-2", 2)
	for _, tr := range traces {
		uploadTraceT(t, ts.URL, tr)
	}
	watchIDs := make([]string, 0, 2)
	for _, app := range []string{"App-2", "App-3"} {
		resp, wv := postJob(t, ts.URL, map[string]any{"watch_app": app, "max_steps": 200})
		resp.Body.Close()
		watchIDs = append(watchIDs, wv.ID)
	}
	// Wait for the App-2 watch to publish at least once.
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, body := getBody(t, ts.URL+"/v1/jobs/"+watchIDs[0])
		if strings.Contains(string(body), `"version":`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("watch job never published: %s", body)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Park long-poll watchers on the idle subscription; they must be
	// released by drain, not by their own 60s timeouts.
	pollDone := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Get(ts.URL + "/v1/jobs/" + watchIDs[1] + "/watch?timeout=60&after=100")
			if err == nil {
				resp.Body.Close()
			}
			pollDone <- err
		}()
	}
	time.Sleep(100 * time.Millisecond) // let the watchers park

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	start := time.Now()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("shutdown took %v; drain should release watchers promptly", elapsed)
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-pollDone:
			if err != nil {
				t.Fatalf("long-poll errored during drain: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("long-poll watcher still parked after shutdown")
		}
	}
	ts.Close()

	// httptest and the client transport keep a few goroutines around
	// briefly; allow small slack, but a leaked subscription loop or timer
	// per watch job would exceed it.
	const slack = 3
	if n := goroutinesStable(baseline+slack, 5*time.Second); n > baseline+slack {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		t.Fatalf("goroutines leaked: baseline %d, after shutdown %d\n%s", baseline, n, buf)
	}
}

// TestBeginDrainReleasesLongPoll asserts the drain signal alone — before
// any queue drain completes — unblocks a parked long-poll.
func TestBeginDrainReleasesLongPoll(t *testing.T) {
	s, ts := startTestServer(t, fastConfig())

	resp, wv := postJob(t, ts.URL, map[string]any{"watch_app": "App-4", "max_steps": 200})
	resp.Body.Close()

	got := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + wv.ID + "/watch?timeout=60&after=100")
		if err != nil {
			got <- -1
			return
		}
		defer resp.Body.Close()
		got <- resp.StatusCode
	}()
	time.Sleep(100 * time.Millisecond)

	s.BeginDrain()
	select {
	case code := <-got:
		if code != http.StatusOK {
			t.Fatalf("long-poll after BeginDrain: HTTP %d", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("BeginDrain did not release the long-poll")
	}
}
