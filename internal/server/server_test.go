package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sherlock/internal/apps"
	"sherlock/internal/sched"
)

// fastConfig is a server config sized for tests: small pool, 1-round
// campaigns so an App-1 job finishes in well under a second.
func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.Workers = 2
	cfg.QueueSize = 8
	cfg.CacheCapacity = 16
	cfg.JobTimeout = time.Minute
	cfg.Inference.Rounds = 1
	return cfg
}

func startTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.CorpusDir == "" {
		cfg.CorpusDir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJob(t *testing.T, base string, spec any) (*http.Response, jobView) {
	t.Helper()
	buf, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v jobView
	body, _ := io.ReadAll(resp.Body)
	_ = json.Unmarshal(body, &v)
	return resp, v
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func waitDone(t *testing.T, base, id string) jobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, body := getBody(t, base+"/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("job status %s: HTTP %d: %s", id, code, body)
		}
		var v jobView
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		switch v.Status {
		case "done":
			return v
		case "failed", "canceled":
			t.Fatalf("job %s ended %s: %s", id, v.Status, v.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return jobView{}
}

// TestServerColdThenCacheHit is the acceptance flow: a cold submission
// runs inference; resubmitting the identical spec is answered from the
// cache — same content key, byte-identical result body, no execution —
// and /metrics reflects the hit.
func TestServerColdThenCacheHit(t *testing.T) {
	s, ts := startTestServer(t, fastConfig())
	spec := map[string]any{"app": "App-1"}

	resp, v := postJob(t, ts.URL, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cold submit: HTTP %d, want 202", resp.StatusCode)
	}
	if v.Cached {
		t.Fatal("cold submit reported cached")
	}
	final := waitDone(t, ts.URL, v.ID)
	code, coldBody := getBody(t, ts.URL+"/v1/results/"+final.Key)
	if code != http.StatusOK {
		t.Fatalf("cold result: HTTP %d", code)
	}
	if !strings.Contains(string(coldBody), `"Inferred"`) {
		t.Fatalf("cold result body lacks inference payload: %.200s", coldBody)
	}

	// Resubmission: instant 200, cached flag, same key.
	resp2, v2 := postJob(t, ts.URL, spec)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("resubmit: HTTP %d, want 200", resp2.StatusCode)
	}
	if !v2.Cached || v2.Status != "done" {
		t.Fatalf("resubmit: cached=%v status=%s, want cached done", v2.Cached, v2.Status)
	}
	if v2.Key != final.Key {
		t.Fatalf("resubmit key %s != cold key %s", v2.Key, final.Key)
	}
	_, hitBody := getBody(t, ts.URL+"/v1/results/"+v2.Key)
	if !bytes.Equal(coldBody, hitBody) {
		t.Fatal("cache hit body is not byte-identical to the cold run")
	}
	// Exactly one execution happened.
	if got := s.jobsDone.Value(); got != 1 {
		t.Fatalf("jobs done = %d, want 1 (hit must not re-run)", got)
	}

	// /metrics reflects the hit (and the pivots the campaign spent).
	code, metrics := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", code)
	}
	for _, want := range []string{
		"sherlock_cache_hits_total 1",
		"sherlock_cache_misses_total 1",
		`sherlock_jobs_total{status="done"} 1`,
		"sherlock_cache_entries 1",
		"# TYPE sherlock_job_duration_seconds histogram",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if !strings.Contains(string(metrics), "sherlock_lp_pivots_total") ||
		strings.Contains(string(metrics), "sherlock_lp_pivots_total 0\n") {
		t.Error("/metrics should report nonzero LP pivots after a campaign")
	}
}

// TestServerSeedsAddressDistinctEntries: different seeds are different
// content, so they must not collide in the cache.
func TestServerDistinctSeedsMiss(t *testing.T) {
	_, ts := startTestServer(t, fastConfig())
	_, v1 := postJob(t, ts.URL, map[string]any{"app": "App-1", "seed": 1})
	waitDone(t, ts.URL, v1.ID)
	resp, v2 := postJob(t, ts.URL, map[string]any{"app": "App-1", "seed": 2})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("different seed: HTTP %d, want 202 (fresh run)", resp.StatusCode)
	}
	if v2.Key == v1.Key {
		t.Fatal("different seeds produced the same content key")
	}
	waitDone(t, ts.URL, v2.ID)
}

func TestServerBackpressure429(t *testing.T) {
	cfg := fastConfig()
	cfg.Workers = 1
	cfg.QueueSize = 1
	s, ts := startTestServer(t, cfg)

	// Replace the executor with a gated one BEFORE submitting anything.
	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	s.exec = func(ctx context.Context, j *Job) ([]byte, error) {
		started <- struct{}{}
		select {
		case <-gate:
			return []byte("{}"), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

	_, v1 := postJob(t, ts.URL, map[string]any{"app": "App-1", "seed": 101})
	<-started // occupies the worker
	resp2, _ := postJob(t, ts.URL, map[string]any{"app": "App-1", "seed": 102})
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: HTTP %d, want 202 (fills queue)", resp2.StatusCode)
	}
	resp3, _ := postJob(t, ts.URL, map[string]any{"app": "App-1", "seed": 103})
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit: HTTP %d, want 429", resp3.StatusCode)
	}
	if ra := resp3.Header.Get("Retry-After"); ra == "" {
		t.Error("429 response lacks Retry-After")
	}
	close(gate)
	waitDone(t, ts.URL, v1.ID)

	_, metrics := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(string(metrics), "sherlock_jobs_rejected_total 1") {
		t.Errorf("metrics should count the rejection:\n%.400s", metrics)
	}
}

func TestServerCancelEndpoint(t *testing.T) {
	cfg := fastConfig()
	cfg.Workers = 1
	s, ts := startTestServer(t, cfg)
	started := make(chan struct{}, 1)
	s.exec = func(ctx context.Context, j *Job) ([]byte, error) {
		started <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	}
	_, v := postJob(t, ts.URL, map[string]any{"app": "App-1", "seed": 201})
	<-started
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, body := getBody(t, ts.URL+"/v1/jobs/"+v.ID)
		if code != http.StatusOK {
			t.Fatalf("HTTP %d: %s", code, body)
		}
		var jv jobView
		_ = json.Unmarshal(body, &jv)
		if jv.Status == "canceled" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s after cancel", jv.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestServerBadRequests(t *testing.T) {
	_, ts := startTestServer(t, fastConfig())
	cases := []struct {
		name string
		spec any
	}{
		{"empty spec", map[string]any{}},
		{"unknown app", map[string]any{"app": "App-99"}},
		{"app and traces", map[string]any{"app": "App-1", "traces": []string{"x"}}},
		{"garbage trace", map[string]any{"traces": []string{"not json lines"}}},
		{"bad effective config", map[string]any{"app": "App-1", "rounds": -3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, _ := postJob(t, ts.URL, tc.spec)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("HTTP %d, want 400", resp.StatusCode)
			}
		})
	}
	if code, _ := getBody(t, ts.URL+"/v1/jobs/job-999999"); code != http.StatusNotFound {
		t.Errorf("unknown job: HTTP %d, want 404", code)
	}
	if code, _ := getBody(t, ts.URL+"/v1/results/deadbeef"); code != http.StatusNotFound {
		t.Errorf("unknown result: HTTP %d, want 404", code)
	}
}

// TestServerTraceJob round-trips the offline path from a JSONL trace
// document (the format the removed inline "traces" field carried): the
// document is uploaded to the corpus, solved by its key, and the job is
// content-addressed like any other.
func TestServerTraceJob(t *testing.T) {
	_, ts := startTestServer(t, fastConfig())
	resp, body := doReq(t, "POST", ts.URL+"/v1/traces", captureTraceDoc(t))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("trace upload: HTTP %d %s, want 201", resp.StatusCode, body)
	}
	var up uploadView
	if err := json.Unmarshal(body, &up); err != nil {
		t.Fatal(err)
	}
	spec := map[string]any{"trace_keys": []string{up.Key}}
	resp, v := postJob(t, ts.URL, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("trace submit: HTTP %d, want 202", resp.StatusCode)
	}
	final := waitDone(t, ts.URL, v.ID)
	code, body := getBody(t, ts.URL+"/v1/results/"+final.Key)
	if code != http.StatusOK || !strings.Contains(string(body), `"result"`) {
		t.Fatalf("trace result: HTTP %d body %.200s", code, body)
	}
	// Identical trace content hits the cache.
	resp2, v2 := postJob(t, ts.URL, spec)
	if resp2.StatusCode != http.StatusOK || !v2.Cached {
		t.Fatalf("trace resubmit: HTTP %d cached=%v, want 200 cached", resp2.StatusCode, v2.Cached)
	}
}

func TestServerHealthzAndDrain(t *testing.T) {
	s, ts := startTestServer(t, fastConfig())
	code, body := getBody(t, ts.URL+"/healthz")
	if code != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("healthz: HTTP %d %s", code, body)
	}

	// Run one job so drain has something to have finished.
	_, v := postJob(t, ts.URL, map[string]any{"app": "App-1", "seed": 301})
	waitDone(t, ts.URL, v.ID)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// Draining refuses new submissions with 503 and reports via healthz.
	resp, _ := postJob(t, ts.URL, map[string]any{"app": "App-1", "seed": 302})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while drained: HTTP %d, want 503", resp.StatusCode)
	}
	code, body = getBody(t, ts.URL+"/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(string(body), "draining") {
		t.Fatalf("healthz while drained: HTTP %d %s", code, body)
	}
}

// TestServerShutdownDrainsInFlight: jobs already admitted finish before
// Shutdown returns (the SIGTERM path minus the signal).
func TestServerShutdownDrainsInFlight(t *testing.T) {
	cfg := fastConfig()
	cfg.Workers = 1
	s, ts := startTestServer(t, cfg)
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	s.exec = func(ctx context.Context, j *Job) ([]byte, error) {
		started <- struct{}{}
		<-gate
		return []byte(`{"drained":true}`), nil
	}
	_, v := postJob(t, ts.URL, map[string]any{"app": "App-1", "seed": 401})
	<-started

	done := make(chan error, 1)
	go func() { done <- s.Shutdown(context.Background()) }()
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned before in-flight job finished: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	j := s.lookup(v.ID)
	if j == nil || j.Status() != StatusDone {
		t.Fatalf("in-flight job not drained to done: %+v", j)
	}
}

// captureTraceDoc produces one JSONL trace document from App-1's first
// test, via the real scheduler.
func captureTraceDoc(t *testing.T) string {
	t.Helper()
	app, err := apps.ByName("App-1")
	if err != nil {
		t.Fatal(err)
	}
	run, err := sched.Run(app, app.Tests[0], sched.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := run.Trace.Write(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}
