// Integration tests for watch subscriptions: upload-while-watching version
// bumps, cache coherence with one-shot corpus jobs, long-poll delivery,
// cancelation, the same publish after a server restart, and the
// GET /v1/jobs listing.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sherlock/internal/apps"
	"sherlock/internal/core"
	"sherlock/internal/sched"
	"sherlock/internal/store"
	"sherlock/internal/trace"
)

// captureAppTraces returns n distinct traces of the named app.
func captureAppTraces(t testing.TB, name string, n int) []*trace.Trace {
	t.Helper()
	app, err := apps.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	var out []*trace.Trace
	for seed := int64(1); len(out) < n; seed++ {
		for _, tc := range app.Tests {
			run, err := sched.Run(app, tc, sched.Options{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, run.Trace)
			if len(out) == n {
				break
			}
		}
	}
	return out
}

// captureApp1Traces returns n distinct App-1 traces.
func captureApp1Traces(t *testing.T, n int) []*trace.Trace {
	t.Helper()
	return captureAppTraces(t, "App-1", n)
}

// uploadTrace posts one trace in binary form and returns its corpus key.
func uploadTraceT(t *testing.T, base string, tr *trace.Trace) string {
	t.Helper()
	bin, err := store.EncodeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postBody(t, base+"/v1/traces", bin)
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: %s: %s", resp.Status, body)
	}
	var v struct {
		Key string `json:"key"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	return v.Key
}

// longPoll calls the watch endpoint and decodes the view.
func longPoll(t *testing.T, base, id string, after uint64, timeoutSec int) jobView {
	t.Helper()
	code, body := getBody(t, fmt.Sprintf("%s/v1/jobs/%s/watch?after=%d&timeout=%d", base, id, after, timeoutSec))
	if code != http.StatusOK {
		t.Fatalf("watch: HTTP %d: %s", code, body)
	}
	var v jobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	return v
}

// normalizedResult fetches /v1/results/{key} and returns the result with
// wall-clock overhead zeroed, for byte comparisons.
func normalizedResult(t *testing.T, base, key string) []byte {
	t.Helper()
	code, body := getBody(t, base+"/v1/results/"+key)
	if code != http.StatusOK {
		t.Fatalf("result %s: HTTP %d: %s", key, code, body)
	}
	var env struct {
		Key    string       `json:"key"`
		App    string       `json:"app"`
		Result *core.Result `json:"result"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	env.Result.Overhead.RunWall = 0
	env.Result.Overhead.SolveWall = 0
	out, err := json.Marshal(env.Result)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestWatchJobStreamsVersions(t *testing.T) {
	cfg := fastConfig()
	cfg.CorpusDir = t.TempDir()
	s, ts := startTestServer(t, cfg)
	traces := captureApp1Traces(t, 2)

	// Subscribe BEFORE any matching trace exists.
	resp, watch := postJob(t, ts.URL, map[string]any{"watch_app": "App-1"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("watch submit: HTTP %d", resp.StatusCode)
	}
	if watch.Status != string(StatusWatching) || watch.Version != 0 {
		t.Fatalf("fresh watch job: status %s version %d, want watching/0", watch.Status, watch.Version)
	}

	// A short long-poll with nothing to report returns the current view.
	v := longPoll(t, ts.URL, watch.ID, 0, 1)
	if v.Version != 0 || v.Status != string(StatusWatching) {
		t.Fatalf("idle long-poll: status %s version %d", v.Status, v.Version)
	}

	// First upload: version 1.
	key1 := uploadTraceT(t, ts.URL, traces[0])
	v = longPoll(t, ts.URL, watch.ID, 0, 30)
	if v.Version != 1 {
		t.Fatalf("after first upload: version %d, want 1 (status %s, err %q)", v.Version, v.Status, v.Error)
	}
	if v.Key == "" || v.ResultURL == "" {
		t.Fatalf("published view lacks key/result_url: %+v", v)
	}

	// Cache coherence: a one-shot corpus job over the same trace set must
	// address the same content key and be answered from the cache the
	// subscription filled.
	oneShotResp, oneShot := postJob(t, ts.URL, map[string]any{"trace_keys": []string{key1}})
	if oneShotResp.StatusCode != http.StatusOK || !oneShot.Cached {
		t.Fatalf("one-shot corpus job should cache-hit the watch result: HTTP %d cached=%v", oneShotResp.StatusCode, oneShot.Cached)
	}
	if oneShot.Key != v.Key {
		t.Fatalf("one-shot key %s != watch key %s", oneShot.Key, v.Key)
	}

	// Second upload: version 2, and the published result is byte-identical
	// (modulo wall clock) to a from-scratch offline solve over both traces.
	key2 := uploadTraceT(t, ts.URL, traces[1])
	v = longPoll(t, ts.URL, watch.ID, 1, 30)
	if v.Version != 2 {
		t.Fatalf("after second upload: version %d, want 2 (err %q)", v.Version, v.Error)
	}
	got := normalizedResult(t, ts.URL, v.Key)

	jcfg := JobSpec{}.effectiveConfig(cfg.Inference)
	want, err := core.InferFromSource(context.Background(), s.corpus.Source(), jcfg)
	if err != nil {
		t.Fatal(err)
	}
	want.Overhead.RunWall = 0
	want.Overhead.SolveWall = 0
	wantB, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(wantB) {
		t.Errorf("watch result differs from from-scratch solve\n got: %s\nwant: %s", got, wantB)
	}
	_ = key2

	// Duplicate upload: no new version (poll with a short timeout).
	uploadTraceT(t, ts.URL, traces[0])
	v = longPoll(t, ts.URL, watch.ID, 2, 1)
	if v.Version != 2 {
		t.Fatalf("duplicate upload bumped version to %d", v.Version)
	}

	// Cancel: the subscription stops and the job terminates.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+watch.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		v = longPoll(t, ts.URL, watch.ID, 2, 1)
		if v.Status == string(StatusCanceled) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("watch job stuck in %s after cancel", v.Status)
		}
	}
	s.subMu.Lock()
	nsubs := len(s.subs)
	s.subMu.Unlock()
	if nsubs != 0 {
		t.Errorf("%d subscriptions still registered after cancel", nsubs)
	}
}

// TestWatchRestartRepublishes restarts the daemon over the same corpus
// directory and verifies a new subscription, folding the corpus from
// scratch, publishes the same content key and the same result body. The
// corpus deliberately also holds a trace of ANOTHER app, which must not
// be folded into the subscription. Checkpoints live in memory only, so
// neither daemon writes one into the corpus.
func TestWatchRestartRepublishes(t *testing.T) {
	dir := t.TempDir()
	cfg := fastConfig()
	cfg.CorpusDir = dir

	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := newTestHTTP(t, s1)
	traces := captureApp1Traces(t, 1)
	_, watch1 := postJob(t, ts1, map[string]any{"watch_app": "App-1"})
	uploadTraceT(t, ts1, traces[0])
	// A foreign-app trace in the same corpus; it must never enter the
	// App-1 subscription.
	uploadTraceT(t, ts1, captureAppTraces(t, "App-2", 1)[0])
	v1 := longPoll(t, ts1, watch1.ID, 0, 30)
	if v1.Version != 1 {
		t.Fatalf("first daemon: version %d, want 1", v1.Version)
	}
	want := normalizedResult(t, ts1, v1.Key)
	closeTestHTTP(t, s1)

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := newTestHTTP(t, s2)
	defer closeTestHTTP(t, s2)
	_, watch2 := postJob(t, ts2, map[string]any{"watch_app": "App-1"})
	v2 := longPoll(t, ts2, watch2.ID, 0, 30)
	if v2.Version != 1 {
		t.Fatalf("second daemon: version %d, want 1", v2.Version)
	}
	if v2.Key != v1.Key {
		t.Errorf("restarted key %s != original %s", v2.Key, v1.Key)
	}
	if got := normalizedResult(t, ts2, v2.Key); string(got) != string(want) {
		t.Errorf("restarted result differs from original (foreign traces folded in?)\n got: %s\nwant: %s", got, want)
	}
	if _, err := os.Stat(filepath.Join(dir, "checkpoints")); !os.IsNotExist(err) {
		t.Errorf("corpus has a checkpoints/ entry (stat err %v), want none", err)
	}
}

// newTestHTTP/closeTestHTTP manage an httptest server whose lifecycle the
// test controls explicitly (for restart scenarios).
func newTestHTTP(t *testing.T, s *Server) string {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

func closeTestHTTP(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestJobListFilterAndPagination(t *testing.T) {
	cfg := fastConfig()
	_, ts := startTestServer(t, cfg)

	// Three watch jobs (they park in the watching state) and one job that
	// fails validation-free but terminates instantly via cancel.
	var ids []string
	for i := 0; i < 3; i++ {
		_, v := postJob(t, ts.URL, map[string]any{"watch_app": fmt.Sprintf("Nothing-%d", i)})
		ids = append(ids, v.ID)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+ids[1], nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, body := getBody(t, ts.URL+"/v1/jobs/"+ids[1])
		var v jobView
		if code == http.StatusOK {
			_ = json.Unmarshal(body, &v)
		}
		if v.Status == string(StatusCanceled) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q after cancel", v.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}

	list := func(query string) jobListView {
		t.Helper()
		code, body := getBody(t, ts.URL+"/v1/jobs"+query)
		if code != http.StatusOK {
			t.Fatalf("list%s: HTTP %d: %s", query, code, body)
		}
		var lv jobListView
		if err := json.Unmarshal(body, &lv); err != nil {
			t.Fatal(err)
		}
		return lv
	}

	all := list("")
	if len(all.Jobs) != 3 || all.NextAfter != "" {
		t.Fatalf("full list: %d jobs next=%q, want 3 jobs no cursor", len(all.Jobs), all.NextAfter)
	}
	for i := 1; i < len(all.Jobs); i++ {
		if all.Jobs[i-1].ID >= all.Jobs[i].ID {
			t.Fatalf("list not in submission order: %s before %s", all.Jobs[i-1].ID, all.Jobs[i].ID)
		}
	}

	watching := list("?status=watching")
	if len(watching.Jobs) != 2 {
		t.Fatalf("status=watching: %d jobs, want 2", len(watching.Jobs))
	}
	canceled := list("?status=canceled")
	if len(canceled.Jobs) != 1 || canceled.Jobs[0].ID != ids[1] {
		t.Fatalf("status=canceled: %+v, want just %s", canceled.Jobs, ids[1])
	}

	page1 := list("?limit=2")
	if len(page1.Jobs) != 2 || page1.NextAfter != page1.Jobs[1].ID {
		t.Fatalf("page 1: %d jobs next=%q", len(page1.Jobs), page1.NextAfter)
	}
	page2 := list("?limit=2&after=" + page1.NextAfter)
	if len(page2.Jobs) != 1 || page2.NextAfter != "" {
		t.Fatalf("page 2: %d jobs next=%q, want 1 job no cursor", len(page2.Jobs), page2.NextAfter)
	}
	if page2.Jobs[0].ID != ids[2] {
		t.Fatalf("page 2 job %s, want %s", page2.Jobs[0].ID, ids[2])
	}

	if code, _ := getBody(t, ts.URL+"/v1/jobs?after=not-a-job-id"); code != http.StatusBadRequest {
		t.Fatalf("bad cursor: HTTP %d, want 400", code)
	}
}

// TestJobListPaginationBeyondPadding crosses the job-%06d zero-padding
// boundary, where lexicographic id order diverges from submission order
// ("job-1000000" < "job-999999" as strings): the cursor must paginate on
// the numeric sequence, not the id string.
func TestJobListPaginationBeyondPadding(t *testing.T) {
	cfg := fastConfig()
	s, ts := startTestServer(t, cfg)
	s.nextID.Store(999998)

	var ids []string
	for i := 0; i < 3; i++ {
		_, v := postJob(t, ts.URL, map[string]any{"watch_app": fmt.Sprintf("Pad-%d", i)})
		ids = append(ids, v.ID)
	}
	if ids[0] != "job-999999" || ids[1] != "job-1000000" {
		t.Fatalf("unexpected ids %v (id scheme changed? update this test)", ids)
	}

	list := func(query string) jobListView {
		t.Helper()
		code, body := getBody(t, ts.URL+"/v1/jobs"+query)
		if code != http.StatusOK {
			t.Fatalf("list%s: HTTP %d: %s", query, code, body)
		}
		var lv jobListView
		if err := json.Unmarshal(body, &lv); err != nil {
			t.Fatal(err)
		}
		return lv
	}

	all := list("")
	if len(all.Jobs) != 3 {
		t.Fatalf("full list: %d jobs, want 3", len(all.Jobs))
	}
	for i := range all.Jobs {
		if all.Jobs[i].ID != ids[i] {
			t.Fatalf("list out of submission order: got %s at %d, want %s", all.Jobs[i].ID, i, ids[i])
		}
	}

	page1 := list("?limit=2")
	if len(page1.Jobs) != 2 || page1.Jobs[0].ID != ids[0] || page1.Jobs[1].ID != ids[1] || page1.NextAfter != ids[1] {
		t.Fatalf("page 1: %+v next=%q, want [%s %s] next=%s", page1.Jobs, page1.NextAfter, ids[0], ids[1], ids[1])
	}
	page2 := list("?limit=2&after=" + page1.NextAfter)
	if len(page2.Jobs) != 1 || page2.Jobs[0].ID != ids[2] || page2.NextAfter != "" {
		t.Fatalf("page 2: %+v next=%q, want just %s", page2.Jobs, page2.NextAfter, ids[2])
	}
}
