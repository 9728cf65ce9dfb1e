package server

import (
	"encoding/json"
	"net/http"
	"testing"

	"sherlock/internal/apps"
	"sherlock/internal/core"
)

// TestStaticEndpoint: GET /v1/apps/{id}/static serves a well-formed,
// deterministic report, fills the result cache on the first call, and
// answers the second from it byte-identically.
func TestStaticEndpoint(t *testing.T) {
	s, ts := startTestServer(t, fastConfig())

	code, body := getBody(t, ts.URL+"/v1/apps/App-1/static")
	if code != http.StatusOK {
		t.Fatalf("static endpoint: %d %s", code, body)
	}
	var env resultEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.App != "App-1" || len(env.ProgramHash) != 64 || env.Result == nil || len(env.Result.Inferred) == 0 {
		t.Fatalf("bad static envelope: app=%q hash=%q", env.App, env.ProgramHash)
	}
	if env.Result.Overhead.Events != 0 || env.Result.Overhead.RunWall != 0 {
		t.Fatalf("static report claims execution cost: %+v", env.Result.Overhead)
	}
	if _, ok := s.Cache().Lookup(env.Key); !ok {
		t.Fatal("static report not filed in the result cache under its key")
	}

	code2, body2 := getBody(t, ts.URL+"/v1/apps/App-1/static")
	if code2 != http.StatusOK || string(body2) != string(body) {
		t.Fatalf("second fetch not byte-identical (code %d)", code2)
	}
	if got := s.staticReports.Value(); got != 1 {
		t.Fatalf("static report computed %d times, want 1 (second call should hit the cache)", got)
	}

	if code, _ := getBody(t, ts.URL+"/v1/apps/no-such-app/static"); code != http.StatusNotFound {
		t.Fatalf("unknown app: got %d, want 404", code)
	}
}

// TestStaticJob: a static_app job runs through the queue, lands its result
// under the same content key the GET endpoint uses, and a repeat
// submission is a cache hit.
func TestStaticJob(t *testing.T) {
	s, ts := startTestServer(t, fastConfig())

	resp, v := postJob(t, ts.URL, JobSpec{StaticApp: "App-2"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	done := waitDone(t, ts.URL, v.ID)
	if done.Status != string(StatusDone) {
		t.Fatalf("static job ended %s: %s", done.Status, done.Error)
	}

	code, body := getBody(t, ts.URL+done.ResultURL)
	if code != http.StatusOK {
		t.Fatalf("result fetch: %d", code)
	}
	var env resultEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.App != "App-2" || env.ProgramHash == "" {
		t.Fatalf("bad job envelope: %+v", env)
	}

	// The GET endpoint must be answered by the job's cache entry.
	before := s.staticReports.Value()
	code, body2 := getBody(t, ts.URL+"/v1/apps/App-2/static")
	if code != http.StatusOK || string(body2) != string(body) {
		t.Fatalf("endpoint body diverges from job result (code %d)", code)
	}
	if s.staticReports.Value() != before {
		t.Fatal("endpoint recomputed a report the job already cached")
	}

	// Resubmission: content hit, no second compute.
	resp2, v2 := postJob(t, ts.URL, JobSpec{StaticApp: "App-2"})
	if resp2.StatusCode != http.StatusOK || !v2.Cached {
		t.Fatalf("resubmit: code %d cached=%t, want 200 cached", resp2.StatusCode, v2.Cached)
	}
}

// TestStaticReportKeyStability: the report key moves with the program and
// the static-relevant config, and ignores execution-only knobs.
func TestStaticReportKeyStability(t *testing.T) {
	p, err := apps.ByName("App-1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	k1, err := StaticReportKey(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Rounds, cfg2.Seed, cfg2.Delay = 7, 99, 12345
	k2, err := StaticReportKey(p, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Error("execution knobs changed the static report key")
	}
	cfg3 := cfg
	cfg3.Solver.Lambda *= 2
	k3, err := StaticReportKey(p, cfg3)
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k3 {
		t.Error("solver config change did not move the static report key")
	}
	p2, err := apps.ByName("App-2")
	if err != nil {
		t.Fatal(err)
	}
	k4, err := StaticReportKey(p2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k4 {
		t.Error("different programs share a static report key")
	}
}
