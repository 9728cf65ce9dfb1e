package server

import (
	"encoding/json"
	"net/http"
	"testing"

	"sherlock/internal/apps"
	"sherlock/internal/core"
)

// TestStaticJob: a static_app job runs through the queue and serves a
// well-formed run-free report under the program-hash content key; a
// resubmission is a byte-identical cache hit with no second compute, and
// the job is the report's only way in.
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
	if env.App != "App-2" || len(env.ProgramHash) != 64 || env.Result == nil || len(env.Result.Inferred) == 0 {
		t.Fatalf("bad static envelope: app=%q hash=%q", env.App, env.ProgramHash)
	}
	if env.Result.Overhead.Events != 0 || env.Result.Overhead.RunWall != 0 {
		t.Fatalf("static report claims execution cost: %+v", env.Result.Overhead)
	}
	if _, ok := s.Cache().Get(env.Key); !ok || env.Key != done.Key {
		t.Fatalf("static report not filed in the result cache under its job key %s (envelope key %s)", done.Key, env.Key)
	}

	// Resubmission: content hit on the same key, byte-identical result.
	resp2, v2 := postJob(t, ts.URL, JobSpec{StaticApp: "App-2"})
	if resp2.StatusCode != http.StatusOK || !v2.Cached || v2.Key != done.Key {
		t.Fatalf("resubmit: code %d cached=%t key %s, want 200 cached %s", resp2.StatusCode, v2.Cached, v2.Key, done.Key)
	}
	if code2, body2 := getBody(t, ts.URL+v2.ResultURL); code2 != http.StatusOK || string(body2) != string(body) {
		t.Fatalf("resubmitted result not byte-identical (code %d)", code2)
	}
	if got := s.staticReports.Value(); got != 1 {
		t.Fatalf("static report computed %d times, want 1 (resubmission should hit the cache)", got)
	}

	if resp, _ := postJob(t, ts.URL, JobSpec{StaticApp: "no-such-app"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown app: got %d, want 400", resp.StatusCode)
	}
	if code, _ := getBody(t, ts.URL+"/v1/apps/App-2/static"); code != http.StatusNotFound {
		t.Fatalf("GET /v1/apps/{id}/static: got %d, want 404 (static reports are submitted as jobs)", code)
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
