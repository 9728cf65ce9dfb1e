package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"sherlock/internal/apps"
	"sherlock/internal/core"
	"sherlock/internal/static"
)

// TestGeneratedAppJob: a gen:<seed> name round-trips through the job API
// byte-identically to a local campaign — same content key, same result
// bytes — in both the legacy and the unified submission shapes.
func TestGeneratedAppJob(t *testing.T) {
	srvCfg := fastConfig()
	s, ts := startTestServer(t, srvCfg)

	const appName = "gen:42"
	resp, v := postJob(t, ts.URL, JobSpec{Mode: "app", Target: appName})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	done := waitDone(t, ts.URL, v.ID)
	code, body := getBody(t, ts.URL+done.ResultURL)
	if code != http.StatusOK {
		t.Fatalf("result fetch: %d", code)
	}

	// The served bytes must equal a local campaign over the same program
	// and effective config, marshaled the same way — modulo the wall-clock
	// overhead fields, the only nondeterministic part of a result.
	app, err := apps.ByName(appName)
	if err != nil {
		t.Fatal(err)
	}
	cfg := JobSpec{App: appName}.effectiveConfig(srvCfg.Inference)
	res, err := core.Infer(context.Background(), app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := marshalResult(JobKey(JobSpec{App: appName}, cfg), res)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := normalizeWall(t, body), normalizeWall(t, want); got != want {
		t.Fatalf("server result diverges from the local campaign:\n%s\nvs\n%s", got, want)
	}

	// The legacy spelling of the same job is a pure cache hit.
	resp2, v2 := postJob(t, ts.URL, JobSpec{App: appName})
	if resp2.StatusCode != http.StatusOK || !v2.Cached {
		t.Fatalf("legacy resubmit: code %d cached=%t, want 200 cached", resp2.StatusCode, v2.Cached)
	}
	if got := s.jobsComputed.Value(); got != 1 {
		t.Fatalf("campaign computed %d times, want 1", got)
	}

	// Unknown generated names keep the registry's error shape.
	resp3, _ := postJob(t, ts.URL, JobSpec{Mode: "app", Target: "gen:oops"})
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad gen name accepted: %d", resp3.StatusCode)
	}
}

// normalizeWall re-marshals a result envelope with the wall-clock
// overhead durations zeroed, leaving every deterministic byte in place.
func normalizeWall(t *testing.T, body []byte) string {
	t.Helper()
	var env resultEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	env.Result.Overhead.RunWall = 0
	env.Result.Overhead.SolveWall = 0
	out, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestGeneratedAppStaticJob: a static_app job resolves generated names
// and serves the same report a local run-free solve produces.
func TestGeneratedAppStaticJob(t *testing.T) {
	srvCfg := fastConfig()
	_, ts := startTestServer(t, srvCfg)

	const appName = "gen:7,profile=go"
	resp, v := postJob(t, ts.URL, JobSpec{StaticApp: appName})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	done := waitDone(t, ts.URL, v.ID)
	code, body := getBody(t, ts.URL+done.ResultURL)
	if code != http.StatusOK {
		t.Fatalf("result fetch: %d %s", code, body)
	}
	var env resultEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.App != appName {
		t.Fatalf("report for %q, want %q", env.App, appName)
	}
	app, err := apps.ByName(appName)
	if err != nil {
		t.Fatal(err)
	}
	wantHash, err := static.ProgramHash(app)
	if err != nil {
		t.Fatal(err)
	}
	if env.ProgramHash != wantHash {
		t.Fatalf("program hash %s, want local %s", env.ProgramHash, wantHash)
	}
	cfg := JobSpec{StaticApp: appName}.effectiveConfig(srvCfg.Inference)
	res, _, err := core.InferStatic(context.Background(), app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(env.Result.Inferred)
	want, _ := json.Marshal(res.Inferred)
	if string(got) != string(want) {
		t.Fatal("job inferred set diverges from the local static solve")
	}

	resp, body = doReq(t, "POST", ts.URL+"/v1/jobs", `{"static_app":"gen:7,profile=rust"}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "profile") {
		t.Fatalf("bad profile: got %d %s, want 400 naming the profile", resp.StatusCode, body)
	}
}
