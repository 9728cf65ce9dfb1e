// Table-driven coverage of the v1 error envelope: every error path must
// answer {"error":{"code","message"}} with the documented machine-readable
// code, and every 429/503 must carry Retry-After.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// decodeEnvelope asserts the response is a well-formed v1 error envelope
// and returns its code.
func decodeEnvelope(t *testing.T, resp *http.Response, body []byte) string {
	t.Helper()
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("error body is not the v1 envelope: %v\n%s", err, body)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("envelope missing code or message: %s", body)
	}
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("HTTP %d without Retry-After", resp.StatusCode)
		}
	}
	return env.Error.Code
}

func doReq(t *testing.T, method, url, body string) (*http.Response, []byte) {
	t.Helper()
	var rd *bytes.Reader
	if body == "" {
		rd = bytes.NewReader(nil)
	} else {
		rd = bytes.NewReader([]byte(body))
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := new(bytes.Buffer)
	_, _ = buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func TestErrorEnvelopeEveryPath(t *testing.T) {
	_, ts := startTestServer(t, fastConfig())

	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"submit bad JSON", "POST", "/v1/jobs", "{not json", http.StatusBadRequest, CodeInvalidArgument},
		{"submit empty spec", "POST", "/v1/jobs", "{}", http.StatusBadRequest, CodeInvalidArgument},
		{"submit two workloads", "POST", "/v1/jobs", `{"app":"App-1","watch_app":"App-1"}`, http.StatusBadRequest, CodeInvalidArgument},
		{"submit unknown app", "POST", "/v1/jobs", `{"app":"App-99"}`, http.StatusBadRequest, CodeInvalidArgument},
		{"submit bad watch_app", "POST", "/v1/jobs", `{"watch_app":"no/slashes"}`, http.StatusBadRequest, CodeInvalidArgument},
		{"submit bad trace", "POST", "/v1/jobs", `{"traces":["not a trace"]}`, http.StatusBadRequest, CodeInvalidArgument},
		{"submit unknown trace key", "POST", "/v1/jobs", `{"trace_keys":["deadbeef"]}`, http.StatusBadRequest, CodeInvalidArgument},
		{"submit bad config", "POST", "/v1/jobs", `{"app":"App-1","rounds":-1}`, http.StatusBadRequest, CodeInvalidArgument},
		{"submit removed hybrid mode", "POST", "/v1/jobs", `{"mode":"hybrid","target":"App-1"}`, http.StatusBadRequest, CodeInvalidArgument},
		{"submit removed hybrid flag", "POST", "/v1/jobs", `{"app":"App-1","hybrid":true}`, http.StatusBadRequest, CodeInvalidArgument},
		{"job status unknown id", "GET", "/v1/jobs/job-999999", "", http.StatusNotFound, CodeNotFound},
		{"job spans unknown id", "GET", "/v1/jobs/job-999999/spans", "", http.StatusNotFound, CodeNotFound},
		{"job watch unknown id", "GET", "/v1/jobs/job-999999/watch", "", http.StatusNotFound, CodeNotFound},
		{"job cancel unknown id", "DELETE", "/v1/jobs/job-999999", "", http.StatusNotFound, CodeNotFound},
		{"result unknown key", "GET", "/v1/results/deadbeef", "", http.StatusNotFound, CodeNotFound},
		{"trace upload garbage", "POST", "/v1/traces", "garbage bytes", http.StatusBadRequest, CodeInvalidArgument},
		{"job list bad status", "GET", "/v1/jobs?status=bogus", "", http.StatusBadRequest, CodeInvalidArgument},
		{"job list bad limit", "GET", "/v1/jobs?limit=0", "", http.StatusBadRequest, CodeInvalidArgument},
		{"job list negative limit", "GET", "/v1/jobs?limit=-3", "", http.StatusBadRequest, CodeInvalidArgument},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := doReq(t, tc.method, ts.URL+tc.path, tc.body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("HTTP %d, want %d: %s", resp.StatusCode, tc.wantStatus, body)
			}
			if code := decodeEnvelope(t, resp, body); code != tc.wantCode {
				t.Errorf("code %q, want %q", code, tc.wantCode)
			}
		})
	}

	// ?after on the watch endpoint must be validated for real jobs too.
	t.Run("watch bad after", func(t *testing.T) {
		_, v := postJob(t, ts.URL, map[string]any{"watch_app": "App-1"})
		resp, body := doReq(t, "GET", ts.URL+"/v1/jobs/"+v.ID+"/watch?after=nope", "")
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("HTTP %d, want 400: %s", resp.StatusCode, body)
		}
		if code := decodeEnvelope(t, resp, body); code != CodeInvalidArgument {
			t.Errorf("code %q, want %q", code, CodeInvalidArgument)
		}
	})
}

// TestErrorEnvelopeQueueFull exercises the 429 queue_full path with a
// gated executor.
func TestErrorEnvelopeQueueFull(t *testing.T) {
	cfg := fastConfig()
	cfg.Workers = 1
	cfg.QueueSize = 1
	s, ts := startTestServer(t, cfg)
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
	_, v1 := postJob(t, ts.URL, map[string]any{"app": "App-1", "seed": 301})
	<-started
	postJob(t, ts.URL, map[string]any{"app": "App-1", "seed": 302}) // fills the queue
	resp, body := doReq(t, "POST", ts.URL+"/v1/jobs", `{"app":"App-1","seed":303}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("HTTP %d, want 429: %s", resp.StatusCode, body)
	}
	if code := decodeEnvelope(t, resp, body); code != CodeQueueFull {
		t.Errorf("code %q, want %q", code, CodeQueueFull)
	}
	close(gate)
	waitDone(t, ts.URL, v1.ID)
}

// TestErrorEnvelopeDrainingAndWatchLimit covers the 503 draining path and
// the 429 watch_limit path.
func TestErrorEnvelopeDrainingAndWatchLimit(t *testing.T) {
	s, ts := startTestServer(t, fastConfig())

	// Saturate the subscription table with placeholders.
	s.subMu.Lock()
	for i := 0; i < maxSubscriptions; i++ {
		s.subs[fmt.Sprintf("placeholder-%d", i)] = &subscription{}
	}
	s.subMu.Unlock()
	resp, body := doReq(t, "POST", ts.URL+"/v1/jobs", `{"watch_app":"App-1"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("HTTP %d, want 429: %s", resp.StatusCode, body)
	}
	if code := decodeEnvelope(t, resp, body); code != CodeWatchLimit {
		t.Errorf("code %q, want %q", code, CodeWatchLimit)
	}
	s.subMu.Lock()
	for id := range s.subs {
		if strings.HasPrefix(id, "placeholder-") {
			delete(s.subs, id)
		}
	}
	s.subMu.Unlock()

	s.draining.Store(true)
	for _, tc := range []struct{ method, path, payload string }{
		{"POST", "/v1/jobs", `{"app":"App-1"}`},
		{"POST", "/v1/traces", "x"},
	} {
		resp, body := doReq(t, tc.method, ts.URL+tc.path, tc.payload)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s %s: HTTP %d, want 503: %s", tc.method, tc.path, resp.StatusCode, body)
		}
		if code := decodeEnvelope(t, resp, body); code != CodeDraining {
			t.Errorf("%s %s: code %q, want %q", tc.method, tc.path, code, CodeDraining)
		}
	}
	s.draining.Store(false)
}
