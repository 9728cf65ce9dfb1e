// sherlockd client mode: submit jobs to a running daemon, wait on them,
// and fetch content-addressed results, so a fleet of CLI users shares one
// warm cache instead of each paying full trace capture + inference.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// jobView mirrors the server's job JSON (internal/server.jobView).
type jobView struct {
	ID        string `json:"id"`
	Key       string `json:"key"`
	Status    string `json:"status"`
	Cached    bool   `json:"cached"`
	Version   uint64 `json:"version,omitempty"`
	WatchApp  string `json:"watch_app,omitempty"`
	Error     string `json:"error,omitempty"`
	ResultURL string `json:"result_url,omitempty"`
	WatchURL  string `json:"watch_url,omitempty"`
}

// submitSpec mirrors the server's JobSpec.
type submitSpec struct {
	App       string   `json:"app,omitempty"`
	TraceKeys []string `json:"trace_keys,omitempty"`
	WatchApp  string   `json:"watch_app,omitempty"`
	StaticApp string   `json:"static_app,omitempty"`
	Rounds    int      `json:"rounds,omitempty"`
	Lambda    float64  `json:"lambda,omitempty"`
	Near      int64    `json:"near,omitempty"`
	Seed      int64    `json:"seed,omitempty"`
}

// apiError renders a failed response: sherlockd v1 errors arrive as
// {"error":{"code","message"}}; anything else is shown raw.
func apiError(op, status string, body []byte) error {
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err == nil && env.Error.Code != "" {
		return fmt.Errorf("%s: %s: %s (%s)", op, status, env.Error.Message, env.Error.Code)
	}
	return fmt.Errorf("%s: %s: %s", op, status, strings.TrimSpace(string(body)))
}

// watchJob follows a job's published versions via the long-poll endpoint,
// printing a line (and the result summary) per version until the job
// terminates or ctx is canceled.
func watchJob(ctx context.Context, base, id string, after uint64) error {
	for {
		v, err := longPoll(ctx, base, id, after)
		if err != nil {
			return err
		}
		if v.Version > after {
			after = v.Version
			fmt.Printf("job %s  version %d  key %s\n", v.ID, v.Version, v.Key)
			if err := printServerResult(ctx, base, v.Key); err != nil {
				return err
			}
		}
		if terminal(v.Status) {
			fmt.Printf("job %s  status %s\n", v.ID, v.Status)
			if v.Status == "failed" {
				return fmt.Errorf("job %s failed: %s", v.ID, v.Error)
			}
			return nil
		}
	}
}

// longPoll makes one GET /v1/jobs/{id}/watch request: the server answers
// once the job publishes a version past after or terminates, or with the
// current view after 30 s, so callers loop until they see what they want.
func longPoll(ctx context.Context, base, id string, after uint64) (*jobView, error) {
	url := fmt.Sprintf("%s/v1/jobs/%s/watch?after=%d&timeout=30", base, id, after)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, apiError("watch "+id, resp.Status, body)
	}
	var v jobView
	if err := json.Unmarshal(body, &v); err != nil {
		return nil, fmt.Errorf("watch %s: bad response: %w", id, err)
	}
	return &v, nil
}

// terminal reports whether a job status is final.
func terminal(status string) bool {
	return status == "done" || status == "failed" || status == "canceled"
}

// listJobs prints GET /v1/jobs, following pagination cursors, optionally
// filtered by status.
func listJobs(ctx context.Context, base, status string) error {
	after := ""
	n := 0
	for {
		url := base + "/v1/jobs?limit=100"
		if status != "" {
			url += "&status=" + status
		}
		if after != "" {
			url += "&after=" + after
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return apiError("list jobs", resp.Status, body)
		}
		var lv struct {
			Jobs      []jobView `json:"jobs"`
			NextAfter string    `json:"next_after"`
		}
		if err := json.Unmarshal(body, &lv); err != nil {
			return fmt.Errorf("list jobs: bad response: %w", err)
		}
		for _, v := range lv.Jobs {
			line := fmt.Sprintf("%s  %-9s", v.ID, v.Status)
			if v.WatchApp != "" {
				line += fmt.Sprintf("  watch %s v%d", v.WatchApp, v.Version)
			}
			if v.Key != "" {
				line += "  key " + v.Key
			}
			fmt.Println(line)
			n++
		}
		if lv.NextAfter == "" {
			break
		}
		after = lv.NextAfter
	}
	fmt.Printf("%d jobs\n", n)
	return nil
}

// postSpec POSTs a job spec and decodes the created job view.
func postSpec(ctx context.Context, base string, spec submitSpec) (*jobView, error) {
	buf, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(buf))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return nil, apiError("submit", resp.Status, body)
	}
	var v jobView
	if err := json.Unmarshal(body, &v); err != nil {
		return nil, fmt.Errorf("submit: bad response: %w", err)
	}
	return &v, nil
}

// postJobSpec is the submit/wait/print path behind `sherlock submit`. Any
// node of a cluster accepts it: the server proxies the job to its content
// key's ring owner. With wait set, a one-shot job is waited on and its
// result printed; a watch job is followed version by version like
// `sherlock watch`.
func postJobSpec(ctx context.Context, base string, spec submitSpec, wait bool) error {
	v, err := postSpec(ctx, base, spec)
	if err != nil {
		return err
	}
	if spec.WatchApp != "" {
		fmt.Printf("job %s  status %s  watching app %s\n", v.ID, v.Status, spec.WatchApp)
		if !wait {
			return nil
		}
		return watchJob(ctx, base, v.ID, 0)
	}
	fmt.Printf("job %s  key %s  status %s  cached %v\n", v.ID, v.Key, v.Status, v.Cached)
	if !wait {
		return nil
	}
	for !terminal(v.Status) {
		if v, err = longPoll(ctx, base, v.ID, v.Version); err != nil {
			return err
		}
	}
	if v.Status != "done" {
		return fmt.Errorf("job %s ended %s: %s", v.ID, v.Status, v.Error)
	}
	return printServerResult(ctx, base, v.Key)
}

func jobStatus(ctx context.Context, base, id string) (*jobView, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, apiError("status "+id, resp.Status, body)
	}
	var v jobView
	if err := json.Unmarshal(body, &v); err != nil {
		return nil, err
	}
	return &v, nil
}

// printJobStatus is the -status entrypoint.
func printJobStatus(ctx context.Context, base, id string) error {
	v, err := jobStatus(ctx, base, id)
	if err != nil {
		return err
	}
	fmt.Printf("job %s  key %s  status %s  cached %v\n", v.ID, v.Key, v.Status, v.Cached)
	if v.Error != "" {
		fmt.Printf("error: %s\n", v.Error)
	}
	return nil
}

// printServerResult fetches GET /v1/results/{key} and prints the inferred
// operations (the -result entrypoint).
func printServerResult(ctx context.Context, base, key string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/results/"+key, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError("result "+key, resp.Status, body)
	}
	return printResultEnvelope(body)
}

// printResultEnvelope renders a served result body (campaign or static
// report — the latter carries a program hash).
func printResultEnvelope(body []byte) error {
	var env struct {
		Key         string `json:"key"`
		App         string `json:"app"`
		ProgramHash string `json:"program_hash"`
		Result      struct {
			Inferred []struct {
				Key  string  `json:"Key"`
				Role int     `json:"Role"`
				Prob float64 `json:"Prob"`
			} `json:"Inferred"`
		} `json:"result"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return fmt.Errorf("result: bad body: %w", err)
	}
	fmt.Printf("%s: %d inferred operations (key %s)\n", env.App, len(env.Result.Inferred), env.Key)
	if env.ProgramHash != "" {
		fmt.Printf("static report, program hash %s\n", env.ProgramHash)
	}
	for _, s := range env.Result.Inferred {
		role := "acquire"
		if s.Role != 0 {
			role = "release"
		}
		fmt.Printf("  %-8s %-60s p=%.2f\n", role, s.Key, s.Prob)
	}
	return nil
}

// printClusterInfo renders GET /v1/cluster/info: membership, liveness,
// and placement parameters of the daemon's cluster.
func printClusterInfo(ctx context.Context, base string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/cluster/info", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return fmt.Errorf("cluster: %s is not running in cluster mode", base)
	}
	if resp.StatusCode != http.StatusOK {
		return apiError("cluster", resp.Status, body)
	}
	var info struct {
		Node     string `json:"node"`
		Replicas int    `json:"replicas"`
		Peers    []struct {
			ID   string `json:"id"`
			URL  string `json:"url"`
			Self bool   `json:"self"`
			Up   bool   `json:"up"`
		} `json:"peers"`
	}
	if err := json.Unmarshal(body, &info); err != nil {
		return fmt.Errorf("cluster: bad body: %w", err)
	}
	fmt.Printf("node %s, %d members, %d replicas per key\n", info.Node, len(info.Peers), info.Replicas)
	for _, p := range info.Peers {
		state := "up"
		if !p.Up {
			state = "DOWN"
		}
		tag := ""
		if p.Self {
			tag = "  (this node)"
		}
		fmt.Printf("  %-12s %-28s %s%s\n", p.ID, p.URL, state, tag)
	}
	return nil
}
