// Serving-path benchmark: drive an in-process sherlockd over a real TCP
// socket and measure the submit→done latency of cold campaigns against
// cache-hit resubmissions, plus aggregate throughput of the cold sweep.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"sherlock/internal/server"
)

const (
	serverApp  = "App-1"
	serverJobs = 16 // cold and cache-hit submissions each
)

// serverResult is the BENCH_server.json schema. Latencies are per-job
// medians in nanoseconds; throughput is jobs per second over the whole
// cold sweep.
type serverResult struct {
	App            string  `json:"app"`
	Jobs           int     `json:"jobs"`
	Workers        int     `json:"workers"`
	ColdMedianNs   int64   `json:"cold_median_ns"`
	HitMedianNs    int64   `json:"hit_median_ns"`
	Speedup        float64 `json:"speedup"`
	ColdThroughput float64 `json:"cold_jobs_per_sec"`
	CacheHits      uint64  `json:"cache_hits"`
	CacheMisses    uint64  `json:"cache_misses"`
}

func (serverResult) gate() error { return nil }

func benchServer() (serverResult, error) {
	var res serverResult
	cfg := server.DefaultConfig()
	cfg.QueueSize = 2 * serverJobs
	cfg.CacheCapacity = 4 * serverJobs
	cfg.Inference.Rounds = 1
	srv, err := server.New(cfg)
	if err != nil {
		return res, err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	// Hits and misses are counted from each job view's cached flag.
	var hits, misses uint64

	// Cold sweep: distinct seeds => distinct content addresses => every
	// job runs a real campaign.
	coldLat := make([]time.Duration, serverJobs)
	sweep0 := time.Now()
	for i := range coldLat {
		t0 := time.Now()
		v, err := runJob(base, map[string]any{"app": serverApp, "seed": 1 + i})
		if err != nil {
			return res, fmt.Errorf("cold job %d: %w", i, err)
		}
		coldLat[i] = time.Since(t0)
		if v.Cached {
			hits++
		} else {
			misses++
		}
	}
	sweepWall := time.Since(sweep0)

	// Hit sweep: resubmit the first seed; every submission must be
	// answered from the cache.
	hitLat := make([]time.Duration, serverJobs)
	for i := range hitLat {
		t0 := time.Now()
		v, err := runJob(base, map[string]any{"app": serverApp, "seed": 1})
		if err != nil {
			return res, fmt.Errorf("hit job %d: %w", i, err)
		}
		if !v.Cached {
			return res, fmt.Errorf("hit job %d: expected a cache hit", i)
		}
		hitLat[i] = time.Since(t0)
		hits++
	}

	res = serverResult{
		App:            serverApp,
		Jobs:           serverJobs,
		Workers:        cfg.Workers,
		ColdMedianNs:   quantile(coldLat, 0.5).Nanoseconds(),
		HitMedianNs:    quantile(hitLat, 0.5).Nanoseconds(),
		ColdThroughput: serverJobs / sweepWall.Seconds(),
		CacheHits:      hits,
		CacheMisses:    misses,
	}
	res.Speedup = float64(res.ColdMedianNs) / float64(res.HitMedianNs)
	fmt.Printf("server: cold median %.2fms vs cache-hit median %.3fms: %.0fx; %.1f cold jobs/s\n",
		float64(res.ColdMedianNs)/1e6, float64(res.HitMedianNs)/1e6,
		res.Speedup, res.ColdThroughput)
	return res, nil
}

// jobView is the part of the daemon's job JSON the benchmarks read.
type jobView struct {
	ID     string `json:"id"`
	Key    string `json:"key"`
	Status string `json:"status"`
	Cached bool   `json:"cached"`
	Error  string `json:"error,omitempty"`
}

// runJob submits one job spec to base and drives it to done. It waits
// with one blocking /watch long-poll per step instead of a status loop:
// at bench rates the poll traffic itself would be a CPU tax on the
// daemon being measured. A failed or canceled job, a non-2xx answer
// (the daemon's error envelope) and a job still running after a minute
// are all errors.
func runJob(base string, spec any) (*jobView, error) {
	buf, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	v, err := decodeJob(http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(buf)))
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	deadline := time.Now().Add(time.Minute)
	for v.Status != "done" {
		if v.Status == "failed" || v.Status == "canceled" {
			return nil, fmt.Errorf("job %s ended %s: %s", v.ID, v.Status, v.Error)
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("job %s stuck in %s", v.ID, v.Status)
		}
		if v, err = decodeJob(http.Get(base + "/v1/jobs/" + v.ID + "/watch?timeout=30")); err != nil {
			return nil, fmt.Errorf("watch: %w", err)
		}
	}
	return v, nil
}

// decodeJob reads one job-endpoint response, reporting any status other
// than 200/202 with its body.
func decodeJob(resp *http.Response, err error) (*jobView, error) {
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var v jobView
	if err := json.Unmarshal(body, &v); err != nil {
		return nil, err
	}
	return &v, nil
}
