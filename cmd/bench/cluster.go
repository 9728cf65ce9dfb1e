// Cluster scaling benchmark: boot in-process sherlockd clusters of 1, 2,
// and 4 nodes (real TCP listeners, real routing) and drive each with the
// same zipfian cache-miss workload — thousands of requests over a
// keyspace deliberately larger than one node's result cache. On one node
// the LRU thrashes its tail and keeps recomputing; in a cluster,
// consistent hashing partitions the keyspace so the AGGREGATE cache
// holds everything and the steady state is cache hits plus cheap
// cross-node hops. That is the scaling story this benchmark certifies
// (the host may well have a single CPU, so parallel compute contributes
// nothing — all speedup must come from not recomputing).
//
// Every request is an offline solve over the same uploaded trace set
// with a distinct seed override: the seed is hashed into the content key
// (distinct cache entries) but does not change the offline solve itself
// (uniform compute cost). The key index is drawn zipfian with a large
// rank offset v (P(k) ∝ 1/(v+k)^s): s shapes the curve, v bounds the
// head-to-tail probability ratio to roughly ((v+keys)/v)^s. Without the
// offset the head is so heavy that one node's LRU already holds most of
// the mass and extra nodes add nothing; with v ≈ keys the tail carries
// real weight and only aggregate capacity can stop the recomputes.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"regexp"
	"strconv"
	"sync"
	"time"

	"sherlock/internal/apps"
	"sherlock/internal/cluster"
	"sherlock/internal/sched"
	"sherlock/internal/server"
	"sherlock/internal/store"
)

// The workload knobs, recorded verbatim in the output's workload block.
const (
	clusterClients  = 24
	clusterRequests = 6000        // total, per cluster size
	clusterKeys     = 600         // distinct content keys in the zipfian keyspace
	clusterCacheCap = 200         // result cache entries per node
	clusterZipfS    = 1.02        // zipf exponent (> 1)
	clusterZipfV    = clusterKeys // rank offset: head/tail ratio ≈ 2^s
	clusterReplicas = 2
)

// clusterWorkload is the knob block, recorded verbatim in the output.
type clusterWorkload struct {
	Clients   int     `json:"clients"`
	Requests  int     `json:"requests"` // total, per cluster size
	Keys      int     `json:"keys"`     // distinct content keys (seed values)
	CacheCap  int     `json:"cache_capacity_per_node"`
	ZipfS     float64 `json:"zipf_s"`
	ZipfV     float64 `json:"zipf_v"` // rank offset; large v flattens the head
	Traces    int     `json:"traces_per_job"`
	Replicas  int     `json:"replicas"`
	ComputeMs float64 `json:"single_solve_ms"` // measured cost of one cold solve
}

// clusterPoint is one cluster size's measurement.
type clusterPoint struct {
	Nodes          int     `json:"nodes"`
	WallMs         float64 `json:"wall_ms"`
	Throughput     float64 `json:"jobs_per_sec"`
	P50Ms          float64 `json:"p50_ms"`
	P95Ms          float64 `json:"p95_ms"`
	P99Ms          float64 `json:"p99_ms"`
	Computed       float64 `json:"jobs_computed"`     // cluster-wide fresh solves
	LocalHits      float64 `json:"local_cache_hits"`  // answered from the node's own cache
	RemoteHits     float64 `json:"remote_cache_hits"` // answered by a peer's cache
	Proxied        float64 `json:"proxied_jobs"`      // routed to the key's owner
	CacheHitRatio  float64 `json:"cache_hit_ratio"`   // (local+remote+proxied-computed)/requests
	CrossNodeRatio float64 `json:"cross_node_ratio"`  // (remote+proxied)/requests
	Errors         int     `json:"errors,omitempty"`  // failed requests; -gate requires 0
}

// clusterResult is the BENCH_cluster.json schema.
type clusterResult struct {
	Workload clusterWorkload `json:"workload"`
	Configs  []clusterPoint  `json:"configs"`
	Speedup  float64         `json:"speedup_4x_vs_1x"`
}

// benchNode is one in-process cluster member.
type benchNode struct {
	id  string
	url string
	srv *server.Server
	cl  *cluster.Cluster
	hs  *http.Server
	ln  net.Listener
}

func (n *benchNode) stop() {
	n.hs.Close()
	n.cl.Stop()
	n.srv.Close()
}

func (r clusterResult) gate() error {
	for _, pt := range r.Configs {
		if pt.Errors > 0 {
			return fmt.Errorf("%d of %d requests failed at %d node(s)", pt.Errors, r.Workload.Requests, pt.Nodes)
		}
	}
	if r.Speedup < clusterMinSpeedup {
		return fmt.Errorf("4-node speedup %.2fx below the %dx gate", r.Speedup, clusterMinSpeedup)
	}
	return nil
}

// benchCluster runs the 1/2/4-node sweep.
func benchCluster() (clusterResult, error) {
	res := clusterResult{Workload: clusterWorkload{
		Clients: clusterClients, Requests: clusterRequests, Keys: clusterKeys,
		CacheCap: clusterCacheCap, ZipfS: clusterZipfS, ZipfV: clusterZipfV, Replicas: clusterReplicas,
	}}

	// One shared trace set: a handful of real app traces, uploaded once
	// per cluster; every job solves all of them.
	var traceBlobs [][]byte
	for _, spec := range []struct {
		app  string
		seed int64
	}{{"App-1", 1}, {"App-2", 1}, {"App-3", 1}, {"App-4", 1}, {"App-5", 1}, {"App-6", 1}} {
		a, err := apps.ByName(spec.app)
		if err != nil {
			return res, err
		}
		for _, tc := range a.Tests {
			run, err := sched.Run(a, tc, sched.Options{Seed: spec.seed})
			if err != nil {
				return res, err
			}
			bin, err := store.EncodeTrace(run.Trace)
			if err != nil {
				return res, err
			}
			traceBlobs = append(traceBlobs, bin)
		}
	}
	res.Workload.Traces = len(traceBlobs)

	var oneNode float64
	for _, n := range []int{1, 2, 4} {
		pt, computeMs, err := benchClusterSize(n, &res.Workload, traceBlobs)
		if err != nil {
			return res, fmt.Errorf("cluster bench at %d nodes: %w", n, err)
		}
		if n == 1 {
			oneNode = pt.Throughput
			res.Workload.ComputeMs = computeMs
		}
		res.Configs = append(res.Configs, pt)
		fmt.Printf("cluster: %d node(s): %.1f jobs/s, p50 %.2fms p95 %.2fms p99 %.2fms, hit ratio %.2f, cross-node %.2f, computed %.0f\n",
			n, pt.Throughput, pt.P50Ms, pt.P95Ms, pt.P99Ms, pt.CacheHitRatio, pt.CrossNodeRatio, pt.Computed)
	}
	if oneNode > 0 {
		res.Speedup = res.Configs[len(res.Configs)-1].Throughput / oneNode
	}
	fmt.Printf("cluster: 4-node speedup over 1-node: %.2fx\n", res.Speedup)
	return res, nil
}

// benchClusterSize measures one cluster size end to end.
func benchClusterSize(n int, wl *clusterWorkload, traceBlobs [][]byte) (clusterPoint, float64, error) {
	pt := clusterPoint{Nodes: n}
	nodes, err := startBenchCluster(n, wl.CacheCap, wl.Replicas)
	if err != nil {
		return pt, 0, err
	}
	defer func() {
		for _, nd := range nodes {
			nd.stop()
		}
	}()

	// Upload the trace set to node 0; every other node pulls on demand
	// (EnsureTraces) or via fan-out/anti-entropy.
	traceKeys := make([]string, 0, len(traceBlobs))
	for _, bin := range traceBlobs {
		key, err := uploadBlob(nodes[0].url, bin)
		if err != nil {
			return pt, 0, err
		}
		traceKeys = append(traceKeys, key)
	}

	// Measure one cold solve to report the per-job compute cost.
	t0 := time.Now()
	if _, err := runJob(nodes[0].url, clusterJob(traceKeys, 1_000_000)); err != nil {
		return pt, 0, err
	}
	computeMs := float64(time.Since(t0).Microseconds()) / 1000

	// The zipfian sweep. Each client keeps its own rng (deterministic
	// per client index) and hits a uniformly random node per request:
	// clients do NOT know the ring — routing is the cluster's job.
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		lats     = make([]time.Duration, 0, wl.Requests)
		errCount int
	)
	perClient := wl.Requests / wl.Clients
	start := time.Now()
	for ci := 0; ci < wl.Clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(7_000_003*ci + 13)))
			zipf := rand.NewZipf(rng, wl.ZipfS, wl.ZipfV, uint64(wl.Keys-1))
			myLats := make([]time.Duration, 0, perClient)
			myErrs := 0
			for i := 0; i < perClient; i++ {
				seed := int64(zipf.Uint64()) + 1 // seed 0 would mean "inherit"
				url := nodes[rng.Intn(len(nodes))].url
				t := time.Now()
				if _, err := runJob(url, clusterJob(traceKeys, seed)); err != nil {
					myErrs++
					continue
				}
				myLats = append(myLats, time.Since(t))
			}
			mu.Lock()
			lats = append(lats, myLats...)
			errCount += myErrs
			mu.Unlock()
		}(ci)
	}
	wg.Wait()
	wall := time.Since(start)

	pt.WallMs = float64(wall.Microseconds()) / 1000
	pt.Throughput = float64(len(lats)) / wall.Seconds()
	ms := func(q float64) float64 { return float64(quantile(lats, q).Microseconds()) / 1000 }
	pt.P50Ms, pt.P95Ms, pt.P99Ms = ms(0.50), ms(0.95), ms(0.99)
	pt.Errors = errCount

	// Scrape the cluster-wide counters.
	for _, nd := range nodes {
		m, err := scrapeMetrics(nd.url)
		if err != nil {
			return pt, computeMs, err
		}
		pt.Computed += m["sherlock_jobs_computed_total"]
		pt.LocalHits += m["sherlock_cache_hits_total"]
		pt.RemoteHits += m["sherlock_cluster_remote_cache_hits_total"]
		pt.Proxied += m["sherlock_cluster_proxied_jobs_total"]
	}
	total := float64(len(lats)) + 1 // + the cold calibration job
	pt.CacheHitRatio = (total - pt.Computed) / total
	pt.CrossNodeRatio = (pt.RemoteHits + pt.Proxied) / total
	return pt, computeMs, nil
}

// startBenchCluster boots n members with listeners bound up front so the
// shared peer map carries real addresses.
func startBenchCluster(n, cacheCap, replicas int) ([]*benchNode, error) {
	listeners := make([]net.Listener, n)
	peers := make(map[string]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners[i] = ln
		peers[fmt.Sprintf("b%d", i)] = "http://" + ln.Addr().String()
	}
	nodes := make([]*benchNode, n)
	for i := range nodes {
		id := fmt.Sprintf("b%d", i)
		cfg := server.DefaultConfig()
		cfg.Workers = 2
		cfg.QueueSize = 256
		cfg.CacheCapacity = cacheCap
		cfg.Inference.Rounds = 1
		cfg.JobTimeout = time.Minute
		srv, err := server.New(cfg)
		if err != nil {
			return nil, err
		}
		cl, err := cluster.New(cluster.Config{
			NodeID:              id,
			Peers:               peers,
			Replicas:            replicas,
			AntiEntropyInterval: 500 * time.Millisecond,
			ProbeInterval:       250 * time.Millisecond,
			LookupTimeout:       5 * time.Second,
			ProxyTimeout:        time.Minute,
		}, srv)
		if err != nil {
			return nil, err
		}
		hs := &http.Server{Handler: cl.Handler()}
		go hs.Serve(listeners[i])
		cl.Start()
		nodes[i] = &benchNode{id: id, url: peers[id], srv: srv, cl: cl, hs: hs, ln: listeners[i]}
	}
	return nodes, nil
}

// clusterJob is an offline solve over the uploaded trace set with a seed
// override.
func clusterJob(traceKeys []string, seed int64) map[string]any {
	return map[string]any{"trace_keys": traceKeys, "seed": seed}
}

// uploadBlob posts one encoded trace and returns its corpus key.
func uploadBlob(base string, bin []byte) (string, error) {
	resp, err := http.Post(base+"/v1/traces", "application/octet-stream", bytes.NewReader(bin))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("upload: HTTP %d: %s", resp.StatusCode, body)
	}
	var v struct {
		Key string `json:"key"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return "", err
	}
	return v.Key, nil
}

var metricLine = regexp.MustCompile(`(?m)^([a-z_]+)(?:\{[^}]*\})? ([0-9.e+-]+)$`)

// scrapeMetrics fetches /metrics and sums every sample per metric name
// (labeled series collapse into their total).
func scrapeMetrics(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, m := range metricLine.FindAllStringSubmatch(string(body), -1) {
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		out[m[1]] += v
	}
	return out, nil
}
