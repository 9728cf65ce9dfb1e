package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"sync"
	"time"

	"sherlock/internal/apps"
	"sherlock/internal/cluster"
	"sherlock/internal/core"
	"sherlock/internal/gen"
	"sherlock/internal/server"
	"sherlock/internal/store"
)

// The serve workload: two sherlockd nodes in this process, clustered on
// loopback, driven by an open-loop generator on a fixed schedule.
const (
	serveNodes = 2
	// serveCachePerNode result-cache entries per node. The campaign
	// keyspace (8 apps × serveAppSeeds) is over three times the cluster's
	// aggregate cache, so the zipf tail keeps missing.
	serveCachePerNode = 48
	serveAppSeeds     = 40
	serveTraceSeeds   = 16  // trace_keys keys: 8 apps × 16 seed overrides
	serveStaticNames  = 256 // gen: names the static jobs draw from
	// serveRate is the offered load in requests per second. On a 2-CPU
	// virtual machine this mix saturated near 350/s when the host was
	// quiet, and at 150/s a run slowed by busy neighbours built a backlog
	// (p50 47 ms against 10 ms). 100/s leaves that headroom.
	serveRate = 100
	// serveLimit is the latency limit behind slo_ok_ratio, counted from
	// the time each request was due.
	serveLimit = 100 * time.Millisecond
	// serveAppSample app jobs per built-in, and serveTraceSample
	// trace_keys jobs, are checked against a local solve; precision and
	// recall score the sampled app results.
	serveAppSample   = 8
	serveTraceSample = 3
)

// Keys are drawn with P(k) ∝ (zipfV+k)^-zipfS. This skew and the request
// mix below follow no traffic source: they were chosen so that the
// figures hold still from run to run. Against the cluster's 96 cache
// entries the skew answers about three quarters of job requests from a
// cache (the traced pass reports it as server.cache_hit_ratio), so
// op_ms_p50 is a hit with room to spare and op_ms_p95 a miss; at a hit
// share near one half the median sat on the boundary and jumped between
// the two. cmd/bench's cluster workload (s=1.02, v=keys) flattens the
// head on purpose, to show aggregate-cache scaling, and is not used here.
const (
	zipfS = 1.3
	zipfV = 1
)

// Request mix, in per mille of all requests, chosen as the skew above.
const (
	mixApp       = 700
	mixTraceKeys = 150
	mixStatic    = 100 // the rest are trace uploads
)

type reqKind uint8

const (
	kindApp reqKind = iota
	kindTraceKeys
	kindStatic
	kindUpload
)

// request is one scheduled request of the open loop.
type request struct {
	kind reqKind
	node int
	due  time.Duration // offset from the start of the run
	spec server.JobSpec
	body []byte
}

// jobView is the part of the server's job record the benchmark reads.
type jobView struct {
	ID          string `json:"id"`
	Key         string `json:"key"`
	Status      string `json:"status"`
	StaticApp   string `json:"static_app"`
	Error       string `json:"error"`
	SubmittedAt string `json:"submitted_at"`
	StartedAt   string `json:"started_at"`
	FinishedAt  string `json:"finished_at"`
}

// outcome is what the generator saw for one request.
type outcome struct {
	sent, replied time.Time
	job           jobView
	err           error
}

// serveNode is one in-process cluster member.
type serveNode struct {
	url string
	srv *server.Server
	cl  *cluster.Cluster
	hs  *http.Server
}

func (n *serveNode) stop() {
	n.hs.Close()
	n.cl.Stop()
	n.srv.Close()
}

// bootCluster starts the nodes with their listeners bound first, so the
// shared peer map carries real addresses. The nodes split nproc workers
// between them (one each on a 1-CPU host).
func bootCluster(dir string) (nodes []*serveNode, err error) {
	listeners := make([]net.Listener, 0, serveNodes)
	defer func() {
		if err != nil {
			stopCluster(nodes)
			for _, ln := range listeners[len(nodes):] {
				ln.Close()
			}
		}
	}()
	peers := map[string]string{}
	for i := 0; i < serveNodes; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners = append(listeners, ln)
		peers[fmt.Sprintf("n%d", i)] = "http://" + ln.Addr().String()
	}
	for i, ln := range listeners {
		id := fmt.Sprintf("n%d", i)
		cfg := server.DefaultConfig()
		cfg.Workers = max(1, runtime.NumCPU()/serveNodes)
		cfg.QueueSize = 256
		cfg.CacheCapacity = serveCachePerNode
		cfg.JobTimeout = time.Minute
		cfg.CorpusDir = filepath.Join(dir, id)
		srv, err := server.New(cfg)
		if err != nil {
			return nodes, err
		}
		cl, err := cluster.New(cluster.Config{NodeID: id, Peers: peers, Replicas: serveNodes}, srv)
		if err != nil {
			srv.Close()
			return nodes, err
		}
		hs := &http.Server{Handler: cl.Handler()}
		go hs.Serve(ln)
		cl.Start()
		nodes = append(nodes, &serveNode{url: peers[id], srv: srv, cl: cl, hs: hs})
	}
	return nodes, nil
}

func stopCluster(nodes []*serveNode) {
	for _, n := range nodes {
		n.stop()
	}
}

// serveUploads is the size of the upload pool. A 30-s run sends about 150
// uploads; a longer run wraps around, and its repeats are dedup hits.
const serveUploads = 160

// serveKeyTests traces per app are uploaded at set-up for the trace_keys
// jobs. Each upload is written to disk on both nodes, and the file
// system's time moves with the host's disk, not with the program, so
// set-up uploads only these 32 traces.
const serveKeyTests = 4

// serveInputs are the generated inputs of one seed.
type serveInputs struct {
	traces    map[string][]keyedTrace // per app, the traces uploaded at set-up
	setupBins [][]byte                // those traces, encoded, in app order
	uploads   [][]byte                // the encoded pool the upload requests draw from
	encBytes  int64                   // bytes and time the client spent encoding
	encTime   time.Duration
	reqs      []request
	appSample []server.JobSpec
	keySample []keySample
}

// keySample is one trace_keys job checked against a local solve.
type keySample struct {
	app  string
	spec server.JobSpec
}

// captureServe captures runs of every built-in test under seeded
// scheduler seeds and encodes them as the client would to upload them. The
// first serveKeyTests traces of each app are the trace_keys traces,
// uploaded at set-up; every other trace goes to the pool the upload
// requests draw from, until it holds serveUploads.
func captureServe(ctx context.Context, seed int64) (*serveInputs, error) {
	in := &serveInputs{traces: map[string][]keyedTrace{}}
	rng := rand.New(rand.NewSource(seed))
	for len(in.uploads) < serveUploads {
		base := rng.Int63n(1 << 40)
		for _, name := range apps.Names() {
			p, err := apps.ByName(name)
			if err != nil {
				return nil, err
			}
			kts, err := captureApp(ctx, p, base)
			if err != nil {
				return nil, err
			}
			for _, kt := range kts {
				key := len(in.traces[name]) < serveKeyTests
				if !key && len(in.uploads) == serveUploads {
					break
				}
				t0 := time.Now()
				bin, err := store.EncodeTrace(kt.tr)
				in.encTime += time.Since(t0)
				if err != nil {
					return nil, err
				}
				in.encBytes += int64(len(bin))
				if key {
					in.traces[name] = append(in.traces[name], kt)
					in.setupBins = append(in.setupBins, bin)
				} else {
					in.uploads = append(in.uploads, bin)
				}
			}
		}
	}
	return in, nil
}

// serveShapeSeed draws the shape of every run's request sequence.
const serveShapeSeed = 1

// schedule draws the request sequence of a run: evenly spaced at
// serveRate, each to a uniformly random node, keys zipf-distributed. The
// shape of the sequence — kinds, nodes, key ranks, and so which requests
// miss the cache — is the same for every seed, as campaign's mix is; the
// workload seed picks the scheduler seeds the app and trace_keys jobs run
// under (and set-up's traces), so every result changes with it while the
// cost of the mix does not. It also fixes the correctness sample: the
// first serveAppSample requested seeds of every built-in app, and the
// first serveTraceSample trace_keys jobs.
func (in *serveInputs) schedule(seed int64, length time.Duration) {
	rng := rand.New(rand.NewSource(serveShapeSeed))
	names := apps.Names()
	jobSeed := func(k int) int64 { return seed<<20 + int64(k/len(names)) + 1 }
	appZipf := rand.NewZipf(rng, zipfS, zipfV, uint64(len(names)*serveAppSeeds-1))
	keyZipf := rand.NewZipf(rng, zipfS, zipfV, uint64(len(names)*serveTraceSeeds-1))
	statics := make([]string, serveStaticNames)
	for i := range statics {
		statics[i] = gen.Spec{
			Seed:    int64(i + 1),
			Profile: gen.Profiles[i%len(gen.Profiles)],
			Size:    genSizes[i/len(gen.Profiles)%len(genSizes)],
		}.Name()
	}
	staticZipf := rand.NewZipf(rng, zipfS, zipfV, uint64(len(statics)-1))
	sampled := map[string]bool{}
	perApp := map[string]int{}
	n := max(minOps, int(length.Seconds()*serveRate))
	uploads := 0
	for i := 0; i < n; i++ {
		r := request{node: rng.Intn(serveNodes), due: time.Duration(float64(i) / serveRate * float64(time.Second))}
		switch x := rng.Intn(1000); {
		case x < mixApp:
			k := int(appZipf.Uint64())
			r.kind, r.spec = kindApp, server.JobSpec{App: names[k%len(names)], Seed: jobSeed(k)}
			if id := fmt.Sprintf("%s/%d", r.spec.App, r.spec.Seed); !sampled[id] && perApp[r.spec.App] < serveAppSample {
				sampled[id] = true
				perApp[r.spec.App]++
				in.appSample = append(in.appSample, r.spec)
			}
		case x < mixApp+mixTraceKeys:
			k := int(keyZipf.Uint64())
			app := names[k%len(names)]
			r.kind, r.spec = kindTraceKeys, server.JobSpec{TraceKeys: traceKeys(in.traces[app]), Seed: jobSeed(k)}
			if len(in.keySample) < serveTraceSample && !sampled[app+"/keys"] {
				sampled[app+"/keys"] = true
				in.keySample = append(in.keySample, keySample{app, r.spec})
			}
		case x < mixApp+mixTraceKeys+mixStatic:
			r.kind, r.spec = kindStatic, server.JobSpec{StaticApp: statics[staticZipf.Uint64()]}
		default:
			r.kind, r.body = kindUpload, in.uploads[uploads%len(in.uploads)]
			uploads++
		}
		if r.kind != kindUpload {
			body, err := json.Marshal(r.spec)
			if err != nil {
				panic(err) // a JobSpec always marshals
			}
			r.body = body
		}
		in.reqs = append(in.reqs, r)
	}
}

func traceKeys(kts []keyedTrace) []string {
	out := make([]string, len(kts))
	for i, kt := range kts {
		out[i] = kt.key
	}
	return out
}

// setupServe captures the inputs, boots the cluster, uploads the
// trace_keys traces and runs one job of each kind to warm both nodes.
func setupServe(ctx context.Context, dir string, seed int64) (*serveInputs, []*serveNode, error) {
	in, err := captureServe(ctx, seed)
	if err != nil {
		return nil, nil, err
	}
	nodes, err := bootCluster(dir)
	if err != nil {
		return nil, nil, err
	}
	c := &http.Client{Timeout: time.Minute}
	for _, bin := range in.setupBins {
		if _, err := post(c, nodes[0].url+"/v1/traces", "application/octet-stream", bin); err != nil {
			stopCluster(nodes)
			return nil, nil, fmt.Errorf("upload: %w", err)
		}
	}
	warm := []server.JobSpec{
		{App: "App-8", Seed: 1_000_001},
		{TraceKeys: traceKeys(in.traces["App-8"]), Seed: 1_000_001},
		{StaticApp: "gen:1"},
	}
	for i, spec := range warm {
		if _, err := runJob(c, nodes[i%serveNodes].url, spec); err != nil {
			stopCluster(nodes)
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return in, nodes, nil
}

func runServe(ctx context.Context, o options) (*report, error) {
	var e endToEnd
	var in *serveInputs
	var nodes []*serveNode
	for i := 0; i < setupReps; i++ {
		if nodes != nil {
			stopCluster(nodes)
			in, nodes = nil, nil
		}
		runtime.GC() // each set-up starts from the same heap
		w := startWatch()
		var err error
		in, nodes, err = setupServe(ctx, filepath.Join(o.workDir, fmt.Sprintf("setup-%d", i)), o.seed)
		if err != nil {
			return nil, err
		}
		e.setup(w)
	}
	defer stopCluster(nodes)
	in.schedule(o.seed, o.length)
	rep := &report{record: map[string]any{
		"rate_per_s":       serveRate,
		"latency_limit_ms": ms(serveLimit),
		"nodes":            serveNodes,
		"workers_per_node": max(1, runtime.NumCPU()/serveNodes),
		"requests":         len(in.reqs),
	}}

	var before map[string]float64
	if o.traced {
		var err error
		if before, err = scrapeAll(nodes); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	start := time.Now().Add(50 * time.Millisecond)
	sampler := sampleCPU(start, serveSlice)
	outs := openLoop(nodes, in.reqs, start)
	done, err := resolve(nodes, in.reqs, outs)
	slices := sampler.stop()
	if err != nil {
		return nil, err
	}
	// The traced figures cover the run's own requests: the counters are
	// read, and the job records cut off, before the correctness sample is
	// re-submitted.
	var after map[string]float64
	cutoff := time.Now()
	if o.traced {
		if after, err = scrapeAll(nodes); err != nil {
			return nil, err
		}
	}

	// Throughput is taken from the first due time to the last completion,
	// so a growing backlog lowers it below the offered rate.
	e.limit = serveLimit
	var late, submit []time.Duration
	last := start
	for i, r := range in.reqs {
		out := outs[i]
		rep.attempted++
		due := start.Add(r.due)
		late = append(late, out.sent.Sub(due))
		if r.kind != kindUpload {
			submit = append(submit, out.replied.Sub(out.sent))
		}
		if out.err != nil {
			rep.failOp("%s request %d: %v", kindNames[r.kind], i, out.err)
			continue
		}
		e.add(done[i].Sub(due))
		if done[i].After(last) {
			last = done[i]
		}
	}
	e.busy = last.Sub(start)
	// Requests overlap, so no op has a CPU cost of its own: the CPU
	// figures are the process's CPU time over the run (both nodes and the
	// generator) per request, overall and per slice at the offered rate.
	for _, sl := range slices {
		e.cpus = append(e.cpus, time.Duration(float64(sl.cpu)/(sl.wall.Seconds()*serveRate)))
		e.busyCPU += sl.cpu
	}

	var layers *campaignLayers
	if o.traced {
		layers = &campaignLayers{}
	}
	if err := checkServed(ctx, in, nodes, layers, &e.quality, rep); err != nil {
		return nil, err
	}
	if !o.traced {
		rep.metrics = e.metrics(rep)
		return rep, nil
	}

	vals := map[string]float64{
		"loadgen.late_ms_p95":  ms(percentile(late, 0.95)),
		"server.submit_ms_p50": ms(percentile(submit, 0.5)),
	}
	layers.fill(vals)
	if err := serverLayers(nodes, start, cutoff, len(submit), before, after, vals); err != nil {
		return nil, err
	}
	if err := storeLayers(o.workDir, in, nodes[0], vals); err != nil {
		return nil, err
	}
	rep.metrics = layerMetrics(vals)
	return rep, nil
}

// serveSlice is the length of the slices the run's CPU time is cut into:
// 15 requests each, and about 200 slices in a 30-s run, so that ten lie
// beyond p95.
const serveSlice = 150 * time.Millisecond

// cpuSampler reads the process's CPU clock at a fixed interval.
type cpuSampler struct {
	done    chan struct{}
	samples chan []stopwatch
}

// sampleCPU reads the CPU clock at start and every interval after it
// until stop, so that with a schedule's start time every slice holds the
// same requests from run to run.
func sampleCPU(start time.Time, interval time.Duration) *cpuSampler {
	s := &cpuSampler{done: make(chan struct{}), samples: make(chan []stopwatch, 1)}
	go func() {
		time.Sleep(time.Until(start))
		t := time.NewTicker(interval)
		defer t.Stop()
		got := []stopwatch{startWatch()}
		for {
			select {
			case <-t.C:
				got = append(got, startWatch())
			case <-s.done:
				s.samples <- append(got, startWatch())
				return
			}
		}
	}()
	return s
}

// slice is the wall and CPU time between two samples.
type slice struct{ wall, cpu time.Duration }

// stop ends the sampling and returns the slices between the samples.
func (s *cpuSampler) stop() []slice {
	close(s.done)
	got := <-s.samples
	out := make([]slice, 0, len(got)-1)
	for i := 1; i < len(got); i++ {
		out = append(out, slice{got[i].wall.Sub(got[i-1].wall), got[i].cpu - got[i-1].cpu})
	}
	return out
}

var kindNames = [...]string{kindApp: "app", kindTraceKeys: "trace_keys", kindStatic: "static", kindUpload: "upload"}

// checkServed re-submits the correctness sample through the cluster and
// compares each served result, wall-clock fields zeroed, with a local
// core.Infer or core.InferFromSource. The app results are also scored
// against ground truth. With layers set, each sampled campaign is also
// replayed through the layers' public calls.
func checkServed(ctx context.Context, in *serveInputs, nodes []*serveNode, layers *campaignLayers, q *quality, rep *report) error {
	c := &http.Client{Timeout: time.Minute}
	for _, spec := range in.appSample {
		p, err := apps.ByName(spec.App)
		if err != nil {
			return err
		}
		cfg := core.DefaultConfig()
		cfg.Seed = spec.Seed
		var want *core.Result
		if layers != nil {
			cfg.Parallelism = 1
			want, err = layers.op(ctx, p, cfg)
		} else {
			want, err = core.Infer(ctx, p, cfg)
		}
		if err != nil {
			return err
		}
		got, err := servedResult(c, nodes[0].url, spec)
		if err != nil {
			rep.fail("%s seed %d: %v", spec.App, spec.Seed, err)
			continue
		}
		if same, err := sameResult(got, want); err != nil || !same {
			rep.fail("%s seed %d: served result differs from a local core.Infer", spec.App, spec.Seed)
			continue
		}
		q.add(p, got)
	}
	for _, ks := range in.keySample {
		src := make(core.SliceSource, len(in.traces[ks.app]))
		for i, kt := range in.traces[ks.app] {
			src[i] = kt.tr
		}
		cfg := core.DefaultConfig()
		cfg.Seed = ks.spec.Seed
		want, err := core.InferFromSource(ctx, src, cfg)
		if err != nil {
			return err
		}
		got, err := servedResult(c, nodes[1].url, ks.spec)
		if err != nil {
			rep.fail("trace_keys %s: %v", ks.app, err)
			continue
		}
		if same, err := sameResult(got, want); err != nil || !same {
			rep.fail("trace_keys %s: served result differs from a local InferFromSource", ks.app)
		}
	}
	return nil
}

// openLoop sends every request at its due time. Each node gets its own
// senders, one keep-alive connection each, nproc connections in all; a
// sender that falls behind sends late, and the lateness counts in the
// request's latency because latency runs from the due time.
func openLoop(nodes []*serveNode, reqs []request, start time.Time) []outcome {
	outs := make([]outcome, len(reqs))
	perNode := max(1, runtime.NumCPU()/len(nodes))
	var wg sync.WaitGroup
	for n := range nodes {
		for s := 0; s < perNode; s++ {
			var mine []int
			k := 0
			for i, r := range reqs {
				if r.node == n {
					if k%perNode == s {
						mine = append(mine, i)
					}
					k++
				}
			}
			wg.Add(1)
			go func(base string, mine []int) {
				defer wg.Done()
				tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
				defer tr.CloseIdleConnections()
				c := &http.Client{Transport: tr, Timeout: time.Minute}
				for _, i := range mine {
					time.Sleep(time.Until(start.Add(reqs[i].due)))
					outs[i] = send(c, base, reqs[i])
				}
			}(nodes[n].url, mine)
		}
	}
	wg.Wait()
	return outs
}

// send issues one request and records what came back.
func send(c *http.Client, base string, r request) outcome {
	out := outcome{sent: time.Now()}
	path, ctype := "/v1/jobs", "application/json"
	if r.kind == kindUpload {
		path, ctype = "/v1/traces", "application/octet-stream"
	}
	resp, err := c.Post(base+path, ctype, bytes.NewReader(r.body))
	if err != nil {
		out.replied, out.err = time.Now(), err
		return out
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	out.replied = time.Now()
	switch {
	case err != nil:
		out.err = err
	case resp.StatusCode >= 300:
		out.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	case r.kind != kindUpload:
		out.err = json.Unmarshal(body, &out.job)
	}
	return out
}

// resolve waits for every accepted job to end and returns each request's
// completion time: the job's own finished_at, or the reply time of an
// upload. Failed jobs get their err set.
func resolve(nodes []*serveNode, reqs []request, outs []outcome) ([]time.Time, error) {
	c := &http.Client{Timeout: 2 * time.Minute}
	done := make([]time.Time, len(reqs))
	for i, r := range reqs {
		out := &outs[i]
		if out.err != nil {
			continue
		}
		if r.kind == kindUpload {
			done[i] = out.replied
			continue
		}
		v, err := waitJob(c, nodes[r.node].url, out.job)
		if err != nil {
			return nil, err
		}
		if v.Status != "done" {
			out.err = fmt.Errorf("job %s %s: %s", v.ID, v.Status, v.Error)
			continue
		}
		t, err := time.Parse(time.RFC3339Nano, v.FinishedAt)
		if err != nil {
			return nil, fmt.Errorf("job %s finished_at: %w", v.ID, err)
		}
		done[i] = t
	}
	return done, nil
}

// waitJob long-polls a job's watch endpoint until the job leaves the
// queued and running states.
func waitJob(c *http.Client, base string, v jobView) (jobView, error) {
	for v.Status == "queued" || v.Status == "running" {
		body, err := get(c, base+"/v1/jobs/"+v.ID+"/watch?timeout=30")
		if err != nil {
			return v, err
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return v, err
		}
	}
	return v, nil
}

// runJob submits a spec and waits for it to end.
func runJob(c *http.Client, base string, spec server.JobSpec) (jobView, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return jobView{}, err
	}
	resp, err := post(c, base+"/v1/jobs", "application/json", body)
	if err != nil {
		return jobView{}, err
	}
	var v jobView
	if err := json.Unmarshal(resp, &v); err != nil {
		return v, err
	}
	if v, err = waitJob(c, base, v); err != nil {
		return v, err
	}
	if v.Status != "done" {
		return v, fmt.Errorf("job %s %s: %s", v.ID, v.Status, v.Error)
	}
	return v, nil
}

// servedResult runs a job through the cluster and returns its result.
func servedResult(c *http.Client, base string, spec server.JobSpec) (*core.Result, error) {
	v, err := runJob(c, base, spec)
	if err != nil {
		return nil, err
	}
	body, err := get(c, base+"/v1/results/"+v.Key)
	if err != nil {
		return nil, err
	}
	var env struct {
		Result *core.Result `json:"result"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, err
	}
	if env.Result == nil {
		return nil, fmt.Errorf("result %s has no body", v.Key)
	}
	return env.Result, nil
}

func post(c *http.Client, url, ctype string, body []byte) ([]byte, error) {
	resp, err := c.Post(url, ctype, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 300 {
		return nil, fmt.Errorf("POST %s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

func get(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 300 {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

var metricLine = regexp.MustCompile(`(?m)^([a-z_]+)(?:\{[^}]*\})? ([0-9.e+-]+)$`)

// scrapeAll sums every node's /metrics samples per metric name.
func scrapeAll(nodes []*serveNode) (map[string]float64, error) {
	c := &http.Client{Timeout: 10 * time.Second}
	out := map[string]float64{}
	for _, n := range nodes {
		body, err := get(c, n.url+"/metrics")
		if err != nil {
			return nil, err
		}
		for _, m := range metricLine.FindAllStringSubmatch(string(body), -1) {
			v, err := strconv.ParseFloat(m[2], 64)
			if err == nil {
				out[m[1]] += v
			}
		}
	}
	return out, nil
}

// serverLayers derives the server and cluster figures from the job
// records every node holds for jobs submitted between start and cutoff
// (queue wait, execution time, static executions) and from the /metrics
// counter deltas over the run.
func serverLayers(nodes []*serveNode, start, cutoff time.Time, jobs int, before, after map[string]float64, vals map[string]float64) error {
	c := &http.Client{Timeout: time.Minute}
	var wait, exec, static []time.Duration
	for _, n := range nodes {
		cursor := ""
		for {
			body, err := get(c, n.url+"/v1/jobs?limit=1000"+cursor)
			if err != nil {
				return err
			}
			var page struct {
				Jobs      []jobView `json:"jobs"`
				NextAfter string    `json:"next_after"`
			}
			if err := json.Unmarshal(body, &page); err != nil {
				return err
			}
			for _, j := range page.Jobs {
				sub, err1 := time.Parse(time.RFC3339Nano, j.SubmittedAt)
				st, err2 := time.Parse(time.RFC3339Nano, j.StartedAt)
				fin, err3 := time.Parse(time.RFC3339Nano, j.FinishedAt)
				if err1 != nil || err2 != nil || err3 != nil || sub.Before(start) || sub.After(cutoff) {
					continue // not run by a worker, or not part of the timed run
				}
				wait = append(wait, st.Sub(sub))
				exec = append(exec, fin.Sub(st))
				if j.StaticApp != "" {
					static = append(static, fin.Sub(st))
				}
			}
			if page.NextAfter == "" {
				break
			}
			cursor = "&after=" + page.NextAfter
		}
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	submitted := float64(jobs)
	vals["server.queue_wait_ms_p95"] = ms(percentile(wait, 0.95))
	vals["server.exec_ms_p50"] = ms(percentile(exec, 0.5))
	vals["static.exec_ms_p50"] = ms(percentile(static, 0.5))
	vals["server.rejected"] = delta("sherlock_jobs_rejected_total")
	vals["cluster.proxy_failures"] = delta("sherlock_cluster_proxy_failures_total")
	if submitted > 0 {
		vals["server.cache_hit_ratio"] = (delta("sherlock_cache_hits_total") + delta("sherlock_cluster_remote_cache_hits_total")) / submitted
		vals["cluster.proxied_ratio"] = delta("sherlock_cluster_proxied_jobs_total") / submitted
		vals["cluster.remote_hit_ratio"] = delta("sherlock_cluster_remote_cache_hits_total") / submitted
	}
	return nil
}

// storeLayers measures the codec and corpus on the run's inputs: encode
// throughput from set-up (the client encodes every upload body), decode
// and ingest of the same bodies into a fresh corpus, and reads of the
// blobs the first node stored at set-up.
func storeLayers(dir string, in *serveInputs, node *serveNode, vals map[string]float64) error {
	c, err := store.Open(filepath.Join(dir, "uploads"))
	if err != nil {
		return err
	}
	var decTime time.Duration
	var decBytes int64
	var ingest, gets []time.Duration
	for _, bin := range in.uploads {
		t0 := time.Now()
		t, err := store.DecodeTrace(bin)
		t1 := time.Now()
		if err != nil {
			return err
		}
		if _, _, err := c.Ingest(t); err != nil {
			return err
		}
		decTime += t1.Sub(t0)
		decBytes += int64(len(bin))
		ingest = append(ingest, time.Since(t1))
	}
	for _, name := range apps.Names() {
		for _, kt := range in.traces[name] {
			t0 := time.Now()
			if _, err := node.srv.Corpus().Get(kt.key); err != nil {
				return err
			}
			gets = append(gets, time.Since(t0))
		}
	}
	vals["store.encode_mb_per_s"] = mbPerS(in.encBytes, in.encTime)
	vals["store.decode_mb_per_s"] = mbPerS(decBytes, decTime)
	vals["store.ingest_ms_p50"] = ms(percentile(ingest, 0.5))
	vals["store.get_ms_p50"] = ms(percentile(gets, 0.5))
	return nil
}
