package main

import (
	"math"
	"sort"
	"syscall"
	"time"

	"sherlock/internal/core"
	"sherlock/internal/prog"
)

// metric is one named figure in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setupReps is how many times each workload builds its set-up; setup_s is
// the median, so a slow set-up (a cold page cache, a slow disk) does not
// move it.
const setupReps = 9

// The gated figures are CPU time, not wall-clock time, scaled to the
// host's speed (calibrate.go). On a shared virtual machine the hypervisor
// takes the CPUs away while neighbours are busy (/proc/stat counts that
// time as steal), and between runs minutes apart every wall-clock latency
// moved by more than twice its median. The wall-clock figures go into the
// run record.

// stopwatch reads wall and CPU time together.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{time.Now(), cpuTime()} }

// elapsed returns the wall and CPU time since w started.
func (w stopwatch) elapsed() (wall, cpu time.Duration) {
	return time.Since(w.wall), cpuTime() - w.cpu
}

// endToEnd accumulates the user-visible figures of one untraced run.
type endToEnd struct {
	setups, setupWalls []time.Duration // CPU and wall time of each set-up
	lats               []time.Duration // wall latencies of ops that completed and passed their check
	cpus               []time.Duration // CPU cost of each such op (or, in serve, of each slice)
	busy, busyCPU      time.Duration   // wall and CPU time of the timed run
	within             int             // ops that completed correctly within limit
	limit              time.Duration   // the workload's fixed latency limit
	quality            quality
}

// setup records one set-up.
func (e *endToEnd) setup(w stopwatch) {
	wall, cpu := w.elapsed()
	e.setupWalls = append(e.setupWalls, wall)
	e.setups = append(e.setups, cpu)
}

// add records one correct op's wall latency.
func (e *endToEnd) add(lat time.Duration) {
	e.lats = append(e.lats, lat)
	if lat <= e.limit {
		e.within++
	}
}

// metrics renders the end-to-end set. attempted and failed come from the
// report, so refused and wrong ops count against ok_ratio and slo_ok_ratio.
// The wall-clock figures go into the run record.
func (e *endToEnd) metrics(rep *report) map[string]metric {
	attempted := float64(rep.attempted)
	if attempted == 0 {
		attempted = 1
	}
	done := float64(max(len(e.lats), 1))
	rep.record["op_ms_p50"] = ms(percentile(e.lats, 0.50))
	rep.record["op_ms_p95"] = ms(percentile(e.lats, 0.95))
	rep.record["ops_per_s"] = float64(len(e.lats)) / e.busy.Seconds()
	rep.record["setup_wall_s"] = medianFloat(seconds(e.setupWalls))
	rep.record["raw_setup_s"] = medianFloat(seconds(e.setups))
	rep.record["raw_op_cpu_ms_p50"] = ms(percentile(e.cpus, 0.50))
	rep.record["raw_op_cpu_ms_p95"] = ms(percentile(e.cpus, 0.95))
	rep.record["raw_cpu_ms_per_op"] = ms(e.busyCPU) / done
	rep.record["op_cpu_samples"] = len(e.cpus)
	k := cal.scale()
	return map[string]metric{
		"setup_s":       {k * medianFloat(seconds(e.setups)), "s"},
		"op_cpu_ms_p50": {k * ms(percentile(e.cpus, 0.50)), "ms"},
		"op_cpu_ms_p95": {k * ms(percentile(e.cpus, 0.95)), "ms"},
		"cpu_ms_per_op": {k * ms(e.busyCPU) / done, "ms"},
		"ok_ratio":      {float64(rep.attempted-rep.failed) / attempted, "ratio"},
		"slo_ok_ratio":  {float64(e.within) / attempted, "ratio"},
		"precision":     {e.quality.precision(), "ratio"},
		"recall":        {e.quality.recall(), "ratio"},
		"peak_rss_mb":   {peakRSSMB(), "MB"},
	}
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// minOps is the fewest ops a timed run holds, so that at least ten
// samples lie beyond its p95.
const minOps = 200

// layerUnits is the per-layer metric set, in README order. A workload
// fills the values it measures; a layer the workload never calls reads 0.
var layerUnits = []struct{ name, unit string }{
	{"sched.busy_ms", "ms/op"},
	{"sched.runs", "count/op"},
	{"sched.events", "count/op"},
	{"window.busy_ms", "ms/op"},
	{"window.conflicts", "count/op"},
	{"window.windows", "count/op"},
	{"perturb.busy_ms", "ms/op"},
	{"perturb.kept_ratio", "ratio"},
	{"solver.busy_ms", "ms/op"},
	{"solver.pivots", "count/op"},
	{"solver.warm_ratio", "ratio"},
	{"solver.presolve_row_ratio", "ratio"},
	{"core.self_ms", "ms/op"},
	{"core.extract_ms", "ms/op"},
	{"core.incremental_ms", "ms/op"},
	{"store.ingest_ms_p50", "ms"},
	{"store.encode_mb_per_s", "MB/s"},
	{"store.decode_mb_per_s", "MB/s"},
	{"store.get_ms_p50", "ms"},
	{"static.exec_ms_p50", "ms"},
	{"server.submit_ms_p50", "ms"},
	{"server.queue_wait_ms_p95", "ms"},
	{"server.exec_ms_p50", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.rejected", "count"},
	{"cluster.proxied_ratio", "ratio"},
	{"cluster.remote_hit_ratio", "ratio"},
	{"cluster.proxy_failures", "count"},
	{"loadgen.late_ms_p95", "ms"},
	{"bench.trace_overhead_pct", "%"},
}

// layerMetrics renders the per-layer set from the measured values.
func layerMetrics(vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(layerUnits))
	for _, l := range layerUnits {
		out[l.name] = metric{vals[l.name], l.unit}
	}
	return out
}

// quality accumulates non-race precision and recall against ground truth,
// as in the generator sweep: true data races and instrumentation errors
// are the paper's expected false positives, so precision is correct over
// correct plus not-sync, and recall discounts the known-hard miss buckets.
type quality struct {
	correct, notSync, missedOther int
}

func (q *quality) add(app *prog.Program, res *core.Result) {
	s := core.ScoreResult(app, res)
	q.correct += len(s.Correct)
	q.notSync += len(s.NotSync)
	q.missedOther += s.MissByCategory[prog.CatOther]
}

func (q *quality) precision() float64 { return ratio(q.correct, q.correct+q.notSync) }
func (q *quality) recall() float64    { return ratio(q.correct, q.correct+q.missedOther) }

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// perOp divides a summed duration by an op count, in milliseconds.
func perOp(d time.Duration, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return ms(d) / float64(ops)
}

// percentile returns the nearest-rank q-quantile of ds (0 when empty).
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// medianFloat returns the median of xs, averaging the middle pair (0 when
// empty).
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB is the process's peak resident set size in MiB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
