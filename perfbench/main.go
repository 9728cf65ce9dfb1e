// Command perfbench is SherLock's end-to-end benchmark. One invocation
// runs one named workload for a fixed time and prints, as the last line of
// its standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set declared in
// BENCHMARK.json; with -trace 1 they are the per-layer set, measured by
// timing the benchmark's own calls into each layer's public functions (the
// program itself is not instrumented further). The line before the result
// is the run record: CPU count, GOMAXPROCS, Go version, commit, seed, run
// length and the workload's rate and latency limit.
//
// Run it from the repository root through run.sh, which builds this module
// against the checkout's sources first:
//
//	bash perfbench/run.sh --workload campaign --seed 1 --seconds 20 --trace 0
//
// Every workload checks its outputs for correctness; a failed check counts
// as a failed op and makes the command exit 1. See README.md for what each
// workload exercises and how to read a run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// workRoot, under the checkout's build directory, holds each run's work
// directory.
const workRoot = ".bench_build/work"

// options are one run's inputs. workDir is a directory the run may
// fill (on-disk corpora); it is removed when the run ends.
type options struct {
	seed    int64
	length  time.Duration
	traced  bool
	workDir string
}

// workload is one named input mix.
type workload struct {
	name string
	run  func(ctx context.Context, o options) (*report, error)
}

var workloads = []workload{
	{"campaign", runCampaign},
	{"corpus", runCorpus},
	{"serve", runServe},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// result is the contract's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: campaign, corpus or serve")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "length of the timed run, in seconds")
	traced := flag.Int("trace", 0, "0 prints the end-to-end metrics, 1 the per-layer metrics")
	flag.Parse()
	// One P: with more, idle Ps spin looking for work, and that spin
	// grows or shrinks with whatever else the host runs, so the process's
	// CPU time would follow the neighbours again (README.md, "Why CPU
	// time").
	runtime.GOMAXPROCS(1)

	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want -workload campaign|corpus|serve, -seconds >= 1, -trace 0|1\n")
		os.Exit(2)
	}
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(workRoot, w.name+"-")
	if err != nil {
		fatal(err)
	}
	ticks := readCPUTicks()
	cal.start()
	o := options{seed: *seed, length: time.Duration(*seconds) * time.Second, traced: *traced == 1, workDir: dir}
	rep, err := w.run(context.Background(), o)
	cal.halt()
	os.RemoveAll(dir)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", w.name, err))
	}

	rec := runRecord(w.name, o, rep)
	rec["cpu_steal_pct"] = stealPct(ticks, readCPUTicks())
	rec["ref_kernel_ms"] = ms(cal.medianKernel())
	line, err := json.Marshal(map[string]any{"run": rec})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", w.name, p)
	}
	res := result{
		Correct:   len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	}
	line, err = json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// runRecord describes the conditions of a run, printed next to its
// metrics: shared hardware skews numbers, so every figure travels with the
// CPU count, the toolchain and the commit it was measured on.
func runRecord(name string, o options, rep *report) map[string]any {
	rec := map[string]any{
		"workload":     name,
		"seed":         o.seed,
		"seconds":      o.length.Seconds(),
		"traced":       o.traced,
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go":           runtime.Version(),
		"commit":       commit(),
		"ops":          rep.attempted,
		"finished_utc": time.Now().UTC().Format(time.RFC3339),
	}
	for k, v := range rep.record {
		rec[k] = v
	}
	return rec
}

// commit reads the VCS revision the Go toolchain stamps into the binary
// when it is built inside a git checkout; "unknown" elsewhere.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// report is what one workload run hands back to main.
type report struct {
	attempted int
	failed    int      // failed and refused ops plus failed correctness checks
	problems  []string // one line per failed correctness check
	metrics   map[string]metric
	record    map[string]any // workload-specific run-record fields
}

// failOp records a failed or refused op. It counts against ok_ratio and
// slo_ok_ratio; unlike a failed check it does not fail the run.
func (r *report) failOp(format string, args ...any) {
	r.failed++
	if r.failed <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: op failed: "+format+"\n", args...)
	}
}

// fail records a failed correctness check, counting it as a failed op.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
