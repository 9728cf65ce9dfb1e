// Command bench runs one of SherLock's committed benchmark suites and
// writes its record, so the perf and quality trajectory can be tracked
// across commits and asserted by CI without parsing `go test -bench`
// output.
//
// Usage:
//
//	bench -suite NAME [-gate] [-out BENCH_<NAME>.json]
//
// Suites (one committed BENCH_<name>.json each):
//
//   - solver: every app's campaign re-solved cold and warm (starting
//     from the previous round's basis); pivots, presolve ratios and the
//     aggregate cold pivot rate.
//   - server: an in-process daemon over real HTTP; cold submit→done vs
//     cache-hit resubmission.
//   - store: binary trace codec against JSON lines over the 8-app corpus.
//   - obs: no-sink tracing overhead against DisableTracing.
//   - incremental: folding k traces into a checkpoint vs re-solving.
//   - static: run-free quality and reproducibility per app.
//   - gen: precision/recall over 100 generated apps vs machine truth.
//   - cluster: 1/2/4-node in-process clusters under a zipfian workload.
//
// Each suite's knobs are constants beside it and are recorded in its
// output. -gate turns on the suite's CI gates (thresholds below): the
// record is still written, then a breach exits 1. A missing or unknown
// -suite exits 2.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"
)

// Gate thresholds, checked by each record's gate method under -gate. The
// gen floors sit deliberately below the measured operating point (≈0.95 /
// ≈0.89 at N=100, rounds=3) so the gate trips on regressions, not noise.
// The store floor sits well below the pooled codec's ≈500k events/s and
// well above the ≈40k of a flate writer built per trace.
const (
	minPivotRate        = 35000   // solver: aggregate cold pivots/s
	storeMinEncodeRate  = 150_000 // store: binary encode, events/s
	obsMaxPct           = 5       // obs: no-sink tracing overhead, %
	incrMinSpeedup      = 3       // incremental: +1-trace speedup over scratch
	incrMaxFoldGrowth   = 3       // incremental: full-base / quarter-base fold cost
	genGateMinPrecision = 0.90    // gen: aggregate non-race precision
	genGateMinRecall    = 0.75    // gen: aggregate recall vs unbucketed truth
	clusterMinSpeedup   = 2       // cluster: 4-node / 1-node throughput
)

// record is a suite's output value: marshalled to the suite's JSON file,
// and gate reports the first breached threshold.
type record interface{ gate() error }

// suite is one registry entry. schema returns a pointer to a zero record
// of the suite's output type, for decoding committed files.
type suite struct {
	run    func() (record, error)
	schema func() any
}

func def[R record](run func() (R, error)) suite {
	return suite{
		run:    func() (record, error) { return run() },
		schema: func() any { return new(R) },
	}
}

var suites = map[string]suite{
	"solver":      def(benchSolver),
	"server":      def(benchServer),
	"store":       def(benchStore),
	"obs":         def(benchObs),
	"incremental": def(benchIncr),
	"static":      def(benchStatic),
	"gen":         def(benchGen),
	"cluster":     def(benchCluster),
}

func suiteNames() []string {
	names := make([]string, 0, len(suites))
	for name := range suites {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

func main() {
	name := flag.String("suite", "", "suite to run: "+strings.Join(suiteNames(), ", "))
	gate := flag.Bool("gate", false, "exit 1 if the record breaches the suite's gate thresholds")
	out := flag.String("out", "", "output file (default BENCH_<suite>.json)")
	flag.Parse()
	s, ok := suites[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown or missing -suite %q; suites: %s\n", *name, strings.Join(suiteNames(), ", "))
		os.Exit(2)
	}
	if *out == "" {
		*out = "BENCH_" + *name + ".json"
	}

	res, err := s.run()
	die(err)
	buf, err := json.MarshalIndent(res, "", "  ")
	die(err)
	die(os.WriteFile(*out, append(buf, '\n'), 0o644))
	fmt.Printf("bench: wrote %s\n", *out)
	if *gate {
		die(res.gate())
	}
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// keepMin records d into *best when it is the first measurement (zero)
// or faster than every earlier one: the best-of-reps wall clock.
func keepMin(best *int64, d time.Duration) {
	if *best == 0 || d.Nanoseconds() < *best {
		*best = d.Nanoseconds()
	}
}

// quantile returns the q-quantile of xs by nearest rank below; xs is
// sorted in place.
func quantile[T cmp.Ordered](xs []T, q float64) T {
	if len(xs) == 0 {
		var zero T
		return zero
	}
	slices.Sort(xs)
	return xs[int(q*float64(len(xs)-1))]
}
