// Command sherlock runs synchronization-operation inference on the
// benchmark applications, locally or against a sherlockd daemon. The
// interface is subcommands (commands.go):
//
//	sherlock capture -corpus DIR [-app App-4] [-seed 1]
//	sherlock capture -traces DIR -app App-4 [-seed 1]
//	sherlock infer   -app App-4 [-rounds 3] [-lambda 0.2] [-near 1000000] [-v]
//	sherlock infer   -corpus DIR | -traces DIR
//	sherlock eval
//	sherlock upload  -server http://localhost:8419 trace.bin ...
//	sherlock submit  -server URL -app App-4 [-wait]
//	sherlock submit  -server URL -keys key1,key2 [-wait]
//	sherlock submit  -server URL -static-app App-4 [-wait]
//	sherlock submit  -server URL -watch-app App-4 [-wait]
//	sherlock watch   -server URL -job job-000001
//	sherlock status  -server URL job-000001 | -result KEY | -list
package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"

	"sherlock/internal/core"
	"sherlock/internal/obs"
	"sherlock/internal/prog"
	"sherlock/internal/sched"
	"sherlock/internal/trace"
)

func main() {
	// ^C cancels between test executions instead of killing the process
	// mid-table.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if len(os.Args) > 1 && runCommand(ctx, os.Args[1], os.Args[2:]) {
		return
	}
	if len(os.Args) > 1 && os.Args[1] != "" && os.Args[1][0] != '-' {
		fmt.Fprintf(os.Stderr, "sherlock: unknown command %q; run 'sherlock help'\n", os.Args[1])
	} else {
		usage(os.Stderr)
	}
	os.Exit(2)
}

func printResult(app *prog.Program, res *core.Result, verbose bool) {
	score := core.ScoreResult(app, res)
	fmt.Printf("%s (%s): %d inferred, %d correct, precision %.0f%%\n\n",
		app.Name, app.Title, score.Total(), len(score.Correct), 100*score.Precision())

	fmt.Println("Releasing sites:")
	for _, s := range res.Inferred {
		if s.Role.String() == "release" {
			fmt.Printf("  %-70s %s\n", s.Key.Display(), classify(app, s))
		}
	}
	fmt.Println("Acquire sites:")
	for _, s := range res.Inferred {
		if s.Role.String() == "acquire" {
			fmt.Printf("  %-70s %s\n", s.Key.Display(), classify(app, s))
		}
	}
	if len(score.Missed) > 0 {
		fmt.Println("Missed (ground truth):")
		for _, k := range score.Missed {
			fmt.Printf("  %-70s [%s]\n", k.Display(), app.Truth.Category[k])
		}
	}
	if verbose {
		fmt.Println("\nPer-round snapshots:")
		for _, r := range res.Rounds {
			c, t := core.SnapshotCorrect(app, r)
			fmt.Printf("  round %d: %d correct / %d inferred, %d windows\n",
				r.Round, c, t, r.Windows)
		}
		fmt.Printf("\nOverhead: run %v, solve %v, %d events, %d windows, LP %dx%d\n",
			res.Overhead.RunWall, res.Overhead.SolveWall, res.Overhead.Events,
			res.Overhead.Windows, res.Overhead.Vars, res.Overhead.Constraints)
	}
}

func classify(app *prog.Program, s core.InferredSync) string {
	if role, ok := app.Truth.Syncs[s.Key]; ok && role == s.Role {
		return "[true sync]"
	}
	if app.Truth.RacyKeys[s.Key] {
		return "[data racy]"
	}
	if cat := app.Truth.Category[s.Key]; cat != "" {
		return "[" + string(cat) + "]"
	}
	return "[not sync]"
}

// dumpTraces executes every test once and writes its log as JSON lines —
// the paper's materialized per-run log files (`sherlock capture -traces`).
func dumpTraces(app *prog.Program, dir string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, test := range app.Tests {
		run, err := sched.Run(app, test, sched.Options{Seed: seed + int64(i)})
		if err != nil {
			return err
		}
		name := filepath.Join(dir, fmt.Sprintf("%s-%02d.jsonl", app.Name, i))
		f, err := os.Create(name)
		if err != nil {
			return err
		}
		if err := run.Trace.Write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d events, test %s)\n", name, run.Trace.Len(), test.Name)
	}
	return nil
}

// analyzeTraces loads every .jsonl trace in dir and runs the offline
// log-analysis step (no re-execution, no Perturber).
func analyzeTraces(ctx context.Context, dir string, lambda float64, near int64, observer core.Observer) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var traces []*trace.Trace
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".jsonl" {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		tr, err := trace.Read(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name(), err)
		}
		traces = append(traces, tr)
	}
	if len(traces) == 0 {
		return fmt.Errorf("no .jsonl traces in %s", dir)
	}
	cfg := core.DefaultConfig()
	cfg.Solver.Lambda = lambda
	cfg.Window.Near = near
	cfg.Observer = observer
	res, err := core.InferFromTraces(ctx, traces, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("%d traces, %d windows, %d inferred operations\n\n",
		len(traces), res.Overhead.Windows, len(res.Inferred))
	fmt.Println("Releasing sites:")
	for _, s := range res.Inferred {
		if s.Role == trace.RoleRelease {
			fmt.Printf("  %s\n", s.Key.Display())
		}
	}
	fmt.Println("Acquire sites:")
	for _, s := range res.Inferred {
		if s.Role == trace.RoleAcquire {
			fmt.Printf("  %s\n", s.Key.Display())
		}
	}
	return nil
}

// traceObserver opens a -trace-out event log and returns the observer that
// streams span events into it as JSON lines, plus a close function that
// flushes and reports any deferred write error. An empty path yields a nil
// observer and a no-op close.
func traceObserver(path string) (core.Observer, func() error, error) {
	if path == "" {
		return nil, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	bw := bufio.NewWriter(f)
	sink := obs.NewJSONLSink(bw)
	closeFn := func() error {
		if err := sink.Err(); err != nil {
			f.Close()
			return fmt.Errorf("trace-out %s: %w", path, err)
		}
		if err := bw.Flush(); err != nil {
			f.Close()
			return fmt.Errorf("trace-out %s: %w", path, err)
		}
		return f.Close()
	}
	return core.SinkObserver(sink), closeFn, nil
}

// firstErr returns the first non-nil error (campaign failures outrank
// event-log close failures).
func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "sherlock:", err)
		os.Exit(1)
	}
}
