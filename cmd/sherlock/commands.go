// Subcommand interface for the sherlock CLI. Each verb owns its flag set:
//
//	sherlock capture [-corpus DIR | -traces DIR -app App-4] [-seed 1]
//	sherlock infer   [-app App-4 | -corpus DIR | -traces DIR]
//	sherlock static  [-app App-4 | -all]
//	sherlock eval
//	sherlock upload  -server URL FILE...
//	sherlock submit  -server URL [-app X | -keys k1,k2 |
//	                 -watch-app X | -static-app X] [-wait]
//	sherlock watch   -server URL -job job-000001
//	sherlock status  -server URL [JOB-ID | -result KEY | -list [-filter done]]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"sherlock/internal/apps"
	"sherlock/internal/core"
	"sherlock/internal/exper"
)

// runCommand dispatches one subcommand; returns false if the verb is
// unknown.
func runCommand(ctx context.Context, verb string, args []string) bool {
	switch verb {
	case "capture":
		cmdCapture(ctx, args)
	case "infer":
		cmdInfer(ctx, args)
	case "static":
		cmdStatic(ctx, args)
	case "eval":
		cmdEval(ctx, args)
	case "upload":
		cmdUpload(ctx, args)
	case "submit":
		cmdSubmit(ctx, args)
	case "watch":
		cmdWatch(ctx, args)
	case "status":
		cmdStatus(ctx, args)
	case "cluster":
		cmdCluster(ctx, args)
	case "help", "-h", "-help", "--help":
		usage(os.Stdout)
	default:
		return false
	}
	return true
}

func usage(w *os.File) {
	fmt.Fprint(w, `sherlock — synchronization-operation inference

Application names: the eight built-ins ("App-1".."App-8") or a
procedurally generated app ("gen:<seed>[,profile=mixed|classic|go|racy]
[,size=N]") — same seed, same program, everywhere a name is accepted.

Local:
  sherlock capture -corpus DIR [-app App-4] [-seed 1]
      run the benchmark tests and ingest their traces into a corpus
  sherlock capture -traces DIR -app App-4 [-seed 1]
      run the tests once and write one JSONL trace per test (the files
      'infer -traces DIR' reads)
  sherlock infer -app App-4 [-rounds 3] [-lambda 0.2] [-near 1000000] [-v]
      full feedback campaign on one application
  sherlock infer -app gen:42 [-dist zipf|bursty]
      campaign on a generated app, optionally under a heavy-tailed or
      bursty scheduler step distribution
  sherlock infer -corpus DIR [-app App-4]
      offline inference over a captured corpus
  sherlock infer -traces DIR
      offline inference over JSONL trace files
  sherlock static -app App-4 [-v]
      run-free static inference on one application, scored vs truth
  sherlock static -all
      static-only precision/recall sweep over everything the program
      registry exposes (built-ins + generator samples)
  sherlock eval
      the paper's whole evaluation: Tables 1-9, Figure 4, TSVD, overhead
      and the extensions (takes no flags)

Against a sherlockd daemon:
  sherlock upload -server URL FILE...
      upload traces (binary or JSONL) into the daemon's corpus
  sherlock submit -server URL -app App-4 [-wait]
  sherlock submit -server URL -keys KEY1,KEY2 [-wait]
      one-shot inference jobs (campaign / corpus offline solve)
  sherlock submit -server URL -static-app App-4 [-wait]
      run-free static inference job, cached by program hash
  sherlock submit -server URL -watch-app App-4 [-wait]
      streaming job: binds to the corpus prefix, re-solves per upload
      (-wait follows its published versions)
  sherlock watch -server URL -job JOB-ID [-after N]
      follow an existing job's published versions
  sherlock status -server URL JOB-ID
  sherlock status -server URL -result KEY
  sherlock status -server URL -list [-filter done]
      job status, stored results, and the job listing
  sherlock cluster -server URL
      cluster membership and peer liveness as the daemon sees it
`)
}

func cmdCapture(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("capture", flag.ExitOnError)
	corpus := fs.String("corpus", "", "ingest the runs into the trace corpus at this directory")
	tracesDir := fs.String("traces", "", "write one JSONL trace per test to this directory (needs -app)")
	appName := fs.String("app", "", "capture only this application (default all; required with -traces)")
	seed := fs.Int64("seed", 1, "base scheduler seed")
	fs.Parse(args)
	switch {
	case (*corpus == "") == (*tracesDir == ""):
		die(fmt.Errorf("capture: exactly one of -corpus or -traces is required"))
	case *corpus != "":
		die(captureToCorpus(ctx, *appName, *corpus, *seed))
	case *appName == "":
		die(fmt.Errorf("capture: -traces requires -app"))
	default:
		app, err := apps.ByName(*appName)
		die(err)
		die(dumpTraces(app, *tracesDir, *seed))
	}
}

func cmdInfer(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("infer", flag.ExitOnError)
	appName := fs.String("app", "", "application id (App-1..App-8 or gen:<seed>[,profile=...][,size=...]); with -corpus, a filter")
	corpus := fs.String("corpus", "", "offline: infer from this trace corpus")
	tracesDir := fs.String("traces", "", "offline: infer from the JSONL traces in this directory")
	rounds := fs.Int("rounds", 3, "rounds per test input")
	lambda := fs.Float64("lambda", 0.2, "Mostly-Protected trade-off knob")
	near := fs.Int64("near", 1_000_000, "conflict window in virtual ns")
	seed := fs.Int64("seed", 1, "base scheduler seed")
	dist := fs.String("dist", "", "scheduler step distribution: uniform (default), zipf, or bursty")
	parallel := fs.Int("p", 0, "worker pool size per round (0 = GOMAXPROCS)")
	verbose := fs.Bool("v", false, "print per-round snapshots")
	traceOut := fs.String("trace-out", "", "write the campaign's span event log as JSON lines to this file")
	fs.Parse(args)

	switch {
	case *corpus != "":
		observer, closeLog, err := traceObserver(*traceOut)
		die(err)
		die(firstErr(analyzeCorpus(ctx, *corpus, *appName, *lambda, *near, observer), closeLog()))
	case *tracesDir != "":
		observer, closeLog, err := traceObserver(*traceOut)
		die(err)
		die(firstErr(analyzeTraces(ctx, *tracesDir, *lambda, *near, observer), closeLog()))
	case *appName != "":
		app, err := apps.ByName(*appName)
		die(err)
		observer, closeLog, err := traceObserver(*traceOut)
		die(err)
		cfg := core.DefaultConfig()
		cfg.Rounds = *rounds
		cfg.Solver.Lambda = *lambda
		cfg.Window.Near = *near
		cfg.Seed = *seed
		cfg.Parallelism = *parallel
		cfg.StepDist = *dist
		cfg.Observer = observer
		res, err := core.Infer(ctx, app, cfg)
		die(firstErr(err, closeLog()))
		printResult(app, res, *verbose)
	default:
		die(fmt.Errorf("infer: one of -app, -corpus, or -traces is required"))
	}
}

// cmdStatic runs static (run-free) inference locally. A daemon computes
// the same report as a job: `sherlock submit -static-app X -wait`.
func cmdStatic(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("static", flag.ExitOnError)
	appName := fs.String("app", "", "application id (App-1..App-8 or gen:<seed>[,profile=...][,size=...])")
	all := fs.Bool("all", false, "static-only sweep over everything the program registry exposes")
	lambda := fs.Float64("lambda", 0.2, "Mostly-Protected trade-off knob")
	near := fs.Int64("near", 1_000_000, "conflict window in virtual ns")
	verbose := fs.Bool("v", false, "print solver overhead")
	fs.Parse(args)
	switch {
	case *all:
		die(runStaticAll(ctx))
	case *appName != "":
		die(runStaticLocal(ctx, *appName, *lambda, *near, *verbose))
	default:
		die(fmt.Errorf("static: -app or -all is required"))
	}
}

// cmdEval runs the paper's whole evaluation and prints every section. It
// takes no flags: EXPERIMENTS.md and internal/exper's golden file are
// checked against exactly this output.
func cmdEval(ctx context.Context, args []string) {
	if len(args) > 0 {
		usage(os.Stderr)
		os.Exit(2)
	}
	die(exper.Evaluate(ctx, os.Stdout))
}

func cmdUpload(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("upload", flag.ExitOnError)
	server := fs.String("server", "", "sherlockd base URL (required)")
	fs.Parse(args)
	if *server == "" {
		die(fmt.Errorf("upload: -server is required"))
	}
	if fs.NArg() == 0 {
		die(fmt.Errorf("upload: at least one trace file is required"))
	}
	for _, path := range fs.Args() {
		die(uploadTrace(ctx, *server, path))
	}
}

func cmdSubmit(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	server := fs.String("server", "", "sherlockd base URL (required)")
	appName := fs.String("app", "", "submit an application campaign job")
	keys := fs.String("keys", "", "submit an offline job over comma-separated corpus keys")
	watchApp := fs.String("watch-app", "", "submit a streaming watch job bound to this corpus app")
	staticApp := fs.String("static-app", "", "submit a run-free static inference job for this application")
	rounds := fs.Int("rounds", 0, "rounds override (0 = server default)")
	lambda := fs.Float64("lambda", 0, "lambda override (0 = server default)")
	near := fs.Int64("near", 0, "near-window override (0 = server default)")
	seed := fs.Int64("seed", 0, "seed override (0 = server default)")
	wait := fs.Bool("wait", false, "wait for the job to finish and print its result")
	fs.Parse(args)
	if *server == "" {
		die(fmt.Errorf("submit: -server is required"))
	}
	spec := submitSpec{App: *appName, WatchApp: *watchApp, StaticApp: *staticApp,
		Rounds: *rounds, Lambda: *lambda, Near: *near, Seed: *seed}
	for _, k := range strings.Split(*keys, ",") {
		if k = strings.TrimSpace(k); k != "" {
			spec.TraceKeys = append(spec.TraceKeys, k)
		}
	}
	if spec.App == "" && spec.TraceKeys == nil && spec.WatchApp == "" && spec.StaticApp == "" {
		die(fmt.Errorf("submit: one of -app, -keys, -watch-app, or -static-app is required"))
	}
	die(postJobSpec(ctx, *server, spec, *wait))
}

func cmdWatch(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	server := fs.String("server", "", "sherlockd base URL (required)")
	jobID := fs.String("job", "", "follow this job id (required)")
	after := fs.Uint64("after", 0, "resume from this published version")
	fs.Parse(args)
	if *server == "" {
		die(fmt.Errorf("watch: -server is required"))
	}
	if *jobID == "" {
		die(fmt.Errorf("watch: -job is required (create a watch job with 'submit -watch-app X')"))
	}
	die(watchJob(ctx, *server, *jobID, *after))
}

func cmdStatus(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	server := fs.String("server", "", "sherlockd base URL (required)")
	result := fs.String("result", "", "fetch a result by content key")
	list := fs.Bool("list", false, "list job records")
	filter := fs.String("filter", "", "with -list: only this status (queued, running, watching, done, failed, canceled)")
	fs.Parse(args)
	if *server == "" {
		die(fmt.Errorf("status: -server is required"))
	}
	switch {
	case *result != "":
		die(printServerResult(ctx, *server, *result))
	case *list:
		die(listJobs(ctx, *server, *filter))
	case fs.NArg() == 1:
		die(printJobStatus(ctx, *server, fs.Arg(0)))
	default:
		die(fmt.Errorf("status: a job id, -result KEY, or -list is required"))
	}
}

func cmdCluster(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("cluster", flag.ExitOnError)
	server := fs.String("server", "", "sherlockd base URL (required)")
	fs.Parse(args)
	if *server == "" {
		die(fmt.Errorf("cluster: -server is required"))
	}
	die(printClusterInfo(ctx, *server))
}
