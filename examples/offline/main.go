// Offline: the paper's workflow split into its two halves — capture test
// executions as serialized log files first, analyze them later, the way the
// artifact's instrumented binaries materialize per-run logs for the solver
// script. Useful when traces come from a different machine (or a different
// instrumentation altogether).
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"sherlock"
	"sherlock/internal/prog"
)

func main() {
	app := sherlock.NewProgram("offline-demo", "OfflineDemo")
	app.AddMethod("Work.Queue::Producer",
		prog.CpJ(300, 0.8),
		prog.Wr("Work.Queue::item", "q", 1),
		prog.Cp(40),
		prog.Set("item-ready"),
	)
	app.AddMethod("Work.Queue::Consumer",
		prog.CpJ(450, 0.95),
		prog.Wait("item-ready"),
		prog.Cp(30),
		prog.Rd("Work.Queue::item", "q"),
	)
	app.AddTest("Tests::ProduceConsume",
		prog.Go(prog.ForkThread, "Work.Queue::Consumer", "q", "h1"),
		prog.Go(prog.ForkThread, "Work.Queue::Producer", "q", "h2"),
		prog.JoinT("h1"), prog.JoinT("h2"),
	)

	// Phase 1: capture. Each run becomes one JSONL document (here an
	// in-memory buffer; `sherlock capture -traces` writes real files).
	var files []bytes.Buffer
	for seed := int64(1); seed <= 5; seed++ {
		tr, err := sherlock.CaptureTrace(context.Background(), app, app.Tests[0], seed)
		if err != nil {
			log.Fatal(err)
		}
		var f bytes.Buffer
		if err := tr.Write(&f); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("captured run %d: %d events, %d bytes serialized\n",
			seed, tr.Len(), f.Len())
		files = append(files, f)
	}

	// Phase 2: analyze, possibly much later and elsewhere.
	var traces []*sherlock.Trace
	for i := range files {
		tr, err := sherlock.ReadTrace(&files[i])
		if err != nil {
			log.Fatal(err)
		}
		traces = append(traces, tr)
	}
	res, err := sherlock.InferFromTraces(context.Background(), traces, sherlock.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\noffline analysis: %d windows, %d inferred operations\n",
		res.Overhead.Windows, len(res.Inferred))
	for _, s := range res.Inferred {
		fmt.Printf("  %-8s %s\n", s.Role, s.Key.Display())
	}
}
