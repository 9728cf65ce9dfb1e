// Corpus mode for the sherlock CLI: capture benchmark runs into a
// content-addressed trace corpus on disk, run offline inference straight
// from a corpus, and upload trace files into sherlockd's corpus.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"

	"sherlock/internal/apps"
	"sherlock/internal/core"
	"sherlock/internal/prog"
	"sherlock/internal/sched"
	"sherlock/internal/store"
	"sherlock/internal/trace"
)

// captureToCorpus executes every test of the selected applications once
// and ingests each trace into the corpus at dir. Re-capturing with the
// same seed dedups: the corpus is keyed by trace content, not by run.
func captureToCorpus(ctx context.Context, appName, dir string, seed int64) error {
	var programs []*prog.Program
	if appName != "" {
		app, err := apps.ByName(appName)
		if err != nil {
			return err
		}
		programs = append(programs, app)
	} else {
		programs = apps.All()
	}
	c, err := store.Open(dir)
	if err != nil {
		return err
	}
	added, dedup := 0, 0
	for _, app := range programs {
		for i, test := range app.Tests {
			if err := ctx.Err(); err != nil {
				return err
			}
			run, err := sched.Run(app, test, sched.Options{Seed: seed + int64(i)})
			if err != nil {
				return fmt.Errorf("%s/%s: %w", app.Name, test.Name, err)
			}
			entry, isNew, err := c.Ingest(run.Trace)
			if err != nil {
				return err
			}
			verb := "stored"
			if !isNew {
				verb = "dedup "
				dedup++
			} else {
				added++
			}
			fmt.Printf("%s %s  %s/%s (%d events)\n", verb, entry.Key[:12], app.Name, test.Name, entry.Events)
		}
	}
	traces, bytesOnDisk, events := c.Stats()
	fmt.Printf("corpus %s: +%d stored, %d dedup; now %d traces, %d events, %d bytes\n",
		dir, added, dedup, traces, events, bytesOnDisk)
	return nil
}

// analyzeCorpus streams every trace in the corpus at dir (optionally only
// those captured from appFilter) through the offline inference path. The
// corpus-backed source decodes one trace at a time, so memory stays
// bounded by the largest single trace rather than the corpus size.
func analyzeCorpus(ctx context.Context, dir, appFilter string, lambda float64, near int64, observer core.Observer) error {
	c, err := store.Open(dir)
	if err != nil {
		return err
	}
	var keys []string
	for _, e := range c.Entries() {
		if appFilter == "" || e.App == appFilter {
			keys = append(keys, e.Key)
		}
	}
	if len(keys) == 0 {
		if appFilter != "" {
			return fmt.Errorf("no traces for app %q in corpus %s", appFilter, dir)
		}
		return fmt.Errorf("corpus %s is empty", dir)
	}
	cfg := core.DefaultConfig()
	cfg.Solver.Lambda = lambda
	cfg.Window.Near = near
	cfg.Observer = observer
	res, err := core.InferFromSource(ctx, c.Source(keys...), cfg)
	if err != nil {
		return err
	}
	fmt.Printf("%d traces, %d windows, %d inferred operations\n\n",
		len(keys), res.Overhead.Windows, len(res.Inferred))
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

// uploadTrace POSTs one trace file (binary or JSONL — the daemon sniffs)
// to /v1/traces and prints the content key it was stored under.
func uploadTrace(ctx context.Context, base, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/traces", bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		return apiError("upload "+path, resp.Status, body)
	}
	var v struct {
		Key    string `json:"key"`
		App    string `json:"app"`
		Events int    `json:"events"`
		Dedup  bool   `json:"dedup"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return fmt.Errorf("upload %s: bad response: %w", path, err)
	}
	verb := "stored"
	if v.Dedup {
		verb = "dedup"
	}
	fmt.Printf("%s %s  %s (%d events) from %s\n", verb, v.Key, v.App, v.Events, path)
	return nil
}
