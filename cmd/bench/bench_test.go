package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"sherlock/internal/server"
)

// TestCommittedRecordsMatchSchema decodes every registered suite's
// committed BENCH_<name>.json strictly into the suite's result type and
// requires every field that is not omitempty to be present, so a record
// cannot go stale against the code that writes it.
func TestCommittedRecordsMatchSchema(t *testing.T) {
	for _, name := range suiteNames() {
		t.Run(name, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_"+name+".json"))
			if err != nil {
				t.Fatalf("no committed record: %v", err)
			}
			dec := json.NewDecoder(bytes.NewReader(raw))
			dec.DisallowUnknownFields()
			rec := suites[name].schema()
			if err := dec.Decode(rec); err != nil {
				t.Fatalf("decode into %T: %v", rec, err)
			}
			var doc any
			if err := json.Unmarshal(raw, &doc); err != nil {
				t.Fatal(err)
			}
			for _, missing := range missingFields(reflect.TypeOf(rec).Elem(), doc, "") {
				t.Errorf("record lacks field %s", missing)
			}
		})
	}
}

// missingFields walks the struct type typ alongside the decoded JSON doc
// and returns the paths of non-omitempty fields absent from doc.
func missingFields(typ reflect.Type, doc any, path string) []string {
	switch typ.Kind() {
	case reflect.Struct:
		obj, ok := doc.(map[string]any)
		if !ok {
			return []string{path + " (not an object)"}
		}
		var missing []string
		for i := 0; i < typ.NumField(); i++ {
			tag := typ.Field(i).Tag.Get("json")
			key, opts, _ := strings.Cut(tag, ",")
			if key == "" || key == "-" {
				continue
			}
			v, ok := obj[key]
			if !ok {
				if !strings.Contains(opts, "omitempty") {
					missing = append(missing, path+"."+key)
				}
				continue
			}
			missing = append(missing, missingFields(typ.Field(i).Type, v, path+"."+key)...)
		}
		return missing
	case reflect.Slice:
		arr, _ := doc.([]any)
		var missing []string
		for i, el := range arr {
			missing = append(missing, missingFields(typ.Elem(), el, fmt.Sprintf("%s[%d]", path, i))...)
		}
		return missing
	}
	return nil
}

// TestRunJob drives the shared job client against an in-process daemon:
// a campaign comes back done (then cached), a job that fails on the
// server is reported with its status, and a rejected submission surfaces
// the HTTP status of the error envelope.
func TestRunJob(t *testing.T) {
	newDaemon := func(timeout time.Duration) string {
		cfg := server.DefaultConfig()
		cfg.Inference.Rounds = 1
		cfg.JobTimeout = timeout
		srv, err := server.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(srv.Handler())
		t.Cleanup(func() { hs.Close(); srv.Close() })
		return hs.URL
	}

	base := newDaemon(time.Minute)
	spec := map[string]any{"app": "App-2", "seed": 7}
	v, err := runJob(base, spec)
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != "done" || v.Key == "" || v.Cached {
		t.Fatalf("first run: %+v, want a fresh done job with a key", v)
	}
	hit, err := runJob(base, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached || hit.Key != v.Key {
		t.Fatalf("resubmission: %+v, want a cache hit on key %s", hit, v.Key)
	}

	if _, err := runJob(base, map[string]any{}); err == nil || !strings.Contains(err.Error(), "HTTP 400") {
		t.Fatalf("empty spec: err %v, want the HTTP 400 envelope", err)
	}

	if _, err := runJob(newDaemon(time.Nanosecond), spec); err == nil || !strings.Contains(err.Error(), "ended failed") {
		t.Fatalf("timed-out job: err %v, want a failed job", err)
	}
}
