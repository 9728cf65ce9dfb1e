package sched_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sherlock/internal/gen"
	"sherlock/internal/sched"
	"sherlock/internal/store"
	"sherlock/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/gen_trace_keys.txt from the current code")

// TestGenTraceKeysGolden pins the scheduler's traces beyond the built-in
// apps: for gen:1..4 of every profile at size 4, every test runs at seed
// 1 once without a plan and once with every true release delayed, and
// one line per run holds the trace's content key (store.Key) and the
// number of delays applied. Run with -update to rewrite the file after
// a deliberate change of traces.
func TestGenTraceKeysGolden(t *testing.T) {
	var got bytes.Buffer
	for _, profile := range gen.Profiles {
		for k := int64(1); k <= 4; k++ {
			name := gen.Spec{Seed: k, Profile: profile, Size: 4}.Name()
			p, err := gen.FromName(name)
			if err != nil {
				t.Fatal(err)
			}
			plan := map[trace.Key]int64{}
			for key, role := range p.Truth.Syncs {
				if role == trace.RoleRelease {
					plan[key] = 100_000
				}
			}
			for _, test := range p.Tests {
				for _, delays := range []map[trace.Key]int64{nil, plan} {
					res, err := sched.Run(p, test, sched.Options{Seed: 1, Delays: delays, HiddenMethods: p.Truth.HiddenMethods})
					if err != nil {
						t.Fatalf("%s %s: %v", name, test.Name, err)
					}
					key, err := store.Key(res.Trace)
					if err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(&got, "%s %s planned=%t delays=%d key=%s\n", name, test.Name, delays != nil, len(res.Delays), key)
					res.Recycle()
				}
			}
		}
	}

	path := filepath.Join("testdata", "gen_trace_keys.txt")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	for i, line := range strings.Split(got.String(), "\n") {
		if i >= len(wantLines) || line != wantLines[i] {
			t.Fatalf("golden mismatch at line %d:\n got: %s\nwant: %s", i+1, line, wantLines[min(i, len(wantLines)-1)])
		}
	}
	t.Fatalf("golden has %d lines, the runs produced fewer", len(wantLines))
}
