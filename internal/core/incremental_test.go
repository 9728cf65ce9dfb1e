package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"sherlock/internal/apps"
	"sherlock/internal/sched"
	"sherlock/internal/store"
	"sherlock/internal/trace"
)

// captureKeyed runs every test of app under a few seeds and returns the
// traces with their corpus content addresses, sorted by key.
func captureKeyed(t *testing.T, appName string, seeds int) []KeyedTrace {
	t.Helper()
	app, err := apps.ByName(appName)
	if err != nil {
		t.Fatal(err)
	}
	app.MustFinalize()
	var out []KeyedTrace
	for _, tc := range app.Tests {
		for s := 0; s < seeds; s++ {
			r, err := sched.Run(app, tc, sched.Options{Seed: int64(1 + s)})
			if err != nil {
				t.Fatalf("%s/%s seed %d: %v", appName, tc.Name, s, err)
			}
			key, err := store.Key(r.Trace)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, KeyedTrace{Key: key, Trace: r.Trace})
		}
	}
	sortKeyed(out)
	return out
}

func sortKeyed(kts []KeyedTrace) {
	for i := 1; i < len(kts); i++ {
		for j := i; j > 0 && kts[j].Key < kts[j-1].Key; j-- {
			kts[j], kts[j-1] = kts[j-1], kts[j]
		}
	}
}

// resultBytes marshals a result with its wall-clock overhead fields zeroed
// — the only fields allowed to differ between equivalent solves.
func resultBytes(t *testing.T, r *Result) []byte {
	t.Helper()
	c := *r
	c.Overhead.RunWall = 0
	c.Overhead.SolveWall = 0
	b, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestIncrementalGoldenAllApps is the tentpole invariant: for every
// benchmark app and for adversarial upload orders — reverse-key one at a
// time, interleaved batches, duplicate deliveries — the final incremental
// result is byte-identical (modulo wall clock) to a from-scratch offline
// solve over the full trace set. A checkpoint copied from the exported
// fields mid-stream is refused.
func TestIncrementalGoldenAllApps(t *testing.T) {
	ctx := context.Background()
	for _, app := range apps.All() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig()
			kts := captureKeyed(t, app.Name, 2)
			if len(kts) < 2 {
				t.Fatalf("%s: need at least 2 traces, got %d", app.Name, len(kts))
			}

			var sorted []*trace.Trace
			for _, kt := range kts {
				sorted = append(sorted, kt.Trace)
			}
			want, err := InferFromSource(ctx, SliceSource(sorted), cfg)
			if err != nil {
				t.Fatal(err)
			}
			wantB := resultBytes(t, want)

			// Order A: one trace at a time, in reverse key order. Between
			// every step, a copy of the checkpoint built from its exported
			// fields must be refused: it lacks the accumulator a fold reads.
			ck := NewCheckpoint(cfg)
			var got *Result
			for i := len(kts) - 1; i >= 0; i-- {
				got, ck, err = InferIncremental(ctx, ck, KeyedSlice{kts[i]}, cfg)
				if err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				copied := &Checkpoint{ConfigSig: ck.ConfigSig, Extracts: ck.Extracts, Basis: ck.Basis, Result: ck.Result}
				if _, _, err := InferIncremental(ctx, copied, KeyedSlice{kts[max(i-1, 0)]}, cfg); err == nil {
					t.Fatalf("step %d: a checkpoint copied from its exported fields was accepted", i)
				}
			}
			if gotB := resultBytes(t, got); !bytes.Equal(gotB, wantB) {
				t.Errorf("reverse-order incremental differs from from-scratch\n got: %s\nwant: %s", gotB, wantB)
			}

			// Order B: interleaved batches (odd indices first), then a
			// duplicate re-delivery of the first batch mixed with the rest.
			var odd, even KeyedSlice
			for i, kt := range kts {
				if i%2 == 1 {
					odd = append(odd, kt)
				} else {
					even = append(even, kt)
				}
			}
			ck2 := NewCheckpoint(cfg)
			if _, ck2, err = InferIncremental(ctx, ck2, odd, cfg); err != nil {
				t.Fatal(err)
			}
			// Duplicates of already-covered traces must be ignored.
			got2, ck2, err := InferIncremental(ctx, ck2, append(append(KeyedSlice{}, odd...), even...), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if gotB := resultBytes(t, got2); !bytes.Equal(gotB, wantB) {
				t.Errorf("batched incremental differs from from-scratch\n got: %s\nwant: %s", gotB, wantB)
			}

			// Re-delivering only covered traces returns the stored result
			// without re-solving.
			got3, ck3, err := InferIncremental(ctx, ck2, even, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if ck3 != ck2 {
				t.Error("no-op delivery should return the checkpoint unchanged")
			}
			if gotB := resultBytes(t, got3); !bytes.Equal(gotB, wantB) {
				t.Errorf("no-op delivery result differs from from-scratch")
			}
		})
	}
}

// captureCorpusOrder captures an app's traces the way the corpus
// benchmark workload does: six bases drawn from rand.NewSource(seed), each
// test i run at base+127·i with the app's hidden methods hidden. The
// traces come back in upload order, base by base.
func captureCorpusOrder(t *testing.T, appName string, seed int64) []KeyedTrace {
	t.Helper()
	app, err := apps.ByName(appName)
	if err != nil {
		t.Fatal(err)
	}
	app.MustFinalize()
	rng := rand.New(rand.NewSource(seed))
	var out []KeyedTrace
	for k := 0; k < 6; k++ {
		base := rng.Int63n(1 << 40)
		for i, tc := range app.Tests {
			r, err := sched.Run(app, tc, sched.Options{
				Seed:          base + int64(i)*127,
				HiddenMethods: app.Truth.HiddenMethods,
			})
			if err != nil {
				t.Fatalf("%s/%s base %d: %v", appName, tc.Name, base, err)
			}
			key, err := store.Key(r.Trace)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, KeyedTrace{Key: key, Trace: r.Trace})
		}
	}
	return out
}

// TestIncrementalEveryFoldMatchesScratch folds App-5's corpus-workload
// traces in one at a time. After every fold the result must equal a
// from-scratch solve over the covered traces in sorted-key order. Seeds 2
// and 32 are the two of seeds 1–40 whose sequences reach a degenerate
// optimum, where a fold warm-started from the previous basis once ended
// on another basis and one probability differed in its last bit.
func TestIncrementalEveryFoldMatchesScratch(t *testing.T) {
	if testing.Short() {
		t.Skip("two scratch solves per fold")
	}
	ctx := context.Background()
	cfg := DefaultConfig()
	for _, seed := range []int64{2, 32} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			kts := captureCorpusOrder(t, "App-5", seed)
			var ck *Checkpoint
			var covered []KeyedTrace
			for i, kt := range kts {
				got, next, err := InferIncremental(ctx, ck, KeyedSlice{kt}, cfg)
				if err != nil {
					t.Fatalf("fold %d: %v", i+1, err)
				}
				ck = next
				covered = append(covered, kt)
				sorted := append([]KeyedTrace(nil), covered...)
				sortKeyed(sorted)
				src := make(SliceSource, len(sorted))
				for j := range sorted {
					src[j] = sorted[j].Trace
				}
				want, err := InferFromSource(ctx, src, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if gotB, wantB := resultBytes(t, got), resultBytes(t, want); !bytes.Equal(gotB, wantB) {
					t.Fatalf("fold %d of %d differs from a from-scratch solve\n got: %s\nwant: %s", i+1, len(kts), gotB, wantB)
				}
			}
		})
	}
}

// TestIncrementalCorpusBatchesMatchFromScratch: two batches streamed from
// a corpus store, folded one after the other, equal a from-scratch solve
// over the whole corpus.
func TestIncrementalCorpusBatchesMatchFromScratch(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultConfig()
	kts := captureKeyed(t, "App-1", 2)

	corpus, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, kt := range kts {
		entry, _, err := corpus.Ingest(kt.Trace)
		if err != nil {
			t.Fatal(err)
		}
		if entry.Key != kt.Key {
			t.Fatalf("corpus key %s != precomputed %s", entry.Key, kt.Key)
		}
	}
	half := len(kts) / 2
	if half == 0 {
		t.Fatal("need at least 2 traces")
	}
	var keys1, keys2 []string
	for i, kt := range kts {
		if i < half {
			keys1 = append(keys1, kt.Key)
		} else {
			keys2 = append(keys2, kt.Key)
		}
	}

	ck := NewCheckpoint(cfg)
	if _, ck, err = InferIncremental(ctx, ck, corpus.Source(keys1...), cfg); err != nil {
		t.Fatal(err)
	}
	got, _, err := InferIncremental(ctx, ck, corpus.Source(keys2...), cfg)
	if err != nil {
		t.Fatal(err)
	}

	want, err := InferFromSource(ctx, corpus.Source(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if gotB, wantB := resultBytes(t, got), resultBytes(t, want); !bytes.Equal(gotB, wantB) {
		t.Errorf("two-batch incremental result differs from from-scratch\n got: %s\nwant: %s", gotB, wantB)
	}
}

// TestCorpusWithLeftoverCheckpoints: corpora written by the removed refine
// mode hold a checkpoints/ directory of posterior blobs beside blobs/, and
// corpora written before the blob-tree index hold a manifest.json too. Such
// a corpus still reopens, with the old manifest left in place or removed,
// lists the same keys, verifies clean, and infers the same result.
func TestCorpusWithLeftoverCheckpoints(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultConfig()
	dir := t.TempDir()
	corpus, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, kt := range captureKeyed(t, "App-2", 1) {
		if _, _, err := corpus.Ingest(kt.Trace); err != nil {
			t.Fatal(err)
		}
	}
	want, err := InferFromSource(ctx, corpus.Source(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantKeys := corpus.Source().Keys()

	ckDir := filepath.Join(dir, "checkpoints")
	if err := os.MkdirAll(ckDir, 0o755); err != nil {
		t.Fatal(err)
	}
	posterior := []byte(`{"version":"sherlock-posterior-v1","app":"App-2","rounds":3}`)
	if err := os.WriteFile(filepath.Join(ckDir, "posterior-App-2"), posterior, 0o644); err != nil {
		t.Fatal(err)
	}
	// A stale manifest naming a key that is not on disk: Open must index
	// from the blob tree and not from this file.
	manifest := []byte(`{"version":1,"entries":{"deadbeef":{"key":"deadbeef","app":"App-2"}}}`)
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), manifest, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name         string
		dropManifest bool
	}{{"manifest", false}, {"rebuilt", true}} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.dropManifest {
				if err := os.Remove(filepath.Join(dir, "manifest.json")); err != nil {
					t.Fatal(err)
				}
			}
			c, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if got := c.Source().Keys(); !slices.Equal(got, wantKeys) {
				t.Fatalf("keys %v, want %v", got, wantKeys)
			}
			if rep, err := c.Verify(); err != nil || !rep.Clean() {
				t.Fatalf("verify: %v, report %+v", err, rep)
			}
			got, err := InferFromSource(ctx, c.Source(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if gotB, wantB := resultBytes(t, got), resultBytes(t, want); !bytes.Equal(gotB, wantB) {
				t.Errorf("result differs with checkpoints/ present\n got: %s\nwant: %s", gotB, wantB)
			}
		})
	}
}

// TestIncrementalRejectsMismatchedConfig: resuming a checkpoint under a
// config with a different offline-relevant signature must fail loudly.
func TestIncrementalRejectsMismatchedConfig(t *testing.T) {
	cfg := DefaultConfig()
	kts := captureKeyed(t, "App-2", 1)
	ck := NewCheckpoint(cfg)
	_, ck, err := InferIncremental(context.Background(), ck, KeyedSlice(kts), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Solver.Lambda = 0.5
	if _, _, err := InferIncremental(context.Background(), ck, nil, cfg2); err == nil {
		t.Fatal("want config-signature mismatch error")
	}
	// Rounds/Seed/Parallelism are offline-irrelevant and must NOT change
	// the signature.
	cfg3 := cfg
	cfg3.Rounds, cfg3.Seed, cfg3.Parallelism = 9, 42, 3
	if ConfigSignature(cfg3) != ConfigSignature(cfg) {
		t.Error("offline-irrelevant fields changed the config signature")
	}
}
