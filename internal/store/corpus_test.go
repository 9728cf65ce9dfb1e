package store

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"sherlock/internal/trace"
)

func openTestCorpus(t *testing.T) *Corpus {
	t.Helper()
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCorpusIngestAndGet(t *testing.T) {
	c := openTestCorpus(t)
	tr := sampleTrace()
	e, added, err := c.Ingest(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !added {
		t.Fatal("first ingest must report added")
	}
	if e.App != tr.App || e.Test != tr.Test || e.Seed != tr.Seed || e.Events != len(tr.Events) {
		t.Errorf("bad entry: %+v", e)
	}
	wantKey, err := Key(tr)
	if err != nil {
		t.Fatal(err)
	}
	if e.Key != wantKey {
		t.Errorf("entry key %s != Key() %s", e.Key, wantKey)
	}
	got, err := c.Get(e.Key)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Events, tr.Events) {
		t.Error("stored trace does not round-trip")
	}
	if _, err := c.Get("feedfacedeadbeef"); err == nil {
		t.Error("missing key should error")
	}
}

// Acceptance: uploading the same trace twice dedups to one blob.
func TestCorpusDedup(t *testing.T) {
	c := openTestCorpus(t)
	tr := sampleTrace()
	e1, added1, err := c.Ingest(tr)
	if err != nil {
		t.Fatal(err)
	}
	e2, added2, err := c.Ingest(sampleTrace()) // equal content, distinct value
	if err != nil {
		t.Fatal(err)
	}
	if !added1 || added2 {
		t.Fatalf("dedup broken: added1=%v added2=%v", added1, added2)
	}
	if e1.Key != e2.Key {
		t.Fatalf("same trace hashed to %s and %s", e1.Key, e2.Key)
	}
	if c.Len() != 1 {
		t.Fatalf("corpus has %d entries, want 1", c.Len())
	}
	// Exactly one blob file on disk.
	keys, err := c.scanBlobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != e1.Key {
		t.Fatalf("blobs on disk: %v", keys)
	}
	// A different trace is a different blob.
	other := sampleTrace()
	other.Seed++
	e3, added3, err := c.Ingest(other)
	if err != nil {
		t.Fatal(err)
	}
	if !added3 || e3.Key == e1.Key {
		t.Fatalf("distinct trace must get a distinct blob (added=%v)", added3)
	}
}

func TestCorpusDeterministicIteration(t *testing.T) {
	c := openTestCorpus(t)
	var want []string
	for i := 0; i < 8; i++ {
		tr := sampleTrace()
		tr.Seed = int64(i)
		e, _, err := c.Ingest(tr)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, e.Key)
	}
	sort.Strings(want)
	for trial := 0; trial < 3; trial++ {
		var got []string
		for _, e := range c.Entries() {
			got = append(got, e.Key)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iteration order not deterministic/sorted: %v", got)
		}
	}
	if got := c.Source().Keys(); !reflect.DeepEqual(got, want) {
		t.Fatalf("source order %v != sorted keys %v", got, want)
	}
}

// TestCorpusReopen: Open indexes the blob tree as it finds it. A blob
// renamed into place by an ingest that never returned is indexed; a
// byte-flipped blob and a stray file stay on disk but out of the index
// without failing Open, and re-ingesting the flipped trace repairs it.
func TestCorpusReopen(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var kept []Entry
	for seed := int64(0); seed < 3; seed++ {
		tr := sampleTrace()
		tr.Seed = seed
		e, _, err := c.Ingest(tr)
		if err != nil {
			t.Fatal(err)
		}
		kept = append(kept, e)
	}
	flipped := kept[1]
	kept = append(kept[:1], kept[2:]...)

	// The crash-after-rename state: a valid blob in place, never ingested.
	crashed := sampleTrace()
	crashed.Seed = 99
	data, err := EncodeTrace(crashed)
	if err != nil {
		t.Fatal(err)
	}
	crashedKey, err := Key(crashed)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(c.BlobPath(crashedKey)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.BlobPath(crashedKey), data, 0o644); err != nil {
		t.Fatal(err)
	}
	bad, err := os.ReadFile(c.BlobPath(flipped.Key))
	if err != nil {
		t.Fatal(err)
	}
	bad[len(bad)-3] ^= 0x01
	if err := os.WriteFile(c.BlobPath(flipped.Key), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(dir, "blobs", "zz", "not-a-key")
	if err := os.MkdirAll(filepath.Dir(stray), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(stray, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(dir)
	if err != nil {
		t.Fatalf("one bad file must not fail Open: %v", err)
	}
	e, ok := c2.Entry(crashedKey)
	if !ok || e.Seed != 99 || e.Size != int64(len(data)) {
		t.Fatalf("renamed-but-uncommitted blob not indexed: %+v ok=%v", e, ok)
	}
	if !c2.HasBlob(crashedKey) {
		t.Fatal("HasBlob disagrees with Entry on the reopened blob")
	}
	if _, ok := c2.Entry(flipped.Key); ok || c2.HasBlob(flipped.Key) {
		t.Fatal("a blob failing its hash check must stay out of the index")
	}
	for _, e := range kept {
		if got, ok := c2.Entry(e.Key); !ok || got != e {
			t.Fatalf("entry %s after reopen: %+v ok=%v, want %+v", e.Key, got, ok, e)
		}
	}
	if c2.Len() != len(kept)+1 {
		t.Fatalf("reopened corpus has %d entries, want %d", c2.Len(), len(kept)+1)
	}

	var fired []string
	c2.OnIngest(func(e Entry) { fired = append(fired, e.Key) })
	tr := sampleTrace()
	tr.Seed = flipped.Seed
	e, added, err := c2.Ingest(tr)
	if err != nil || !added || e != flipped {
		t.Fatalf("re-ingest of the flipped trace: %+v added=%v err=%v", e, added, err)
	}
	if !reflect.DeepEqual(fired, []string{flipped.Key}) {
		t.Fatalf("OnIngest fired for %v, want the flipped key", fired)
	}
	rep, err := c2.Verify()
	if err != nil {
		t.Fatal(err)
	}
	want := &VerifyReport{Checked: len(kept) + 2, Orphans: []string{"not-a-key"}}
	if !reflect.DeepEqual(rep, want) {
		t.Fatalf("verify after repair: %+v, want %+v", rep, want)
	}
}

func TestCorpusVerify(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e, _, err := c.Ingest(sampleTrace())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.Checked != 1 || rep.Err() != nil {
		t.Fatalf("fresh corpus must verify clean, got %+v", rep)
	}
	// Corrupt one byte of the blob: Verify must classify it as corrupt.
	path := c.BlobPath(e.Key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = c.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Corrupt) != 1 || rep.Corrupt[0] != e.Key || rep.Err() == nil {
		t.Fatalf("corrupt blob must be reported, got %+v", rep)
	}
	if err := os.WriteFile(path, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = c.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Corrupt) != 1 {
		t.Fatalf("truncated blob must be reported corrupt, got %+v", rep)
	}
	// A deleted blob is reported missing (not an I/O error) — and
	// HasBlob flips, which is what anti-entropy keys its re-pull on.
	if !c.HasBlob(e.Key) {
		t.Fatal("HasBlob must see the truncated blob")
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if c.HasBlob(e.Key) {
		t.Fatal("HasBlob must report a removed blob as absent")
	}
	rep, err = c.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Missing) != 1 || rep.Missing[0] != e.Key || len(rep.Corrupt) != 0 {
		t.Fatalf("removed blob must be reported missing, got %+v", rep)
	}
	c2 := openTestCorpus(t)
	e2, _, err := c2.Ingest(sampleTrace())
	if err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(c2.dir, "blobs", "or", "orphan")
	if err := os.MkdirAll(filepath.Dir(orphan), 0o755); err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(c2.BlobPath(e2.Key))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(orphan, src, 0o644); err != nil {
		t.Fatal(err)
	}
	rep2, err := c2.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Orphans) != 1 || rep2.Orphans[0] != "orphan" {
		t.Fatalf("orphan blob must be reported, got %+v", rep2)
	}
	if !strings.Contains(rep2.Err().Error(), "orphan") {
		t.Fatalf("report error must mention orphans: %v", rep2.Err())
	}

	// DropBlob + re-Ingest is the repair cycle: the manifest entry
	// survives without its blob, and ingesting the same trace rewrites it.
	if err := c2.DropBlob(e2.Key); err != nil {
		t.Fatal(err)
	}
	if c2.HasBlob(e2.Key) {
		t.Fatal("DropBlob left the blob in place")
	}
	if _, added, err := c2.Ingest(sampleTrace()); err != nil || !added {
		t.Fatalf("re-ingest after DropBlob: added=%v err=%v", added, err)
	}
	blob, err := c2.ReadBlob(e2.Key)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(blob)) != e2.Size {
		t.Fatalf("rewritten blob is %d bytes, want %d", len(blob), e2.Size)
	}
}

// Atomic ingest: the staging area never leaks temp files, and concurrent
// ingests of identical and distinct traces (under -race) leave the corpus
// consistent.
func TestCorpusConcurrentIngest(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers*2)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			same := sampleTrace() // identical across workers → one blob
			if _, _, err := c.Ingest(same); err != nil {
				errs <- err
			}
			own := sampleTrace() // distinct per worker → one blob each
			own.Seed = 1000 + int64(w)
			if _, _, err := c.Ingest(own); err != nil {
				errs <- err
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if c.Len() != workers+1 {
		t.Fatalf("corpus has %d entries, want %d", c.Len(), workers+1)
	}
	if rep, err := c.Verify(); err != nil || !rep.Clean() {
		t.Fatalf("verify after concurrent ingest: %v %+v", err, rep)
	}
	// tmp/ staging area is empty after all renames.
	left, err := os.ReadDir(filepath.Join(dir, "tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("staging area leaked %d files", len(left))
	}
	// A reopened corpus sees the same index.
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c2.Entries(), c.Entries()) {
		t.Fatal("reopened corpus index differs")
	}
}

// Decode sniffs the serialization format.
func TestDecodeSniffing(t *testing.T) {
	tr := sampleTrace()
	bin, err := EncodeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	var jsonBuf bytes.Buffer
	if err := tr.Write(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	fromBin, err := DecodeBytes(bin)
	if err != nil {
		t.Fatal(err)
	}
	fromJSON, err := DecodeBytes(jsonBuf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromBin.Events, fromJSON.Events) {
		t.Fatal("sniffed decodes disagree")
	}
	if _, err := DecodeBytes([]byte("neither format")); err == nil {
		t.Fatal("junk should not decode")
	}
}

// Corpus.Source plugs into the offline solve via the structural
// TraceSource interface; here we just assert the stream content.
func TestCorpusSourceStreams(t *testing.T) {
	c := openTestCorpus(t)
	var want []string
	for i := 0; i < 3; i++ {
		tr := sampleTrace()
		tr.Seed = int64(i)
		e, _, err := c.Ingest(tr)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, e.Key)
	}
	var got []string
	err := c.Source(want[2], want[0]).Traces(context.Background(), func(tr *trace.Trace) error {
		k, err := Key(tr)
		if err != nil {
			return err
		}
		got = append(got, k)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []string{want[2], want[0]}) {
		t.Fatalf("explicit key order not honored: %v", got)
	}
	if err := c.Source("no-such-key").Traces(context.Background(), func(*trace.Trace) error { return nil }); err == nil {
		t.Fatal("missing key must surface as an error")
	}
}

// TestValidKey: only 64 lowercase hex digits name a blob.
func TestValidKey(t *testing.T) {
	good := strings.Repeat("0123456789abcdef", 4)
	for key, want := range map[string]bool{
		good:                            true,
		strings.ToUpper(good):           false,
		good[:63]:                       false,
		good + "0":                      false,
		good[:62] + "g0":                false,
		"":                              false,
		"../" + good[3:]:                false,
		strings.Repeat("../", 21) + "x": false,
	} {
		if got := ValidKey(key); got != want {
			t.Errorf("ValidKey(%q) = %v, want %v", key, got, want)
		}
	}
	tr := sampleTrace()
	key, err := Key(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !ValidKey(key) {
		t.Fatalf("ValidKey rejects the content address %q", key)
	}
}

// TestInvalidKeyNeverNamesAFile: a key that is not a content address is
// not found by Get, ReadBlob and HasBlob, and DropBlob leaves alone the
// file it points at, even when that file exists.
func TestInvalidKeyNeverNamesAFile(t *testing.T) {
	c := openTestCorpus(t)
	outside := filepath.Join(t.TempDir(), "victim")
	if err := os.WriteFile(outside, []byte("keep me"), 0o600); err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("../", 64) + strings.TrimPrefix(filepath.ToSlash(outside), "/")
	if _, err := os.Stat(c.BlobPath(key)); err != nil {
		t.Fatalf("the key does not reach the file, the check proves nothing: %v", err)
	}
	if _, err := c.Get(key); err == nil {
		t.Error("Get found a blob under a traversal key")
	}
	if data, err := c.ReadBlob(key); err == nil {
		t.Errorf("ReadBlob returned %q under a traversal key", data)
	}
	if c.HasBlob(key) {
		t.Error("HasBlob reports a blob under a traversal key")
	}
	if err := c.DropBlob(key); err != nil {
		t.Errorf("DropBlob: %v", err)
	}
	if _, err := os.Stat(outside); err != nil {
		t.Fatalf("DropBlob removed the file outside the corpus: %v", err)
	}
}
