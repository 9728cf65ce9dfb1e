// Content-addressed trace corpus: a directory of canonical binary trace
// blobs keyed by the SHA-256 of their encoding. The blob tree is the
// only record: Open builds the in-memory index by scanning it.
//
// Layout:
//
//	<dir>/blobs/<kk>/<key>     one blob per unique trace, where <kk> is
//	                           the first two hex digits of the key
//	<dir>/tmp/                 staging area for atomic write-then-rename
//
// Ingestion is atomic and idempotent: the canonical encoding is staged
// under tmp/ on the same filesystem and renamed into place, so a crash
// never leaves a partial blob at a final path, and re-ingesting a trace
// that is already present (same content, hence same key) is a no-op dedup
// hit. An ingest is committed once its rename succeeds; nothing calls
// fsync, so a machine crash may still lose recent renames. Iteration
// order is deterministic (sorted by key). All methods are safe for
// concurrent use.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"sherlock/internal/obs"
	"sherlock/internal/trace"
)

// Entry is one corpus trace's index record.
type Entry struct {
	Key    string `json:"key"`        // SHA-256 of the canonical encoding, hex
	App    string `json:"app"`        // trace metadata
	Test   string `json:"test"`       //
	Seed   int64  `json:"seed"`       //
	Events int    `json:"events"`     // event count
	Size   int64  `json:"size_bytes"` // encoded blob size
}

// Corpus is an open trace corpus rooted at a directory.
type Corpus struct {
	dir string

	mu       sync.Mutex
	entries  map[string]Entry
	tracer   *obs.Tracer
	onIngest []func(Entry)
}

// OnIngest registers a hook called after every Ingest that stores a new
// blob (dedup hits never fire it). Hooks run outside the corpus lock, on
// the ingesting goroutine, after the blob is renamed into place and
// indexed — a hook that reads the corpus sees the new entry. The serving
// layer uses this to notify corpus-prefix subscriptions. Safe for
// concurrent use with ingestion; registration order is invocation order.
func (c *Corpus) OnIngest(fn func(Entry)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onIngest = append(c.onIngest, fn)
}

// SetTracer attaches an observability tracer: subsequent Ingest and Source
// decode operations record "ingest:<key>" / "decode:<key>" spans with
// codec timings and sizes. Span keys are content addresses, so the spans
// are deterministic for deterministic inputs. A nil tracer (the default)
// disables recording. Not safe to call concurrently with corpus
// operations; set it right after Open.
func (c *Corpus) SetTracer(t *obs.Tracer) { c.tracer = t }

// spanKey abbreviates a content address for span identity: 12 hex digits
// keep IDs readable while remaining collision-free at corpus scale.
func spanKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

// Open opens (creating if needed) the corpus at dir and indexes it by
// hashing and decoding every blob. A file whose name is not a key, or
// whose bytes fail the hash or decode check, stays on disk but out of
// the index: Open still succeeds, Verify lists the file as an orphan,
// and ingesting or pulling that key again replaces it with a good copy.
func Open(dir string) (*Corpus, error) {
	for _, d := range []string{dir, filepath.Join(dir, "blobs"), filepath.Join(dir, "tmp")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: open corpus: %w", err)
		}
	}
	c := &Corpus{dir: dir, entries: make(map[string]Entry)}
	keys, err := c.scanBlobs()
	if err != nil {
		return nil, err
	}
	for _, key := range keys {
		if !ValidKey(key) {
			continue
		}
		data, err := os.ReadFile(c.BlobPath(key))
		if os.IsNotExist(err) {
			continue // a key-named file outside its fan-out directory
		}
		if err != nil {
			return nil, fmt.Errorf("store: open corpus: %w", err)
		}
		if e, ok := blobEntry(key, data); ok {
			c.entries[key] = e
		}
	}
	return c, nil
}

// blobEntry derives the index entry of a blob from its bytes; ok is false
// when they do not hash to key or do not decode.
func blobEntry(key string, data []byte) (e Entry, ok bool) {
	sum := sha256.Sum256(data)
	if hex.EncodeToString(sum[:]) != key {
		return Entry{}, false
	}
	t, err := DecodeTrace(data)
	if err != nil {
		return Entry{}, false
	}
	return Entry{
		Key: key, App: t.App, Test: t.Test, Seed: t.Seed,
		Events: len(t.Events), Size: int64(len(data)),
	}, true
}

// Dir returns the corpus root directory.
func (c *Corpus) Dir() string { return c.dir }

// BlobPath returns the on-disk path of a key's blob (which may not exist).
func (c *Corpus) BlobPath(key string) string {
	prefix := "xx"
	if len(key) >= 2 {
		prefix = key[:2]
	}
	return filepath.Join(c.dir, "blobs", prefix, key)
}

// ValidKey reports whether key has the form of a content address: 64
// lowercase hex digits, the SHA-256 Key and Ingest produce. Keys arriving
// from outside (URL paths, peer manifests, job specs) must pass it before
// they name a file: anything else could climb out of the blobs directory.
func ValidKey(key string) bool {
	if len(key) != sha256.Size*2 {
		return false
	}
	for i := 0; i < len(key); i++ {
		if c := key[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Key returns the content address of a trace: SHA-256 over its canonical
// binary encoding.
func Key(t *trace.Trace) (string, error) {
	data, err := EncodeTrace(t)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// Ingest adds a trace to the corpus and returns its entry. added is false
// when the identical trace (same canonical bytes) was already present —
// the dedup path writes nothing.
func (c *Corpus) Ingest(t *trace.Trace) (Entry, bool, error) {
	data, err := EncodeTrace(t)
	if err != nil {
		return Entry{}, false, err
	}
	sum := sha256.Sum256(data)
	key := hex.EncodeToString(sum[:])
	entry := Entry{
		Key: key, App: t.App, Test: t.Test, Seed: t.Seed,
		Events: len(t.Events), Size: int64(len(data)),
	}
	span := c.tracer.Root("ingest", spanKey(key),
		obs.Str("app", t.App),
		obs.Str("test", t.Test),
		obs.Int("events", len(t.Events)),
		obs.Int("bytes", len(data)))
	added := false
	var hooks []func(Entry)
	defer func() {
		span.Annotate(obs.Bool("dedup", !added))
		span.End()
		// Runs after the deferred unlock below (defers are LIFO), so hooks
		// observe the corpus with the new entry visible and may call back
		// into it freely.
		if added {
			for _, fn := range hooks {
				fn(entry)
			}
		}
	}()

	c.mu.Lock()
	defer c.mu.Unlock()
	hooks = c.onIngest
	if prev, ok := c.entries[key]; ok {
		if _, err := os.Stat(c.BlobPath(key)); err == nil {
			return prev, false, nil
		}
		// Index entry without a blob (DropBlob or manual deletion): fall
		// through and rewrite it.
	}

	final := c.BlobPath(key)
	if err := os.MkdirAll(filepath.Dir(final), 0o755); err != nil {
		return Entry{}, false, fmt.Errorf("store: ingest: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Join(c.dir, "tmp"), "ingest-*")
	if err != nil {
		return Entry{}, false, fmt.Errorf("store: ingest: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return Entry{}, false, fmt.Errorf("store: ingest: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return Entry{}, false, fmt.Errorf("store: ingest: %w", err)
	}
	if err := os.Rename(tmpName, final); err != nil {
		os.Remove(tmpName)
		return Entry{}, false, fmt.Errorf("store: ingest: %w", err)
	}

	c.entries[key] = entry
	added = true
	return entry, true, nil
}

// Get decodes the trace stored at key. An invalid key (see ValidKey) is
// not found.
func (c *Corpus) Get(key string) (*trace.Trace, error) {
	if !ValidKey(key) {
		return nil, fmt.Errorf("store: no trace with key %q", key)
	}
	f, err := os.Open(c.BlobPath(key))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("store: no trace with key %s", key)
		}
		return nil, err
	}
	defer f.Close()
	t, err := ReadTrace(f)
	if err != nil {
		return nil, fmt.Errorf("store: blob %s: %w", key, err)
	}
	return t, nil
}

// Entry returns the index record for key.
func (c *Corpus) Entry(key string) (Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	return e, ok
}

// Entries returns every index record, sorted by key — the corpus's
// deterministic iteration order.
func (c *Corpus) Entries() []Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Entry, 0, len(c.entries))
	for _, e := range c.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Len returns the number of unique traces in the corpus.
func (c *Corpus) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns the unique-trace count, the total stored blob bytes, and
// the total event count across the corpus.
func (c *Corpus) Stats() (traces int, bytes int64, events int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries {
		bytes += e.Size
		events += int64(e.Events)
	}
	return len(c.entries), bytes, events
}

// VerifyReport is the machine-readable outcome of a full corpus
// integrity scan. Key lists are sorted; an all-empty report (Clean) means
// every index entry has a bit-exact blob and every blob is indexed.
// The serving layer exposes it at GET /v1/corpus/verify, and cluster
// anti-entropy uses Corrupt/Missing as its repair work-list: dropping a
// corrupt blob and re-pulling it from a replica heals bit rot.
type VerifyReport struct {
	// Checked counts the index entries scanned.
	Checked int `json:"checked"`
	// Corrupt lists keys whose blob exists but fails verification: the
	// bytes hash to a different key, fail to decode, or decode to
	// metadata that contradicts the index entry.
	Corrupt []string `json:"corrupt,omitempty"`
	// Missing lists index keys with no blob on disk.
	Missing []string `json:"missing,omitempty"`
	// Orphans lists files under blobs/ that no index entry claims: a
	// blob that failed Open's check, or a stray file.
	Orphans []string `json:"orphans,omitempty"`
}

// Clean reports whether the scan found nothing wrong.
func (r *VerifyReport) Clean() bool {
	return len(r.Corrupt) == 0 && len(r.Missing) == 0 && len(r.Orphans) == 0
}

// Err summarizes a dirty report as an error, nil when the report is clean.
func (r *VerifyReport) Err() error {
	if r.Clean() {
		return nil
	}
	return fmt.Errorf("store: verify: %d corrupt, %d missing, %d orphan blobs (of %d entries)",
		len(r.Corrupt), len(r.Missing), len(r.Orphans), r.Checked)
}

// Verify scans the whole corpus: every index entry must have a blob
// whose bytes hash to its key (which also re-verifies every block CRC on
// the way in, via decode) and whose metadata matches the entry, and
// every file under blobs/ must be indexed. Unlike a fail-fast
// check it classifies every problem into the returned report; the error
// is reserved for I/O failures that prevent scanning at all.
func (c *Corpus) Verify() (*VerifyReport, error) {
	rep := &VerifyReport{}
	entries := c.Entries()
	rep.Checked = len(entries)
	for _, e := range entries {
		data, err := os.ReadFile(c.BlobPath(e.Key))
		if err != nil {
			if os.IsNotExist(err) {
				rep.Missing = append(rep.Missing, e.Key)
				continue
			}
			return nil, fmt.Errorf("store: verify %s: %w", e.Key, err)
		}
		if got, ok := blobEntry(e.Key, data); !ok || got != e {
			rep.Corrupt = append(rep.Corrupt, e.Key)
		}
	}
	onDisk, err := c.scanBlobs()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	for _, key := range onDisk {
		if _, ok := c.entries[key]; !ok {
			rep.Orphans = append(rep.Orphans, key)
		}
	}
	c.mu.Unlock()
	return rep, nil
}

// HasBlob reports whether this corpus holds key: it is indexed and its
// blob file is on disk (a cheap stat — no hashing; Verify does the
// expensive bit-exact check). A file that failed Open's check, or that
// another process wrote, is not held, so replication pulls it again. An
// invalid key (see ValidKey) is never held.
func (c *Corpus) HasBlob(key string) bool {
	if _, ok := c.Entry(key); !ok {
		return false
	}
	_, err := os.Stat(c.BlobPath(key))
	return err == nil
}

// ReadBlob returns the raw canonical encoding stored at key, exactly as
// written — callers replicating blobs between corpora send these bytes
// and re-verify the SHA-256 on receipt. An invalid key (see ValidKey) is
// not found.
func (c *Corpus) ReadBlob(key string) ([]byte, error) {
	if !ValidKey(key) {
		return nil, fmt.Errorf("store: no blob with key %q", key)
	}
	data, err := os.ReadFile(c.BlobPath(key))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("store: no blob with key %s", key)
		}
		return nil, err
	}
	return data, nil
}

// DropBlob removes key's blob file while keeping its index entry — a
// repair primitive: a corrupt blob is dropped and then re-ingested (or
// re-pulled from a cluster replica), and Ingest rewrites the file when
// the index entry survives without one. Missing blobs, and invalid
// keys (see ValidKey), are a no-op.
func (c *Corpus) DropBlob(key string) error {
	if !ValidKey(key) {
		return nil
	}
	if err := os.Remove(c.BlobPath(key)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: drop blob %s: %w", key, err)
	}
	return nil
}

// scanBlobs lists the name of every file under blobs/, sorted: blob keys,
// and any stray name Open skips and Verify reports as an orphan.
func (c *Corpus) scanBlobs() ([]string, error) {
	var keys []string
	root := filepath.Join(c.dir, "blobs")
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		keys = append(keys, filepath.Base(path))
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: scan blobs: %w", err)
	}
	sort.Strings(keys)
	return keys, nil
}
