// Named checkpoint blobs: the refine posteriors (core.Posterior). Unlike
// trace blobs, checkpoints are mutable state addressed by name (one per
// app, overwritten by every refine run), so they live beside — not
// inside — the content-addressed blob tree:
//
//	<dir>/checkpoints/<name>   one opaque blob per name
//
// The store treats checkpoint bytes as opaque — encoding and versioning
// belong to internal/core's posterior codec — but writes them with the
// same atomic stage-then-rename discipline as trace blobs, so a crash
// never leaves a torn checkpoint: readers see the old state or the new
// one, nothing in between.
package store

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
)

// checkpointName constrains names to a filesystem-safe alphabet.
var checkpointName = regexp.MustCompile(`^[A-Za-z0-9._-]{1,200}$`)

func (c *Corpus) checkpointPath(name string) string {
	return filepath.Join(c.dir, "checkpoints", name)
}

// SaveCheckpoint atomically writes (or replaces) the named checkpoint.
func (c *Corpus) SaveCheckpoint(name string, data []byte) error {
	if !checkpointName.MatchString(name) {
		return fmt.Errorf("store: bad checkpoint name %q", name)
	}
	dir := filepath.Join(c.dir, "checkpoints")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: save checkpoint: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Join(c.dir, "tmp"), "ckpt-*")
	if err != nil {
		return fmt.Errorf("store: save checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("store: save checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: save checkpoint: %w", err)
	}
	if err := os.Rename(tmpName, c.checkpointPath(name)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: save checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reads the named checkpoint; the error satisfies
// os.IsNotExist checks when none was ever saved.
func (c *Corpus) LoadCheckpoint(name string) ([]byte, error) {
	if !checkpointName.MatchString(name) {
		return nil, fmt.Errorf("store: bad checkpoint name %q", name)
	}
	data, err := os.ReadFile(c.checkpointPath(name))
	if err != nil {
		return nil, err
	}
	return data, nil
}
