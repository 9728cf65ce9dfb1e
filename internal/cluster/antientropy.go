// Anti-entropy: the repair loop that makes corpus replication converge
// without any replication protocol. Every interval the node asks each
// live peer for its manifest key set, diffs it against the local corpus,
// and pulls the blobs it should hold (self in the key's replica set)
// but does not. Because blobs are content-addressed and immutable, the
// diff is a pure set difference — no versions, no tombstones, no merge.
// Periodically the loop also audits its own blobs (store.Verify) and
// drops corrupt ones so the next cycle re-pulls a clean copy: bit rot
// heals through the same pull path as a missed fan-out.
package cluster

import (
	"context"
	"encoding/json"
	"time"

	"sherlock/internal/store"
)

// manifestView is the wire form of GET /v1/cluster/manifest.
type manifestView struct {
	Node string   `json:"node"`
	Keys []string `json:"keys"`
}

// manifestKeys decodes a peer's manifest document and returns the keys
// it lists that are valid content addresses (store.ValidKey), in order.
// The document is untrusted: a malformed one yields no keys, and a key
// that is not a content address is dropped before it can name a file or
// a URL path.
func manifestKeys(body []byte) []string {
	var m manifestView
	if json.Unmarshal(body, &m) != nil {
		return nil
	}
	keys := m.Keys[:0]
	for _, key := range m.Keys {
		if store.ValidKey(key) {
			keys = append(keys, key)
		}
	}
	return keys
}

// antiEntropyLoop runs repair cycles until the cluster stops.
func (c *Cluster) antiEntropyLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.AntiEntropyInterval)
	defer t.Stop()
	cycles := 0
	for {
		select {
		case <-c.runCtx.Done():
			return
		case <-t.C:
			cycles++
			if c.cfg.VerifyEvery > 0 && cycles%c.cfg.VerifyEvery == 0 {
				c.healLocal()
			}
			c.antiEntropyCycle(c.runCtx)
		}
	}
}

// antiEntropyCycle diffs manifests with every live peer and pulls the
// missing blobs this node should replicate.
func (c *Cluster) antiEntropyCycle(ctx context.Context) {
	for _, p := range c.pees {
		if !p.healthy() {
			continue
		}
		body, err := c.getBytes(ctx, p, "/v1/cluster/manifest", c.cfg.LookupTimeout)
		if err == errPeerDown {
			p.markDown(time.Now())
			continue
		}
		if err != nil || body == nil {
			continue
		}
		for _, key := range manifestKeys(body) {
			if ctx.Err() != nil {
				return
			}
			if !c.ownsKey(key) || c.srv.Corpus().HasBlob(key) {
				continue
			}
			// Best-effort: a failed pull retries next cycle.
			_ = c.pullBlob(ctx, key)
		}
	}
	c.aeCycles.Inc()
}

// healLocal audits the local corpus and drops any blob that fails its
// content check, so the anti-entropy pull path restores a clean replica.
// Orphan blobs (no index entry) are left alone — they cost disk, not
// correctness, and deleting data is not this loop's job.
func (c *Cluster) healLocal() {
	rep, err := c.srv.Corpus().Verify()
	if err != nil {
		return
	}
	for _, key := range rep.Corrupt {
		if c.srv.Corpus().DropBlob(key) == nil {
			c.healed.Inc()
		}
	}
	// Missing blobs (index entry, no file) need no drop — just count
	// them as healing work for the pull path.
	c.healed.Add(len(rep.Missing))
}
