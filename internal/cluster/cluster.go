// Package cluster turns a standalone sherlockd into one node of a
// peer-to-peer cluster with no coordinator and no external dependencies.
//
// Three ideas carry the whole design:
//
//  1. Everything is content-addressed — corpus blobs, job keys, result
//     bodies — so replication needs no versioning and no conflict
//     resolution: two copies of a key are byte-identical by construction,
//     and a SHA-256 check on receipt is a full integrity proof.
//  2. Placement is a pure function. Every node derives the same
//     consistent-hash ring from the same static membership (ring.go), so
//     "who owns this key" is answered locally on every node. A node that
//     does not own a submitted job proxies it to the owner and streams
//     the result back; the owner computes once and every node's cache
//     converges on the same bytes.
//  3. Peers heal by anti-entropy, not by protocol. Nodes periodically
//     diff corpus manifests and pull the blobs they should replicate
//     (antientropy.go); missed fan-outs, rebooted nodes, and bit rot all
//     converge through the same loop.
//
// The cluster layer plugs into the server through the narrow
// server.ClusterHook seam and adds its own /v1/cluster/* routes
// (handler.go). With an empty peer set every hook degrades to a no-op
// and the node behaves exactly like a standalone daemon.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"sherlock/internal/server"
	"sherlock/internal/store"
)

// Config describes one node's view of the cluster.
type Config struct {
	// NodeID is this node's member name. Required; must appear in Peers.
	NodeID string
	// Peers maps member name -> base URL ("http://host:port") for EVERY
	// cluster member including this node. All members must agree on this
	// map (static membership).
	Peers map[string]string
	// Replicas is the number of nodes that should hold each corpus blob
	// and each cached result (owner included). Default 2, capped at the
	// cluster size.
	Replicas int
	// AntiEntropyInterval is the period of the manifest-diff repair loop.
	// Default 5s; 0 keeps the default, negative disables the loop.
	AntiEntropyInterval time.Duration
	// VerifyEvery runs a full local corpus verification every N
	// anti-entropy cycles, dropping and re-pulling corrupt blobs. 0
	// disables (verification scans every blob — cheap for test corpora,
	// noticeable for huge ones).
	VerifyEvery int
	// ProbeInterval is the health-probe cadence. Default 1s.
	ProbeInterval time.Duration
	// LookupTimeout bounds one peer round-trip on the submit fast path
	// (cache lookups, probes). Default 2s.
	LookupTimeout time.Duration
	// ProxyTimeout bounds one remote job execution end to end. Default
	// 2m — a proxied job waits out the owner's queue and compute.
	ProxyTimeout time.Duration
}

func (c *Config) fillDefaults() error {
	if c.NodeID == "" {
		return fmt.Errorf("cluster: NodeID is required")
	}
	if _, ok := c.Peers[c.NodeID]; !ok && len(c.Peers) > 0 {
		return fmt.Errorf("cluster: NodeID %q is not in the peer map", c.NodeID)
	}
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.AntiEntropyInterval == 0 {
		c.AntiEntropyInterval = 5 * time.Second
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.LookupTimeout <= 0 {
		c.LookupTimeout = 2 * time.Second
	}
	if c.ProxyTimeout <= 0 {
		c.ProxyTimeout = 2 * time.Minute
	}
	return nil
}

// Cluster implements server.ClusterHook for one node.
type Cluster struct {
	cfg  Config
	srv  *server.Server
	ring *Ring
	self string
	pees map[string]*peer // remote members only, by id
	hc   *http.Client     // shared transport; per-request timeouts via ctx

	runCtx    context.Context
	runCancel context.CancelFunc
	wg        sync.WaitGroup
	stopMu    sync.Mutex
	stopped   bool
	stopOnce  sync.Once

	// Metrics (registered in the server's registry so /metrics carries
	// cluster health next to job stats).
	proxied    *server.Counter // jobs this node routed to an owner
	proxyFails *server.Counter // routed attempts that fell back local
	remoteHits *server.Counter // FastLookup hits served by a peer
	pulled     *server.Counter // blobs pulled by anti-entropy/EnsureTraces
	fanned     *server.Counter // blobs pushed by upload fan-out
	published  *server.Counter // watch results offered to peers
	aeCycles   *server.Counter // anti-entropy cycles completed
	healed     *server.Counter // corrupt blobs dropped and re-pulled
}

// New builds the cluster layer for a server and installs it via
// SetCluster. Call Start to begin probing and anti-entropy, Stop to tear
// down. The server must not be serving traffic yet.
func New(cfg Config, srv *server.Server) (*Cluster, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	members := make([]string, 0, len(cfg.Peers))
	for id := range cfg.Peers {
		members = append(members, id)
	}
	if len(members) == 0 {
		members = []string{cfg.NodeID}
	}
	sort.Strings(members)

	reg := srv.Registry()
	ctx, cancel := context.WithCancel(context.Background())
	c := &Cluster{
		cfg:       cfg,
		srv:       srv,
		ring:      NewRing(members),
		self:      cfg.NodeID,
		pees:      make(map[string]*peer),
		hc:        &http.Client{},
		runCtx:    ctx,
		runCancel: cancel,

		proxied:    reg.Counter("sherlock_cluster_proxied_jobs_total", "Jobs this node routed to their owner node."),
		proxyFails: reg.Counter("sherlock_cluster_proxy_failures_total", "Routed job attempts that fell back to local compute."),
		remoteHits: reg.Counter("sherlock_cluster_remote_cache_hits_total", "Submit-path cache lookups answered by a peer."),
		pulled:     reg.Counter("sherlock_cluster_anti_entropy_pulled_blobs_total", "Corpus blobs pulled from peers (anti-entropy and on-demand)."),
		fanned:     reg.Counter("sherlock_cluster_replicated_blobs_total", "Corpus blobs pushed to peers by upload fan-out."),
		published:  reg.Counter("sherlock_cluster_published_results_total", "Watch results offered to owning peers."),
		aeCycles:   reg.Counter("sherlock_cluster_anti_entropy_cycles_total", "Anti-entropy cycles completed."),
		healed:     reg.Counter("sherlock_cluster_healed_blobs_total", "Corrupt or missing local blobs dropped for re-pull."),
	}
	for id, base := range cfg.Peers {
		if id == c.self {
			continue
		}
		c.pees[id] = newPeer(id, base, reg.Gauge("sherlock_cluster_peer_up", "Peer liveness (1 = reachable).", "peer", id))
	}
	srv.SetCluster(c)
	return c, nil
}

// Start launches the health-probe and anti-entropy loops.
func (c *Cluster) Start() {
	if len(c.pees) > 0 {
		c.wg.Add(1)
		go c.probeLoop()
		if c.cfg.AntiEntropyInterval > 0 {
			c.wg.Add(1)
			go c.antiEntropyLoop()
		}
	}
}

// Stop cancels background work and waits for it. Idempotent.
func (c *Cluster) Stop() {
	c.stopOnce.Do(func() {
		c.stopMu.Lock()
		c.stopped = true
		c.stopMu.Unlock()
		c.runCancel()
		c.wg.Wait()
	})
}

// goAsync runs fn on a tracked goroutine, refusing (false) once Stop has
// begun — the Add would race the final Wait.
func (c *Cluster) goAsync(fn func()) bool {
	c.stopMu.Lock()
	if c.stopped {
		c.stopMu.Unlock()
		return false
	}
	c.wg.Add(1)
	c.stopMu.Unlock()
	go func() {
		defer c.wg.Done()
		fn()
	}()
	return true
}

// NodeID returns this node's member name.
func (c *Cluster) NodeID() string { return c.self }

// Ring exposes the placement function (tests, info endpoint).
func (c *Cluster) Ring() *Ring { return c.ring }

// probeLoop keeps peer liveness fresh: every ProbeInterval it probes the
// peers that are due (all up peers; down peers per their backoff).
func (c *Cluster) probeLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.runCtx.Done():
			return
		case now := <-t.C:
			for _, p := range c.pees {
				if p.probeDue(now) {
					c.probe(p)
				}
			}
		}
	}
}

// probe checks one peer's /healthz. Any HTTP response proves the process
// is alive and serving; a draining peer answers 503 and is treated as
// down so routing stops sending it new work.
func (c *Cluster) probe(p *peer) {
	ctx, cancel := context.WithTimeout(c.runCtx, c.cfg.LookupTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.base+"/healthz", nil)
	if err != nil {
		p.markDown(time.Now())
		return
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		p.markDown(time.Now())
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		p.markUp()
	} else {
		p.markDown(time.Now())
	}
}

// replicaPeers resolves a key's replica set to live peer handles,
// preserving ring order and dropping self.
func (c *Cluster) replicaPeers(key string) []*peer {
	var out []*peer
	for _, id := range c.ring.Replicas(key, c.cfg.Replicas) {
		if id == c.self {
			continue
		}
		if p, ok := c.pees[id]; ok {
			out = append(out, p)
		}
	}
	return out
}

// ownsKey reports whether this node is in a key's replica set.
func (c *Cluster) ownsKey(key string) bool {
	for _, id := range c.ring.Replicas(key, c.cfg.Replicas) {
		if id == c.self {
			return true
		}
	}
	return false
}

// ---- server.ClusterHook ----

// FastLookup asks the key's owning peers for a cached result body. Sits
// on the submit path: every probe is bounded by LookupTimeout and only
// healthy peers are asked.
func (c *Cluster) FastLookup(ctx context.Context, key string) ([]byte, bool) {
	for _, p := range c.replicaPeers(key) {
		if !p.healthy() {
			continue
		}
		body, err := c.getBytes(ctx, p, "/v1/cluster/cache/"+key, c.cfg.LookupTimeout)
		if err == errPeerDown {
			p.markDown(time.Now())
			continue
		}
		if err != nil || body == nil {
			continue // clean miss on that peer
		}
		c.remoteHits.Inc()
		return body, true
	}
	return nil, false
}

// ProxyJob routes a job to the first live node in its replica set. Self
// in the set (or an exhausted set) declines: the caller computes
// locally. The remote submission carries the no-proxy marker, so routing
// disagreement between nodes costs one extra hop, never a loop.
func (c *Cluster) ProxyJob(ctx context.Context, key string, spec server.JobSpec) ([]byte, bool) {
	for _, id := range c.ring.Replicas(key, c.cfg.Replicas) {
		if id == c.self {
			return nil, false // our key: compute here
		}
		p, ok := c.pees[id]
		if !ok || !p.healthy() {
			continue
		}
		body, err := c.remoteExecute(ctx, p, key, spec)
		if err == nil {
			c.proxied.Inc()
			return body, true
		}
		c.proxyFails.Inc()
		if err == errPeerDown {
			p.markDown(time.Now())
		}
		if ctx.Err() != nil {
			break // the client gave up; no point trying further peers
		}
	}
	return nil, false
}

// PublishResult pushes a result body to the key's owning peers,
// asynchronously and best-effort (a missed push is a future FastLookup
// miss, not an error).
func (c *Cluster) PublishResult(key string, body []byte) {
	peers := c.replicaPeers(key)
	if len(peers) == 0 {
		return
	}
	c.goAsync(func() {
		for _, p := range peers {
			if !p.healthy() {
				continue
			}
			if err := c.putBytes(c.runCtx, p, "/v1/cluster/cache/"+key, body, c.cfg.LookupTimeout); err == nil {
				c.published.Inc()
			} else if err == errPeerDown {
				p.markDown(time.Now())
			}
		}
	})
}

// EnsureTraces pulls every named corpus blob this node is missing from
// its peers, SHA-256-verified by re-ingestion. Any blob found nowhere
// fails the whole call — the job cannot run without its input. Keys that
// are not content addresses (store.ValidKey) are skipped: no peer is
// asked for them, and the corpus lookup that follows reports them
// missing.
func (c *Cluster) EnsureTraces(ctx context.Context, keys []string) error {
	for _, key := range keys {
		if !store.ValidKey(key) || c.srv.Corpus().HasBlob(key) {
			continue
		}
		if err := c.pullBlob(ctx, key); err != nil {
			return fmt.Errorf("trace %s: %w", key, err)
		}
	}
	return nil
}

// pullBlob fetches one corpus blob: the key's replica peers first, then
// every other live peer (the blob may live where it was uploaded before
// any fan-out completed). Ingestion re-derives the content address, so a
// corrupt or substituted body can never enter the corpus under this key.
func (c *Cluster) pullBlob(ctx context.Context, key string) error {
	tried := make(map[string]bool)
	candidates := c.replicaPeers(key)
	for _, p := range c.pees {
		candidates = append(candidates, p)
	}
	var lastErr error = fmt.Errorf("no live peer holds it")
	for _, p := range candidates {
		if tried[p.id] || !p.healthy() {
			continue
		}
		tried[p.id] = true
		body, err := c.getBytes(ctx, p, "/v1/cluster/blob/"+key, c.cfg.LookupTimeout)
		if err == errPeerDown {
			p.markDown(time.Now())
			continue
		}
		if err != nil {
			lastErr = err
			continue
		}
		if body == nil {
			continue // that peer doesn't have it
		}
		if err := c.ingestVerified(key, body); err != nil {
			lastErr = err
			continue
		}
		c.pulled.Inc()
		return nil
	}
	return lastErr
}

// ingestVerified decodes and ingests a blob body, failing unless the
// corpus derives exactly the expected content address from it.
func (c *Cluster) ingestVerified(key string, body []byte) error {
	tr, err := store.DecodeTrace(body)
	if err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	entry, _, err := c.srv.Corpus().Ingest(tr)
	if err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	if entry.Key != key {
		return fmt.Errorf("content mismatch: got %s, want %s", entry.Key, key)
	}
	return nil
}

// ReplicateBlob pushes a freshly ingested blob to the key's owner and
// replicas, asynchronously. Anti-entropy repairs whatever this misses.
func (c *Cluster) ReplicateBlob(key string) {
	peers := c.replicaPeers(key)
	if len(peers) == 0 {
		return
	}
	c.goAsync(func() {
		body, err := c.srv.Corpus().ReadBlob(key)
		if err != nil {
			return
		}
		for _, p := range peers {
			if !p.healthy() {
				continue
			}
			if err := c.putBytes(c.runCtx, p, "/v1/cluster/blob/"+key, body, c.cfg.ProxyTimeout); err == nil {
				c.fanned.Inc()
			} else if err == errPeerDown {
				p.markDown(time.Now())
			}
		}
	})
}

// ---- HTTP plumbing ----

// errPeerDown marks transport-level failures (connection refused, timeout)
// as opposed to clean application answers (404 miss, 4xx rejection).
var errPeerDown = fmt.Errorf("peer unreachable")

// getBytes GETs a peer path. Returns (nil, nil) on 404 — a clean miss —
// and errPeerDown on transport errors.
func (c *Cluster) getBytes(ctx context.Context, p *peer, path string, timeout time.Duration) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, errPeerDown
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, errPeerDown
		}
		return body, nil
	case http.StatusNotFound:
		io.Copy(io.Discard, resp.Body)
		return nil, nil
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("peer %s: GET %s: HTTP %d: %s", p.id, path, resp.StatusCode, msg)
	}
}

// putBytes PUTs a body to a peer path. errPeerDown on transport errors.
func (c *Cluster) putBytes(ctx context.Context, p *peer, path string, body []byte, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, p.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return errPeerDown
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("peer %s: PUT %s: HTTP %d", p.id, path, resp.StatusCode)
	}
	return nil
}

// remoteJobView is the slice of the server's job view routing needs.
type remoteJobView struct {
	ID     string `json:"id"`
	Key    string `json:"key"`
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
}

// remoteExecute runs one job on a peer: submit with the no-proxy marker,
// wait out the remote execution, fetch the result body. The remote node
// computes the job key independently; a mismatch means the two nodes
// disagree on configuration and the result would be cached under the
// wrong address — refuse it.
func (c *Cluster) remoteExecute(ctx context.Context, p *peer, key string, spec server.JobSpec) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.ProxyTimeout)
	defer cancel()

	specBody, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.base+"/v1/jobs", bytes.NewReader(specBody))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(server.NoProxyHeader, "1")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, errPeerDown
	}
	viewBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, errPeerDown
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		if len(viewBody) > 512 {
			viewBody = viewBody[:512]
		}
		return nil, fmt.Errorf("peer %s: submit: HTTP %d: %s", p.id, resp.StatusCode, viewBody)
	}
	var view remoteJobView
	if err := json.Unmarshal(viewBody, &view); err != nil {
		return nil, fmt.Errorf("peer %s: submit: bad job view: %w", p.id, err)
	}
	if view.Key != key {
		return nil, fmt.Errorf("peer %s: job key mismatch: remote %s, local %s (config drift?)", p.id, view.Key, key)
	}

	// Long-poll until terminal. One blocking watch request replaces a
	// tight status-poll loop; on a loaded cluster the poll traffic itself
	// is a measurable CPU tax on the owner.
	for view.Status != "done" {
		switch view.Status {
		case "failed", "canceled":
			return nil, fmt.Errorf("peer %s: remote job %s: %s", p.id, view.Status, view.Error)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		body, err := c.getBytes(ctx, p, "/v1/jobs/"+view.ID+"/watch?timeout=25", 30*time.Second)
		if err != nil || body == nil {
			return nil, fmt.Errorf("peer %s: watch job %s: %w", p.id, view.ID, err)
		}
		if err := json.Unmarshal(body, &view); err != nil {
			return nil, fmt.Errorf("peer %s: watch job %s: %w", p.id, view.ID, err)
		}
	}
	result, err := c.getBytes(ctx, p, "/v1/results/"+key, c.cfg.LookupTimeout)
	if err != nil {
		return nil, err
	}
	if result == nil {
		return nil, fmt.Errorf("peer %s: job done but result %s missing", p.id, key)
	}
	return result, nil
}
