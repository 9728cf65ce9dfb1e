// Ring-aware client-side routing. A sherlockd cluster routes every
// submission to its content key's ring owner server-side, at the cost of
// one proxy hop through whichever node the client happened to pick. The
// CLI can skip that hop: /v1/cluster/info publishes the membership AND the
// node's base config in the canonical key encoding, which is everything
// needed to compute the submission's content key locally (the key scheme
// is deterministic across processes by design) and hash its owner on the
// same consistent-hash ring the servers use. Submissions then go straight
// to the owner; any failure — single-node daemon, stale info, owner down —
// falls back to the URL the user gave, which is always correct, just one
// hop slower.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"time"

	"sherlock/internal/cluster"
	"sherlock/internal/server"
)

// errConnect marks transport-level failures (no HTTP response at all) so
// the submit path can distinguish "owner down, retry elsewhere" from an
// API error the fallback node would only repeat.
var errConnect = errors.New("connection failed")

// clusterView is the slice of /v1/cluster/info that routing needs.
type clusterView struct {
	Node      string `json:"node"`
	Replicas  int    `json:"replicas"`
	JobConfig string `json:"job_config"`
	Peers     []struct {
		ID   string `json:"id"`
		URL  string `json:"url"`
		Self bool   `json:"self"`
		Up   bool   `json:"up"`
	} `json:"peers"`
}

// fetchClusterView grabs the info document on a short budget. Any failure
// — single-node daemon (404), pre-cluster daemon, network blip — returns
// nil: routing is an optimization, never a requirement.
func fetchClusterView(ctx context.Context, base string) *clusterView {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/cluster/info", nil)
	if err != nil {
		return nil
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var v clusterView
	if err := json.Unmarshal(body, &v); err != nil {
		return nil
	}
	return &v
}

// toJobSpec mirrors the wire spec into the server's type for key
// computation (same module, same struct semantics).
func toJobSpec(s submitSpec) server.JobSpec {
	return server.JobSpec{
		App: s.App, TraceKeys: s.TraceKeys, WatchApp: s.WatchApp, StaticApp: s.StaticApp,
		Rounds: s.Rounds, Lambda: s.Lambda, Near: s.Near, Seed: s.Seed,
	}
}

// routeSubmit picks the node to submit spec to: the first healthy owner
// of the job's content key, in the ring's replica order. Returns base
// (routed=false) when the daemon is not clustered, the info document
// predates config publishing, or no owner is currently up.
func routeSubmit(ctx context.Context, base string, spec submitSpec) (target string, routed bool) {
	info := fetchClusterView(ctx, base)
	if info == nil || info.JobConfig == "" || len(info.Peers) == 0 {
		return base, false
	}
	key := server.JobKeyFromConfigText(toJobSpec(spec), info.JobConfig)
	ids := make([]string, 0, len(info.Peers))
	urls := make(map[string]string, len(info.Peers))
	up := make(map[string]bool, len(info.Peers))
	for _, p := range info.Peers {
		ids = append(ids, p.ID)
		urls[p.ID] = p.URL
		up[p.ID] = p.Up
	}
	ring := cluster.NewRing(ids)
	n := info.Replicas
	if n < 1 {
		n = 1
	}
	for _, owner := range ring.Replicas(key, n) {
		if up[owner] && urls[owner] != "" {
			return urls[owner], true
		}
	}
	return base, false
}
