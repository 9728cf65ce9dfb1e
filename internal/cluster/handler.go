// Cluster wire surface: the /v1/cluster/* routes one node serves its
// peers, layered in front of the regular sherlockd API. These endpoints
// are deliberately dumb — they read and write LOCAL state only (local
// cache, local corpus), never consult the routing layer, and never
// recurse into another peer, so any chain of cluster calls terminates
// after one hop by construction.
package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"

	"sherlock/internal/store"
)

// maxClusterBody bounds pushed blob and cache bodies, mirroring the
// server's own request cap.
const maxClusterBody = 64 << 20

// Handler returns the node's full HTTP surface: the cluster routes plus
// everything the wrapped server already serves. Serve THIS handler (not
// server.Handler) on cluster nodes.
func (c *Cluster) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/cluster/info", c.handleInfo)
	mux.HandleFunc("GET /v1/cluster/manifest", c.handleManifest)
	mux.HandleFunc("GET /v1/cluster/blob/{key}", c.handleBlobGet)
	mux.HandleFunc("PUT /v1/cluster/blob/{key}", c.handleBlobPut)
	mux.HandleFunc("GET /v1/cluster/cache/{key}", c.handleCacheGet)
	mux.HandleFunc("PUT /v1/cluster/cache/{key}", c.handleCachePut)
	mux.Handle("/", c.srv.Handler())
	return mux
}

// infoPeer is one member's row in the info view.
type infoPeer struct {
	ID   string `json:"id"`
	URL  string `json:"url"`
	Self bool   `json:"self,omitempty"`
	Up   bool   `json:"up"`
}

// handleInfo describes this node's view of the cluster: membership,
// liveness, and placement parameters. The sherlock CLI's `cluster` verb
// renders it.
func (c *Cluster) handleInfo(w http.ResponseWriter, r *http.Request) {
	peers := make([]infoPeer, 0, len(c.cfg.Peers))
	for id, base := range c.cfg.Peers {
		row := infoPeer{ID: id, URL: base, Self: id == c.self, Up: id == c.self}
		if p, ok := c.pees[id]; ok {
			row.Up = p.healthy()
		}
		peers = append(peers, row)
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i].ID < peers[j].ID })
	writeJSON(w, http.StatusOK, struct {
		Node     string     `json:"node"`
		Replicas int        `json:"replicas"`
		Vnodes   int        `json:"vnodes_per_node"`
		Peers    []infoPeer `json:"peers"`
	}{c.self, c.cfg.Replicas, vnodesPerNode, peers})
}

// handleManifest lists the local corpus key set for anti-entropy diffs.
func (c *Cluster) handleManifest(w http.ResponseWriter, r *http.Request) {
	entries := c.srv.Corpus().Entries()
	keys := make([]string, 0, len(entries))
	for _, e := range entries {
		keys = append(keys, e.Key)
	}
	writeJSON(w, http.StatusOK, manifestView{Node: c.self, Keys: keys})
}

// blobKey returns the request's blob key, answering 400 and returning
// false when it is not a content address (store.ValidKey): a key such as
// "../../etc/passwd" must never reach the corpus's file paths.
func blobKey(w http.ResponseWriter, r *http.Request) (string, bool) {
	key := r.PathValue("key")
	if !store.ValidKey(key) {
		writeErr(w, http.StatusBadRequest, "invalid_argument", "blob key must be 64 lowercase hex digits")
		return "", false
	}
	return key, true
}

// handleBlobGet streams one local corpus blob, raw canonical encoding.
func (c *Cluster) handleBlobGet(w http.ResponseWriter, r *http.Request) {
	key, ok := blobKey(w, r)
	if !ok {
		return
	}
	body, err := c.srv.Corpus().ReadBlob(key)
	if err != nil {
		writeErr(w, http.StatusNotFound, "not_found", "no such blob")
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// handleBlobPut ingests a pushed corpus blob. Ingestion re-derives the
// content address from the bytes; a mismatch with the path key is
// rejected, so a corrupt push can never poison the corpus.
func (c *Cluster) handleBlobPut(w http.ResponseWriter, r *http.Request) {
	key, ok := blobKey(w, r)
	if !ok {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxClusterBody))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "invalid_argument", "read body: "+err.Error())
		return
	}
	if err := c.ingestVerified(key, body); err != nil {
		writeErr(w, http.StatusBadRequest, "invalid_argument", err.Error())
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Key string `json:"key"`
	}{key})
}

// handleCacheGet answers from the LOCAL result cache only — it is the
// terminal hop of a peer's FastLookup and must never trigger one itself.
func (c *Cluster) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	body, ok := c.srv.Cache().Get(r.PathValue("key"))
	if !ok {
		writeErr(w, http.StatusNotFound, "not_found", "not cached here")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// handleCachePut stores a pushed result body in the local cache. The
// body is a marshalled result whose key field the server derived from
// its content address; trusting the path key here is safe because cache
// entries only ever answer requests FOR that key, and a wrong body is a
// wasted slot, not corruption of anything durable.
func (c *Cluster) handleCachePut(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxClusterBody))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "invalid_argument", "read body: "+err.Error())
		return
	}
	c.srv.Cache().Put(r.PathValue("key"), body)
	w.WriteHeader(http.StatusNoContent)
}

// writeJSON/writeErr mirror the server's response conventions (one error
// envelope everywhere) without reaching into its unexported helpers.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, errCode, msg string) {
	writeJSON(w, code, map[string]any{"error": map[string]string{"code": errCode, "message": msg}})
}

// String implements fmt.Stringer for debugging.
func (c *Cluster) String() string {
	return fmt.Sprintf("cluster node %s (%d members, R=%d, ae=%s)",
		c.self, c.ring.Len(), c.cfg.Replicas, c.cfg.AntiEntropyInterval)
}
