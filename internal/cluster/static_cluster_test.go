package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"
)

// TestClusterStaticReportShared: a static report computed anywhere in the
// cluster is served from every node's /v1/results/{key} byte-for-byte,
// and the whole cluster computes it exactly once (non-owner submissions
// proxy to the key's owner, the GET fetches hit the owner's cache).
func TestClusterStaticReportShared(t *testing.T) {
	nodes := startCluster(t, 3, 2)

	// Submit the static job at node 0; routing lands the compute on the
	// report key's ring owner.
	v, body := submitAndWait(t, nodes[0].url, map[string]any{"static_app": "App-1"})
	var env struct {
		App         string `json:"app"`
		ProgramHash string `json:"program_hash"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.App != "App-1" || len(env.ProgramHash) != 64 {
		t.Fatalf("bad static envelope from job %s: %s", v.ID, body)
	}

	// Every node's result endpoint serves the identical body: locally
	// where the owner cached it, via FastLookup elsewhere.
	for _, nd := range nodes {
		resp, err := http.Get(nd.url + "/v1/results/" + v.Key)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: result endpoint %d: %s", nd.id, resp.StatusCode, got)
		}
		if string(got) != string(body) {
			t.Errorf("%s: static report diverges from the job's result", nd.id)
		}
	}

	// Resubmitting anywhere is a cluster-wide content hit.
	resp, err := http.Post(nodes[2].url+"/v1/jobs", "application/json",
		bytes.NewReader([]byte(`{"static_app":"App-1"}`)))
	if err != nil {
		t.Fatal(err)
	}
	var jr jobResp
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || jr.Status != "done" {
		t.Fatalf("resubmit on n2: %d %+v — expected an instant cluster cache hit", resp.StatusCode, jr)
	}

	// In total the report was computed exactly once across the cluster.
	computes := 0.0
	for _, nd := range nodes {
		computes += metricValue(t, nd.url, "sherlock_static_reports_total")
	}
	if computes != 1 {
		t.Errorf("static report computed %g times across the cluster, want 1", computes)
	}
}
