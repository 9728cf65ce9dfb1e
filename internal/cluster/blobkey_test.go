package cluster

import (
	"bytes"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sherlock/internal/store"
)

// TestBlobKeyTraversalRejected: a blob key is a content address, never a
// path. GET and PUT /v1/cluster/blob/{key} with an escaped "../" key must
// answer 400 invalid_argument, and the GET must not return the file the
// key points at.
func TestBlobKeyTraversalRejected(t *testing.T) {
	nodes := startCluster(t, 1, 1)
	secret := []byte("not a corpus blob")
	path := filepath.Join(t.TempDir(), "secret.txt")
	if err := os.WriteFile(path, secret, 0o600); err != nil {
		t.Fatal(err)
	}
	// Enough "../" to climb from any corpus directory to the root, then
	// the secret's absolute path.
	key := strings.Repeat("../", 64) + strings.TrimPrefix(filepath.ToSlash(path), "/")
	target := nodes[0].url + "/v1/cluster/blob/" + url.PathEscape(key)
	if !strings.Contains(target, "..%2F") {
		t.Fatalf("key is not escaped as expected: %s", target)
	}
	for _, method := range []string{http.MethodGet, http.MethodPut} {
		req, err := http.NewRequest(method, target, bytes.NewReader(secret))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(body, []byte("invalid_argument")) {
			t.Errorf("%s: status %d body %q, want 400 invalid_argument", method, resp.StatusCode, body)
		}
		if bytes.Contains(body, secret) {
			t.Errorf("%s returned the file outside the corpus", method)
		}
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, secret) {
		t.Fatalf("the file outside the corpus changed: %q, %v", got, err)
	}
}

// FuzzManifest checks the anti-entropy decoder on arbitrary peer
// manifests: it never panics, and every key it admits is a content
// address.
func FuzzManifest(f *testing.F) {
	valid := strings.Repeat("ab", 32)
	f.Add([]byte(`{"node":"n1","keys":["` + valid + `"]}`))
	f.Add([]byte(`{"node":"n1","keys":["../../etc/passwd","` + valid + `",""]}`))
	f.Add([]byte(`{"keys":[1,2]}`))
	f.Add([]byte(`{"keys":null}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"keys":["` + strings.ToUpper(valid) + `"]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, key := range manifestKeys(body) {
			if !store.ValidKey(key) {
				t.Fatalf("admitted key %q is not a content address", key)
			}
		}
	})
}
