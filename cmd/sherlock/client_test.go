package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sherlock/internal/server"
)

// TestPostJobSpecWaitsByLongPoll pins the client's wire protocol for
// `submit -wait`: one POST, long-polls on the watch endpoint, one result
// fetch. No cluster-info lookup (routing is the server's job) and no
// status polling (the long-poll is the only wait).
func TestPostJobSpecWaitsByLongPoll(t *testing.T) {
	cfg := server.DefaultConfig()
	cfg.Workers = 1
	cfg.QueueSize = 4
	cfg.CorpusDir = t.TempDir()
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu  sync.Mutex
		log []string
	)
	h := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		log = append(log, r.Method+" "+r.URL.RequestURI())
		mu.Unlock()
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := postJobSpec(ctx, ts.URL, submitSpec{App: "App-1", Rounds: 1}, true); err != nil {
		t.Fatalf("postJobSpec: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	var posts, watches, results int
	for _, line := range log {
		switch {
		case line == "POST /v1/jobs":
			posts++
		case strings.HasPrefix(line, "GET /v1/jobs/") && strings.Contains(line, "/watch?"):
			watches++
		case strings.HasPrefix(line, "GET /v1/results/"):
			results++
		default:
			t.Errorf("unexpected request %q", line)
		}
	}
	if posts != 1 || watches == 0 || results != 1 {
		t.Fatalf("got %d POSTs, %d watches, %d result fetches; want 1, ≥1, 1\nlog: %q",
			posts, watches, results, log)
	}
}
