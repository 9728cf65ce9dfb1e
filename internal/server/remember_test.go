package server

import (
	"fmt"
	"testing"
	"time"

	"sherlock/internal/core"
)

// TestRememberSkipsLiveRecords: a live record at the head of the submission
// order (a long-lived watch job) must not pin the terminal records behind
// it. Eviction keeps the record count at the cap, keeps every live record,
// and leaves the survivors in submission order.
func TestRememberSkipsLiveRecords(t *testing.T) {
	s := &Server{byID: map[string]*Job{}}
	now := time.Now()
	id := func(n int) string { return fmt.Sprintf("job-%06d", n) }

	s.remember(newWatchJob(id(1), JobSpec{WatchApp: "App-1"}, core.Config{}, now))
	const finished = 2 * maxJobRecords
	for n := 2; n < 2+finished; n++ {
		j := newJob(id(n), "k", JobSpec{App: "App-1"}, core.Config{}, now)
		j.finishLocked(StatusDone, "")
		s.remember(j)
		if n == maxJobRecords/2 {
			// A live one-shot job in the middle is skipped too.
			s.remember(newJob("job-live", "k", JobSpec{App: "App-1"}, core.Config{}, now))
		}
	}

	if len(s.byID) != maxJobRecords || len(s.idOrder) != maxJobRecords {
		t.Fatalf("records = %d (order %d), want the cap %d", len(s.byID), len(s.idOrder), maxJobRecords)
	}
	for _, live := range []string{id(1), "job-live"} {
		if s.byID[live] == nil {
			t.Errorf("live record %s was evicted", live)
		}
	}
	if s.idOrder[0] != id(1) || s.idOrder[1] != "job-live" {
		t.Errorf("live records not kept in submission order: head %v", s.idOrder[:2])
	}
	// The terminal survivors are the newest ones, still in order.
	want := 2 + finished - (maxJobRecords - 2)
	for i, got := range s.idOrder[2:] {
		if got != id(want+i) {
			t.Fatalf("idOrder[%d] = %s, want %s", i+2, got, id(want+i))
		}
		if s.byID[got] == nil {
			t.Fatalf("idOrder lists %s but its record is gone", got)
		}
	}
}
