package serve

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestListBadStatusListsValid: an unknown ?status= filter must be a 400
// whose error names every valid status — the client typo'd, tell them
// what would have worked.
func TestListBadStatusListsValid(t *testing.T) {
	_, base := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	raw := getBody(t, base, "/v1/jobs?status=bogus", http.StatusBadRequest)
	body := string(raw)
	if !strings.Contains(body, `"error"`) {
		t.Fatalf("bad-status response is not a JSON error: %s", body)
	}
	for _, st := range []Status{StatusQueued, StatusRunning, StatusDone, StatusFailed, StatusCancelled} {
		if !strings.Contains(body, string(st)) {
			t.Errorf("bad-status error does not list %q: %s", st, body)
		}
	}
}

// TestRetryAfterScalesWithBacklog: the 429 hint must grow with the live
// backlog (queued + in-flight jobs) instead of quoting a constant, and
// stay inside [1, 60].
func TestRetryAfterScalesWithBacklog(t *testing.T) {
	s, err := New(Config{Workers: 1, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()

	// No history yet: the floor.
	if got := s.retryAfterSeconds(); got != 1 {
		t.Fatalf("retryAfter with no history = %d, want 1", got)
	}

	// Recent jobs took ~10s each.
	for i := 0; i < 4; i++ {
		s.m.jobSeconds.Observe(10)
	}
	idle := s.retryAfterSeconds() // backlog floor of 1 → ~10s
	s.m.inflight.Add(3)           // now 3 jobs in flight
	busy := s.retryAfterSeconds() // ~30s
	s.m.inflight.Add(100)         // pathological depth
	capped := s.retryAfterSeconds()
	s.m.inflight.Add(-103)

	if idle != 10 {
		t.Errorf("retryAfter idle = %d, want 10 (one 10s job ahead)", idle)
	}
	if busy <= idle {
		t.Errorf("retryAfter did not scale with backlog: idle=%d busy=%d", idle, busy)
	}
	if busy != 30 {
		t.Errorf("retryAfter with backlog 3 = %d, want 30", busy)
	}
	if capped != 60 {
		t.Errorf("retryAfter is unbounded: got %d, want the 60s cap", capped)
	}
}
