package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"gpp/internal/store"
	"gpp/internal/sweep"
)

// hugeTimeoutMS is past the ~106 days (2^63 ns) a time.Duration holds; a
// Duration conversion before the cap wrapped it negative.
const hugeTimeoutMS = 10_000_000_000_000

// del sends DELETE path and requires a 202.
func del(t *testing.T, base, path string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, base+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE %s = %d, want 202", path, resp.StatusCode)
	}
}

// TestJobLedgerBalances drives one durable daemon through every way a job
// can enter and leave it — a journal-recovered job, a cold solve, a cache
// hit, a 429, cancels of a running and a queued job, a cancelled sweep
// (cells running, queued, waiting for a slot and never fed), and a submit
// while draining — then checks the books after Shutdown: every admitted
// job reached exactly one outcome, and the journal holds one terminal
// record per accept record.
func TestJobLedgerBalances(t *testing.T) {
	dir := t.TempDir()
	const recovered = "deadbeef00000005"
	path := forgeJournal(t, dir, &JobOptions{Seed: 4201, MaxIters: 300},
		store.Record{Op: "accept", ID: recovered})
	s, base := newTestServer(t, Config{Workers: 1, QueueDepth: 1, DataDir: dir})

	if sb := waitTerminal(t, base, recovered); sb.Status != StatusDone {
		t.Fatalf("recovered job ended %s: %s", sb.Status, sb.Error)
	}
	_, cold, _ := postJob(t, base, fastReq(4202))
	if sb := waitTerminal(t, base, cold.ID); sb.Status != StatusDone {
		t.Fatalf("cold job ended %s: %s", sb.Status, sb.Error)
	}
	if code, hit, _ := postJob(t, base, fastReq(4202)); code != http.StatusOK || hit.Cache != "hit" {
		t.Fatalf("resubmit = %d %s, want 200 hit", code, hit.Cache)
	}

	_, running, _ := postJob(t, base, slowReq(4203))
	waitRunning(t, base, running.ID)
	code, queued, _ := postJob(t, base, slowReq(4204))
	if code != http.StatusAccepted {
		t.Fatalf("queued submit = %d, want 202", code)
	}
	if code, _, _ := postJob(t, base, slowReq(4205)); code != http.StatusTooManyRequests {
		t.Fatalf("submit into a full queue = %d, want 429", code)
	}
	for _, id := range []string{running.ID, queued.ID} {
		del(t, base, "/v1/jobs/"+id)
	}
	for _, id := range []string{running.ID, queued.ID} {
		if sb := waitTerminal(t, base, id); sb.Status != StatusCancelled {
			t.Fatalf("job %s ended %s, want cancelled", id, sb.Status)
		}
	}

	code, sw, raw := postSweep(t, base, SweepRequest{Circuit: "KSA8",
		Spec:    sweep.Spec{Ks: []int{2, 3, 4, 5}},
		Options: slowReq(0).Options})
	if code != http.StatusAccepted {
		t.Fatalf("sweep submit = %d: %s", code, raw)
	}
	for deadline := time.Now().Add(30 * time.Second); getStatus(t, base, sw.Cells[0].JobID).Status != StatusRunning; {
		if time.Now().After(deadline) {
			t.Fatal("the sweep's first cell never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	del(t, base, "/v1/sweeps/"+sw.ID)
	if done := waitSweepTerminal(t, base, sw.ID); done.Status != StatusCancelled {
		t.Fatalf("cancelled sweep ended %s", done.Status)
	}

	_, last, _ := postJob(t, base, slowReq(4206))
	waitRunning(t, base, last.ID)
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- s.Shutdown(ctx)
	}()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}
	if code, _, _ := postJob(t, base, fastReq(4207)); code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", code)
	}
	del(t, base, "/v1/jobs/"+last.ID)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}

	m := s.m
	sub, done, failed, cancelled := m.submitted.Value(), m.completed.Value(), m.failed.Value(), m.cancelled.Value()
	if sub != 11 || sub != done+failed+cancelled {
		t.Errorf("ledger: %d submitted, %d completed + %d failed + %d cancelled; want 11 submitted, all settled",
			sub, done, failed, cancelled)
	}
	if hits, misses := m.cacheHits.Value(), m.cacheMisses.Value(); hits != 1 || hits+misses > sub {
		t.Errorf("cache: %d hits + %d misses over %d submissions, want 1 hit and no more lookups than jobs", hits, misses, sub)
	}
	if got := m.rejected.Value(); got != 1 {
		t.Errorf("rejected = %d, want the one 429", got)
	}

	jnl, recs, err := store.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	accepts, terminals := map[string]int{}, map[string]int{}
	for _, rec := range recs {
		switch rec.Op {
		case "accept":
			accepts[rec.ID]++
		case string(StatusDone), string(StatusFailed), string(StatusCancelled):
			terminals[rec.ID]++
		}
	}
	for id, n := range accepts {
		if n != 1 || terminals[id] != 1 {
			t.Errorf("job %s: %d accept and %d terminal records, want one each", id, n, terminals[id])
		}
	}
	for id := range terminals {
		if accepts[id] == 0 {
			t.Errorf("job %s has a terminal record but no accept", id)
		}
	}
}

// TestTimeoutBeyondDurationCapped: a timeout_ms too large for a
// time.Duration runs under Config.MaxJobTimeout, on a job and on a sweep
// cell, instead of wrapping into an already-expired deadline.
func TestTimeoutBeyondDurationCapped(t *testing.T) {
	_, base := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	req := fastReq(4301)
	req.TimeoutMS = hugeTimeoutMS
	code, sb, _ := postJob(t, base, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	if done := waitTerminal(t, base, sb.ID); done.Status != StatusDone {
		t.Fatalf("job ended %s (%s), want done", done.Status, done.Error)
	}
	code, sw, raw := postSweep(t, base, SweepRequest{Circuit: "KSA4", Spec: sweep.Spec{Ks: []int{3}},
		TimeoutMS: hugeTimeoutMS, Options: &JobOptions{MaxIters: 300}})
	if code != http.StatusAccepted {
		t.Fatalf("sweep submit = %d: %s", code, raw)
	}
	if done := waitSweepTerminal(t, base, sw.ID); done.Done != 1 {
		t.Fatalf("sweep cell did not finish done: %+v", done.Cells)
	}
}

// TestParCircuitLimit: a par<N> name beyond the million-gate limit is a
// 400 naming the limit on both submission endpoints — never a generator
// panic or a multi-gigabyte build — and the daemon keeps solving par<N>
// circuits within it.
func TestParCircuitLimit(t *testing.T) {
	_, base := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	for _, name := range []string{"par900000000000000000", "par1000001"} {
		for _, path := range []string{"/v1/jobs", "/v1/sweeps"} {
			body := `{"circuit":"` + name + `","k":4,"spec":{"ks":[4]}}`
			code, msg := postError(t, base, path, body)
			if code != http.StatusBadRequest || !strings.Contains(msg, "limited to 1000000") {
				t.Errorf("%s %s: %d %q, want 400 naming the limit", path, name, code, msg)
			}
		}
	}
	opts := &JobOptions{MaxIters: 100}
	_, sb, _ := postJob(t, base, JobRequest{Circuit: "par2000", K: 4, Options: opts})
	if done := waitTerminal(t, base, sb.ID); done.Status != StatusDone {
		t.Fatalf("par2000 job ended %s (%s), want done", done.Status, done.Error)
	}
	code, sw, raw := postSweep(t, base, SweepRequest{Circuit: "par2000", Spec: sweep.Spec{Ks: []int{3}}, Options: opts})
	if code != http.StatusAccepted {
		t.Fatalf("par2000 sweep = %d: %s", code, raw)
	}
	if done := waitSweepTerminal(t, base, sw.ID); done.Done != 1 {
		t.Fatalf("par2000 sweep cell did not finish done: %+v", done.Cells)
	}
	getBody(t, base, "/healthz", http.StatusOK)
}

// FuzzJobRequest decodes arbitrary bytes as a job request and validates
// it with makeJob against a fixed KSA4 circuit: every input must yield a
// job or a 400, never a panic.
func FuzzJobRequest(f *testing.F) {
	for _, seed := range []string{
		`{"k":4}`,
		`{"k":4,"timeout_ms":10000000000000}`,
		`{"k":3,"restarts":4,"plan":true,"options":{"seed":7,"momentum":0.5,"terms":[{"name":"xesfq"}]}}`,
		`{"k":5,"balanced_slack":0.1,"options":{"precision":"float64","refine":true}}`,
		`{"k":6,"multilevel":{"coarsest":50,"max_levels":3,"refine_iters":-1}}`,
		`{"k":0}`,
		`{"k":4,"options":{"momentum":1,"max_iters":-5}}`,
		`{"k":4,"options":{"terms":[{"name":"nope"}]}}`,
		`{"k":4,"multilevel":{},"restarts":2}`,
	} {
		f.Add([]byte(seed))
	}
	// The flight recorder is sized by Config, not by the request, so the
	// fuzzed server runs without it and allocates little per input.
	s, err := New(Config{Workers: 1, QueueDepth: 1, FlightRecorder: -1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	ref, err := s.memo.get("KSA4", s.m)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req JobRequest
		if json.Unmarshal(data, &req) != nil {
			return
		}
		j, code, err := s.makeJob(ref, "KSA4", &req)
		if err != nil {
			if code != http.StatusBadRequest {
				t.Fatalf("%s: status %d for %v, want 400", data, code, err)
			}
			return
		}
		j.cancel()
		dl, _ := j.ctx.Deadline()
		left := time.Until(dl)
		if left > s.cfg.MaxJobTimeout || (left <= 0 && (req.TimeoutMS < 1 || req.TimeoutMS >= 1000)) {
			t.Fatalf("%s: job deadline %v away, want within (0, %v]", data, left, s.cfg.MaxJobTimeout)
		}
	})
}
