package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"gpp/internal/assignio"
	"gpp/internal/def"
	"gpp/internal/gen"
)

// newTestServer starts a daemon behind an httptest listener. Cleanup closes
// the listener first (no new requests) and then force-drains the worker
// pool with an already-expired context so slow jobs left behind by a test
// are cancelled rather than waited for.
func newTestServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s)
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, hs.URL
}

func postJob(t *testing.T, base string, req JobRequest) (int, statusBody, http.Header) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var sb statusBody
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, &sb); err != nil {
			t.Fatalf("bad submit response %q: %v", raw, err)
		}
	}
	return resp.StatusCode, sb, resp.Header
}

// postError posts a raw JSON body to path and returns the status code and
// the response's "error" message (empty on success).
func postError(t *testing.T, base, path, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e struct{ Error string }
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, e.Error
}

func getStatus(t *testing.T, base, id string) statusBody {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb statusBody
	if err := json.NewDecoder(resp.Body).Decode(&sb); err != nil {
		t.Fatal(err)
	}
	return sb
}

// waitTerminal polls the status endpoint until the job settles.
func waitTerminal(t *testing.T, base, id string) statusBody {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		sb := getStatus(t, base, id)
		if Status(sb.Status).terminal() {
			return sb
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return statusBody{}
}

// waitRunning polls until the job leaves the queue and starts solving.
func waitRunning(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		sb := getStatus(t, base, id)
		if sb.Status == StatusRunning {
			return
		}
		if Status(sb.Status).terminal() {
			t.Fatalf("job %s finished (%s) before it was observed running", id, sb.Status)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never started running", id)
}

func getBody(t *testing.T, base, path string, wantCode int) []byte {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s = %d (%s), want %d", path, resp.StatusCode, raw, wantCode)
	}
	return raw
}

// fastReq is a small solve (~tens of ms serial) with a distinguishing seed.
func fastReq(seed int64) JobRequest {
	return JobRequest{Circuit: "KSA8", K: 4, Options: &JobOptions{Seed: seed, MaxIters: 300}}
}

// slowReq never converges (margin below any reachable relative change,
// oscillating learn rate) and runs minutes at the iteration cap, so it
// reliably occupies a worker until cancelled; cancellation lands within
// one gradient iteration.
func slowReq(seed int64) JobRequest {
	return JobRequest{Circuit: "KSA8", K: 4, Options: &JobOptions{
		Seed: seed, MaxIters: 1_000_000, Margin: 1e-300, LearnRate: 0.5,
	}}
}

func TestSubmitSolveAndCacheHit(t *testing.T) {
	s, base := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	hits0, misses0 := s.m.cacheHits.Value(), s.m.cacheMisses.Value()

	code, sb, _ := postJob(t, base, fastReq(1))
	if code != http.StatusAccepted {
		t.Fatalf("cold submit = %d, want 202", code)
	}
	if sb.Cache != "miss" {
		t.Fatalf("cold submit cache = %q, want miss", sb.Cache)
	}
	done := waitTerminal(t, base, sb.ID)
	if done.Status != StatusDone {
		t.Fatalf("job ended %s (%s), want done", done.Status, done.Error)
	}
	cold := getBody(t, base, "/v1/jobs/"+sb.ID+"/result", http.StatusOK)

	var env resultEnvelope
	if err := json.Unmarshal(cold, &env); err != nil {
		t.Fatalf("result is not a result envelope: %v", err)
	}
	if env.K != 4 || len(env.Labels) != done.Gates || env.Iters <= 0 {
		t.Fatalf("implausible envelope: k=%d labels=%d iters=%d", env.K, len(env.Labels), env.Iters)
	}

	// The identical request completes synchronously from the cache with the
	// exact same bytes.
	code2, sb2, _ := postJob(t, base, fastReq(1))
	if code2 != http.StatusOK {
		t.Fatalf("cached submit = %d, want 200", code2)
	}
	if sb2.Cache != "hit" || sb2.Status != StatusDone {
		t.Fatalf("cached submit cache=%q status=%s, want hit/done", sb2.Cache, sb2.Status)
	}
	if sb2.Key != sb.Key {
		t.Fatalf("identical requests got different keys:\n %s\n %s", sb.Key, sb2.Key)
	}
	hot := getBody(t, base, "/v1/jobs/"+sb2.ID+"/result", http.StatusOK)
	if !bytes.Equal(cold, hot) {
		t.Fatalf("cache hit is not byte-identical to the cold solve:\ncold: %s\nhot:  %s", cold, hot)
	}
	if d := s.m.cacheHits.Value() - hits0; d != 1 {
		t.Errorf("gpp_serve_cache_hits_total advanced by %d, want 1", d)
	}
	if d := s.m.cacheMisses.Value() - misses0; d != 1 {
		t.Errorf("gpp_serve_cache_misses_total advanced by %d, want 1", d)
	}
}

// TestCacheByteIdenticalAcrossWorkers is the headline determinism claim:
// the cache key excludes Options.Workers, and a cold solve at any worker
// count produces the same bytes a cache hit would serve. Two independent
// daemons solve the same job at Workers 1 and 4; the bodies must match
// each other and every later cache hit.
func TestCacheByteIdenticalAcrossWorkers(t *testing.T) {
	_, baseA := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	_, baseB := newTestServer(t, Config{Workers: 2, QueueDepth: 8})

	serial := fastReq(42)
	serial.Options.Workers = 1
	wide := fastReq(42)
	wide.Options.Workers = 4

	_, sbA, _ := postJob(t, baseA, serial)
	waitTerminal(t, baseA, sbA.ID)
	bodyA := getBody(t, baseA, "/v1/jobs/"+sbA.ID+"/result", http.StatusOK)

	_, sbB, _ := postJob(t, baseB, wide)
	waitTerminal(t, baseB, sbB.ID)
	bodyB := getBody(t, baseB, "/v1/jobs/"+sbB.ID+"/result", http.StatusOK)

	if sbA.Key != sbB.Key {
		t.Fatalf("Workers leaked into the cache key:\n w1: %s\n w4: %s", sbA.Key, sbB.Key)
	}
	if !bytes.Equal(bodyA, bodyB) {
		t.Fatal("cold solves at Workers=1 and Workers=4 produced different bytes")
	}

	// On daemon A the wide spelling is now a cache hit — same bytes again.
	code, sbHit, _ := postJob(t, baseA, wide)
	if code != http.StatusOK || sbHit.Cache != "hit" {
		t.Fatalf("Workers=4 resubmit on daemon A: code=%d cache=%q, want 200/hit", code, sbHit.Cache)
	}
	hot := getBody(t, baseA, "/v1/jobs/"+sbHit.ID+"/result", http.StatusOK)
	if !bytes.Equal(hot, bodyA) {
		t.Fatal("cache hit across Workers settings is not byte-identical")
	}
}

// TestOptionSpellingsShareCacheEntry: a request spelling the solver
// defaults explicitly must hit the cache entry written by the
// all-defaults request.
func TestOptionSpellingsShareCacheEntry(t *testing.T) {
	_, base := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	_, implicit, _ := postJob(t, base, JobRequest{Circuit: "KSA8", K: 3})
	waitTerminal(t, base, implicit.ID)

	code, explicit, _ := postJob(t, base, JobRequest{Circuit: "KSA8", K: 3, Options: &JobOptions{
		Seed: 1, Margin: 1e-4, MaxIters: 4000, RefinePasses: 8, Workers: 1,
	}})
	if explicit.Key != implicit.Key {
		t.Fatalf("default spellings produced different keys:\n %s\n %s", implicit.Key, explicit.Key)
	}
	if code != http.StatusOK || explicit.Cache != "hit" {
		t.Fatalf("explicit-defaults submit: code=%d cache=%q, want 200/hit", code, explicit.Cache)
	}
}

func TestQueueOverflow429(t *testing.T) {
	s, base := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	rejected0 := s.m.rejected.Value()

	codeA, a, _ := postJob(t, base, slowReq(101))
	if codeA != http.StatusAccepted {
		t.Fatalf("job A = %d, want 202", codeA)
	}
	waitRunning(t, base, a.ID) // worker occupied; queue empty

	codeB, b, _ := postJob(t, base, slowReq(102))
	if codeB != http.StatusAccepted {
		t.Fatalf("job B = %d, want 202", codeB)
	}

	// Queue slot taken: the next distinct submission must bounce.
	codeC, _, hdr := postJob(t, base, slowReq(103))
	if codeC != http.StatusTooManyRequests {
		t.Fatalf("job C = %d, want 429", codeC)
	}
	ra, err := strconv.Atoi(hdr.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("429 Retry-After = %q, want an integer ≥ 1", hdr.Get("Retry-After"))
	}
	if d := s.m.rejected.Value() - rejected0; d != 1 {
		t.Errorf("gpp_serve_queue_rejected_total advanced by %d, want 1", d)
	}

	// A rejected submission leaves no job behind.
	resp, err := http.Get(base + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []statusBody `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Jobs) != 2 {
		t.Fatalf("registry holds %d jobs after a 429, want 2", len(list.Jobs))
	}

	// Cancel both so cleanup drains instantly.
	for _, id := range []string{a.ID, b.ID} {
		req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+id, nil)
		if _, err := http.DefaultClient.Do(req); err != nil {
			t.Fatal(err)
		}
	}
	if st := waitTerminal(t, base, a.ID); st.Status != StatusCancelled {
		t.Errorf("job A ended %s, want cancelled", st.Status)
	}
	if st := waitTerminal(t, base, b.ID); st.Status != StatusCancelled {
		t.Errorf("job B ended %s, want cancelled", st.Status)
	}
}

func TestCancelRunningJob(t *testing.T) {
	s, base := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	cancelled0 := s.m.cancelled.Value()
	_, sb, _ := postJob(t, base, slowReq(201))
	waitRunning(t, base, sb.ID)

	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+sb.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel = %d, want 202", resp.StatusCode)
	}
	st := waitTerminal(t, base, sb.ID)
	if st.Status != StatusCancelled {
		t.Fatalf("job ended %s (%s), want cancelled", st.Status, st.Error)
	}
	if d := s.m.cancelled.Value() - cancelled0; d != 1 {
		t.Errorf("gpp_serve_jobs_cancelled_total advanced by %d, want 1", d)
	}
	// A second cancel conflicts, and the result endpoint refuses.
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Fatalf("cancel of a terminal job = %d, want 409", resp2.StatusCode)
	}
	getBody(t, base, "/v1/jobs/"+sb.ID+"/result", http.StatusConflict)
}

func TestJobDeadline(t *testing.T) {
	_, base := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	req := slowReq(301)
	req.TimeoutMS = 50
	_, sb, _ := postJob(t, base, req)
	st := waitTerminal(t, base, sb.ID)
	if st.Status != StatusFailed {
		t.Fatalf("deadlined job ended %s, want failed", st.Status)
	}
	if !strings.Contains(st.Error, "deadline") {
		t.Fatalf("error %q does not mention the deadline", st.Error)
	}
}

func TestSSEStream(t *testing.T) {
	_, base := newTestServer(t, Config{Workers: 1, QueueDepth: 4, ProgressEvery: 10})
	_, sb, _ := postJob(t, base, fastReq(401))

	resp, err := http.Get(base + "/v1/jobs/" + sb.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	// Read frames until the terminal status frame (the handler closes the
	// stream after it). Whether events arrive via replay or live depends on
	// timing; the union must cover the whole lifecycle either way.
	kinds := map[string]int{}
	var statusData string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
			kinds[event]++
		case strings.HasPrefix(line, "data: ") && event == "status":
			statusData = strings.TrimPrefix(line, "data: ")
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"job_queued", "job_running", "solve_start", "iter", "solve_done", "job_done", "status"} {
		if kinds[want] == 0 {
			t.Errorf("stream missing %q frames (got %v)", want, kinds)
		}
	}
	var final statusBody
	if err := json.Unmarshal([]byte(statusData), &final); err != nil {
		t.Fatalf("terminal status frame %q: %v", statusData, err)
	}
	if final.Status != StatusDone || len(final.Result) == 0 {
		t.Fatalf("terminal frame status=%s result=%d bytes, want done with result", final.Status, len(final.Result))
	}
}

func TestSubmitValidation(t *testing.T) {
	_, base := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	slack := 0.05
	cases := []struct {
		name string
		req  JobRequest
		want int
	}{
		{"no source", JobRequest{K: 2}, http.StatusBadRequest},
		{"two sources", JobRequest{Circuit: "KSA8", DEF: "x", K: 2}, http.StatusBadRequest},
		{"unknown benchmark", JobRequest{Circuit: "nope", K: 2}, http.StatusBadRequest},
		{"bad k", JobRequest{Circuit: "KSA8", K: 0}, http.StatusBadRequest},
		{"unknown from_job", JobRequest{FromJob: "deadbeef", K: 2}, http.StatusNotFound},
		{"balanced plus restarts", JobRequest{Circuit: "KSA8", K: 2, Restarts: 3, BalancedSlack: &slack}, http.StatusBadRequest},
		{"bad margin", JobRequest{Circuit: "KSA8", K: 2, Options: &JobOptions{Margin: 1.5}}, http.StatusBadRequest},
		{"bad def", JobRequest{DEF: "not a def file", K: 2}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		code, _, _ := postJob(t, base, tc.req)
		if code != tc.want {
			t.Errorf("%s: code = %d, want %d", tc.name, code, tc.want)
		}
	}
	// Malformed JSON body.
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body = %d, want 400", resp.StatusCode)
	}
}

// TestAssignmentCacheRoundTrip covers the assignio interaction: the
// assignment TSV of a cache-hit job must be byte-identical to the cold
// job's, and both must round-trip through assignio.Read and ReadPartial
// back to the served labels.
func TestAssignmentCacheRoundTrip(t *testing.T) {
	_, base := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	_, cold, _ := postJob(t, base, fastReq(501))
	waitTerminal(t, base, cold.ID)
	coldTSV := getBody(t, base, "/v1/jobs/"+cold.ID+"/assignment", http.StatusOK)

	code, hot, _ := postJob(t, base, fastReq(501))
	if code != http.StatusOK || hot.Cache != "hit" {
		t.Fatalf("resubmit: code=%d cache=%q, want 200/hit", code, hot.Cache)
	}
	hotTSV := getBody(t, base, "/v1/jobs/"+hot.ID+"/assignment", http.StatusOK)
	if !bytes.Equal(coldTSV, hotTSV) {
		t.Fatal("cache-hit assignment TSV differs from the cold solve's")
	}

	var env resultEnvelope
	if err := json.Unmarshal(getBody(t, base, "/v1/jobs/"+cold.ID+"/result", http.StatusOK), &env); err != nil {
		t.Fatal(err)
	}
	circuit, err := gen.Benchmark("KSA8", nil)
	if err != nil {
		t.Fatal(err)
	}
	labels, k, err := assignio.Read(bytes.NewReader(coldTSV), circuit)
	if err != nil {
		t.Fatalf("assignio.Read: %v", err)
	}
	if k > 4 || len(labels) != len(env.Labels) {
		t.Fatalf("read k=%d labels=%d, want ≤4 planes over %d gates", k, len(labels), len(env.Labels))
	}
	for i := range labels {
		if labels[i] != env.Labels[i] {
			t.Fatalf("gate %d: TSV label %d != result label %d", i, labels[i], env.Labels[i])
		}
	}

	// ReadPartial over a truncated assignment (an ECO-style subset): kept
	// lines must match the result, dropped gates must be -1.
	lines := strings.Split(strings.TrimRight(string(coldTSV), "\n"), "\n")
	keep := lines[:len(lines)/2]
	partial, _, err := assignio.ReadPartial(strings.NewReader(strings.Join(keep, "\n")+"\n"), circuit)
	if err != nil {
		t.Fatalf("assignio.ReadPartial: %v", err)
	}
	seen := 0
	for i := range partial {
		switch partial[i] {
		case -1:
			// dropped by truncation
		case env.Labels[i]:
			seen++
		default:
			t.Fatalf("gate %d: partial label %d != result label %d", i, partial[i], env.Labels[i])
		}
	}
	if seen == 0 || seen == len(partial) {
		t.Fatalf("truncation produced a degenerate partial read (%d/%d assigned)", seen, len(partial))
	}
}

func TestFromJobReusesCircuit(t *testing.T) {
	_, base := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	_, first, _ := postJob(t, base, fastReq(601))
	waitTerminal(t, base, first.ID)

	code, ref, _ := postJob(t, base, JobRequest{FromJob: first.ID, K: 5, Options: &JobOptions{Seed: 601, MaxIters: 300}})
	if code != http.StatusAccepted {
		t.Fatalf("from_job submit = %d, want 202", code)
	}
	if ref.CircuitHash != first.CircuitHash || ref.Gates != first.Gates {
		t.Fatal("from_job did not reuse the prior job's circuit")
	}
	if ref.Key == first.Key {
		t.Fatal("different K reused the same cache key")
	}
	st := waitTerminal(t, base, ref.ID)
	if st.Status != StatusDone {
		t.Fatalf("from_job job ended %s (%s)", st.Status, st.Error)
	}
}

func TestDEFUploadAndPlan(t *testing.T) {
	_, base := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	circuit, err := gen.Benchmark("MULT4", nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := def.Write(&buf, circuit, nil); err != nil {
		t.Fatal(err)
	}
	req := JobRequest{DEF: buf.String(), K: 3, Plan: true, Options: &JobOptions{Seed: 601, MaxIters: 300}}
	_, sb, _ := postJob(t, base, req)
	st := waitTerminal(t, base, sb.ID)
	if st.Status != StatusDone {
		t.Fatalf("DEF job ended %s (%s)", st.Status, st.Error)
	}
	var env resultEnvelope
	if err := json.Unmarshal(getBody(t, base, "/v1/jobs/"+sb.ID+"/result", http.StatusOK), &env); err != nil {
		t.Fatal(err)
	}
	if env.Plan == nil {
		t.Fatal("plan requested but absent from the result")
	}
	if env.Plan.SupplyCurrentMA <= 0 || env.Plan.SupplyCurrentMA >= circuit.TotalBias() {
		t.Fatalf("recycling plan supply %.3f mA not inside (0, %.3f)", env.Plan.SupplyCurrentMA, circuit.TotalBias())
	}

	// The same upload again is a cache hit: DEF parsing is deterministic.
	code, again, _ := postJob(t, base, req)
	if code != http.StatusOK || again.Cache != "hit" || again.CircuitHash != sb.CircuitHash {
		t.Fatalf("identical DEF resubmit: code=%d cache=%q, want 200/hit with equal hash", code, again.Cache)
	}
}

// TestPlanFlagSplitsCacheKey is the regression test for a cache-key
// collision: the plan flag changes the cached body (the recycling-plan
// section is only present when requested), so a plan=true submission must
// never be answered from a plan=false entry or vice versa.
func TestPlanFlagSplitsCacheKey(t *testing.T) {
	_, base := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	bare := fastReq(7)
	planned := fastReq(7)
	planned.Plan = true

	code, sbBare, _ := postJob(t, base, bare)
	if code != http.StatusAccepted {
		t.Fatalf("cold plan=false submit = %d, want 202", code)
	}
	if st := waitTerminal(t, base, sbBare.ID); st.Status != StatusDone {
		t.Fatalf("plan=false job ended %s (%s)", st.Status, st.Error)
	}

	// The planned variant of the now-cached solve must miss and re-solve.
	code, sbPlan, _ := postJob(t, base, planned)
	if code != http.StatusAccepted || sbPlan.Cache != "miss" {
		t.Fatalf("plan=true after cached plan=false: code=%d cache=%q, want 202/miss", code, sbPlan.Cache)
	}
	if sbPlan.Key == sbBare.Key {
		t.Fatal("plan=true and plan=false share a cache key")
	}
	if st := waitTerminal(t, base, sbPlan.ID); st.Status != StatusDone {
		t.Fatalf("plan=true job ended %s (%s)", st.Status, st.Error)
	}

	// Each flavor now hits its own entry with the matching body shape.
	check := func(req JobRequest, wantPlan bool) {
		t.Helper()
		code, sb, _ := postJob(t, base, req)
		if code != http.StatusOK || sb.Cache != "hit" {
			t.Fatalf("resubmit plan=%v: code=%d cache=%q, want 200/hit", req.Plan, code, sb.Cache)
		}
		var env resultEnvelope
		if err := json.Unmarshal(getBody(t, base, "/v1/jobs/"+sb.ID+"/result", http.StatusOK), &env); err != nil {
			t.Fatal(err)
		}
		if got := env.Plan != nil; got != wantPlan {
			t.Fatalf("plan=%v cache hit returned plan-present=%v", req.Plan, got)
		}
	}
	check(bare, false)
	check(planned, true)
}

func TestHealthzAndMetrics(t *testing.T) {
	_, base := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	var h struct {
		Status   string `json:"status"`
		QueueCap int    `json:"queue_cap"`
		Workers  int    `json:"workers"`
	}
	if err := json.Unmarshal(getBody(t, base, "/healthz", http.StatusOK), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.QueueCap != 8 || h.Workers != 2 {
		t.Fatalf("healthz = %+v", h)
	}
	prom := string(getBody(t, base, "/metrics", http.StatusOK))
	for _, metric := range []string{
		"gpp_serve_cache_hits_total", "gpp_serve_jobs_submitted_total",
		"gpp_serve_queue_rejected_total", "gpp_serve_job_seconds",
	} {
		if !strings.Contains(prom, metric) {
			t.Errorf("/metrics missing %s", metric)
		}
	}
}

func TestDrainingRejectsSubmissions(t *testing.T) {
	s, err := New(Config{Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s)
	defer hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("idle shutdown: %v", err)
	}
	code, _, _ := postJob(t, hs.URL, fastReq(701))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", code)
	}
	getBody(t, hs.URL, "/healthz", http.StatusServiceUnavailable)
	// Shutdown is idempotent.
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// TestPrecisionJobTier: the solver runs float64 only. An absent precision
// and the explicit "float64" spelling share one cache key, and "float32"
// or any other value is a 400 naming the value — on jobs and on sweeps —
// instead of a float64 result served for a float32 request.
func TestPrecisionJobTier(t *testing.T) {
	_, base := newTestServer(t, Config{Workers: 1, QueueDepth: 8})

	req := func(prec string) JobRequest {
		return JobRequest{Circuit: "KSA8", K: 3, Options: &JobOptions{
			MaxIters: 200, Precision: prec,
		}}
	}
	_, def, _ := postJob(t, base, req(""))
	if done := waitTerminal(t, base, def.ID); done.Status != StatusDone {
		t.Fatalf("default job ended %s (%s), want done", done.Status, done.Error)
	}
	code, f64, _ := postJob(t, base, req("float64"))
	if f64.Key != def.Key {
		t.Fatalf("explicit float64 spelling got its own key:\n %s\n %s", f64.Key, def.Key)
	}
	if code != http.StatusOK || f64.Cache != "hit" {
		t.Fatalf("explicit float64 spelling: code=%d cache=%q, want 200/hit", code, f64.Cache)
	}

	for _, prec := range []string{"float32", "float16", "FLOAT64"} {
		opts := `"options":{"max_iters":200,"precision":"` + prec + `"}`
		for path, body := range map[string]string{
			"/v1/jobs":   `{"circuit":"KSA8","k":3,` + opts + `}`,
			"/v1/sweeps": `{"circuit":"KSA4","spec":{"ks":[3]},` + opts + `}`,
		} {
			code, msg := postError(t, base, path, body)
			if code != http.StatusBadRequest || !strings.Contains(msg, `precision "`+prec+`"`) ||
				!strings.Contains(msg, "float32 tier was removed") {
				t.Errorf("%s precision %s: %d %q, want 400 naming the value and the removal", path, prec, code, msg)
			}
		}
	}
}
