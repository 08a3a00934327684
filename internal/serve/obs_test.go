package serve

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"gpp/internal/obs"
	"gpp/internal/store"
)

// profileDoc mirrors the JSON served by GET /v1/jobs/{id}/profile.
type profileDoc struct {
	ID      string            `json:"id"`
	Status  Status            `json:"status"`
	Circuit string            `json:"circuit"`
	K       int               `json:"k"`
	Dropped int64             `json:"dropped"`
	Events  []json.RawMessage `json:"events"`
}

func getProfile(t *testing.T, base, id string) profileDoc {
	t.Helper()
	raw := getBody(t, base, "/v1/jobs/"+id+"/profile", http.StatusOK)
	var doc profileDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("profile is not JSON: %v\n%s", err, raw)
	}
	return doc
}

// profileSpans decodes the profile's raw event lines back into events and
// rebuilds the span forest.
func profileSpans(t *testing.T, doc profileDoc) []*obs.SpanNode {
	t.Helper()
	events := make([]obs.Event, 0, len(doc.Events))
	for _, raw := range doc.Events {
		var e obs.Event
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatalf("profile event %s: %v", raw, err)
		}
		events = append(events, e)
	}
	return obs.BuildSpanTree(events)
}

// TestJobProfileSpanTree is the tracing acceptance test: a cold multilevel
// solve on a durable daemon yields one connected span tree from HTTP
// accept to persist — queue wait, cache lookup (miss), WAL accept, solve →
// vcycle → every hierarchy level, persist — all under the root "job" span.
func TestJobProfileSpanTree(t *testing.T) {
	_, base := newTestServer(t, Config{Workers: 1, QueueDepth: 8, DataDir: t.TempDir()})
	req := JobRequest{Circuit: "par2000", K: 4,
		Options: &JobOptions{MaxIters: 120}, Multilevel: &MultilevelJob{}}
	_, sb, _ := postJob(t, base, req)
	done := waitTerminal(t, base, sb.ID)
	if done.Status != StatusDone {
		t.Fatalf("job ended %s (%s)", done.Status, done.Error)
	}

	doc := getProfile(t, base, sb.ID)
	if doc.ID != sb.ID || doc.Status != StatusDone || doc.Circuit != "par2000" || doc.K != 4 {
		t.Fatalf("profile header = %+v", doc)
	}
	roots := profileSpans(t, doc)
	if len(roots) != 1 || roots[0].Event.Span != "job" {
		t.Fatalf("want one connected tree rooted at \"job\", got %d roots", len(roots))
	}
	root := roots[0]
	if !strings.Contains(root.Event.Attrs, "circuit=par2000") ||
		!strings.Contains(root.Event.Attrs, "status=done") {
		t.Errorf("root attrs = %q, want circuit and terminal status", root.Event.Attrs)
	}

	counts := map[string]int{}
	attrs := map[string]string{}
	var walk func(n *obs.SpanNode)
	walk = func(n *obs.SpanNode) {
		counts[n.Event.Span]++
		attrs[n.Event.Span] = n.Event.Attrs
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
	for _, want := range []string{"queue_wait", "cache_lookup", "wal_accept", "solve", "vcycle", "coarsen", "level", "persist"} {
		if counts[want] == 0 {
			t.Errorf("span tree missing %q (got %v)", want, counts)
		}
	}
	if attrs["cache_lookup"] != "outcome=miss" {
		t.Errorf("cache_lookup attrs = %q, want outcome=miss", attrs["cache_lookup"])
	}
	if counts["level"] < 2 {
		t.Errorf("%d level spans — V-cycle hierarchy missing from the trace", counts["level"])
	}

	// The trace is timed: the root span carries a duration covering the
	// whole lifecycle.
	if root.Event.DurUS <= 0 {
		t.Errorf("root span duration %dµs, want > 0", root.Event.DurUS)
	}

	// Text rendering of the same profile shows the waterfall.
	text := string(getBody(t, base, "/v1/jobs/"+sb.ID+"/profile?format=text", http.StatusOK))
	for _, want := range []string{"job [", "└─", "vcycle"} {
		if !strings.Contains(text, want) {
			t.Errorf("text profile missing %q:\n%s", want, text)
		}
	}
}

// TestProfileCacheHitOutcome: a repeat submission resolves synchronously
// from the memory cache and its profile says so.
func TestProfileCacheHitOutcome(t *testing.T) {
	_, base := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	_, cold, _ := postJob(t, base, fastReq(8801))
	waitTerminal(t, base, cold.ID)
	code, hot, _ := postJob(t, base, fastReq(8801))
	if code != http.StatusOK {
		t.Fatalf("resubmit = %d, want 200 cache hit", code)
	}
	doc := getProfile(t, base, hot.ID)
	roots := profileSpans(t, doc)
	if len(roots) != 1 {
		t.Fatalf("%d span roots", len(roots))
	}
	var lookup string
	for _, c := range roots[0].Children {
		if c.Event.Span == "cache_lookup" {
			lookup = c.Event.Attrs
		}
	}
	if lookup != "outcome=memory" {
		t.Errorf("cache_lookup attrs = %q, want outcome=memory", lookup)
	}
	if !strings.Contains(roots[0].Event.Attrs, "cache=hit") {
		t.Errorf("root attrs = %q, want cache=hit", roots[0].Event.Attrs)
	}
}

// TestTracingDisabled: with FlightRecorder < 0 the profile endpoint 404s,
// jobs still solve, and the span call pattern the serve hot path makes is
// allocation-free.
func TestTracingDisabled(t *testing.T) {
	s, base := newTestServer(t, Config{Workers: 1, QueueDepth: 4, FlightRecorder: -1})
	_, sb, _ := postJob(t, base, fastReq(8802))
	done := waitTerminal(t, base, sb.ID)
	if done.Status != StatusDone {
		t.Fatalf("job ended %s (%s)", done.Status, done.Error)
	}
	getBody(t, base, "/v1/jobs/"+sb.ID+"/profile", http.StatusNotFound)

	j, ok := s.store.get(sb.ID)
	if !ok {
		t.Fatal("job vanished from the store")
	}
	if j.profileCap != 0 || j.trace != nil || j.span != nil {
		t.Fatal("tracing state attached despite FlightRecorder: -1")
	}
	allocs := testing.AllocsPerRun(100, func() {
		j.spanCacheLookup("memory")
		solve := j.span.Child("solve")
		wal := j.span.Child("wal_accept")
		wal.End()
		solve.AttrInt("iters", 100)
		solve.End()
		j.endRootSpan(StatusDone, false)
	})
	if allocs != 0 {
		t.Errorf("disabled-tracing span path allocates %.1f per job", allocs)
	}
}

// TestFlightRecorderBounded: a tiny ring drops oldest events but keeps the
// job's span tree intact (spans emit at End, so the lifecycle spans are
// the newest events and survive).
func TestFlightRecorderBounded(t *testing.T) {
	_, base := newTestServer(t, Config{Workers: 1, QueueDepth: 4,
		FlightRecorder: 32, ProgressEvery: 1})
	req := JobRequest{Circuit: "KSA8", K: 4, Options: &JobOptions{Seed: 9, MaxIters: 2000, Margin: 1e-300}}
	_, sb, _ := postJob(t, base, req)
	waitTerminal(t, base, sb.ID)
	doc := getProfile(t, base, sb.ID)
	if len(doc.Events) > 32 {
		t.Fatalf("ring served %d events, cap 32", len(doc.Events))
	}
	if doc.Dropped == 0 {
		t.Fatal("2000 per-iteration events through a 32-slot ring dropped nothing")
	}
	roots := profileSpans(t, doc)
	if len(roots) != 1 || roots[0].Event.Span != "job" {
		t.Fatalf("root span lost to ring eviction (%d roots)", len(roots))
	}
}

// TestSSEKeepalive: a slow job's event stream carries comment-line
// heartbeats so idle stretches don't look like a dead connection.
func TestSSEKeepalive(t *testing.T) {
	_, base := newTestServer(t, Config{Workers: 1, QueueDepth: 4,
		SSEKeepalive: 20 * time.Millisecond, ProgressEvery: 1_000_000})
	_, sb, _ := postJob(t, base, slowReq(8803))
	waitRunning(t, base, sb.ID)

	resp, err := http.Get(base + "/v1/jobs/" + sb.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	keepalives := 0
	deadline := time.Now().Add(15 * time.Second)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() && time.Now().Before(deadline) {
		if strings.HasPrefix(sc.Text(), ": keepalive") {
			keepalives++
			if keepalives >= 3 {
				return
			}
		}
	}
	t.Fatalf("saw %d keepalive comments before the stream ended (want ≥3)", keepalives)
}

// TestOpsSnapshotAndHealthz: after a cold solve and a cache hit, the ops
// endpoint reports the daemon's counters, quantiles, SLO burn, and recent
// jobs; /healthz carries the new uptime/in-flight fields.
func TestOpsSnapshotAndHealthz(t *testing.T) {
	_, base := newTestServer(t, Config{Workers: 2, QueueDepth: 8, SLOSolve: time.Hour})
	_, cold, _ := postJob(t, base, fastReq(8804))
	waitTerminal(t, base, cold.ID)
	code, _, _ := postJob(t, base, fastReq(8804))
	if code != http.StatusOK {
		t.Fatalf("resubmit = %d, want cache hit", code)
	}

	var ops opsBody
	if err := json.Unmarshal(getBody(t, base, "/v1/debug/ops", http.StatusOK), &ops); err != nil {
		t.Fatal(err)
	}
	if ops.Jobs.Submitted < 2 || ops.Jobs.Completed < 2 {
		t.Errorf("ops jobs = %+v, want ≥2 submitted and completed", ops.Jobs)
	}
	if ops.Cache.Hits < 1 || ops.Cache.Misses < 1 || ops.Cache.HitRate <= 0 {
		t.Errorf("ops cache = %+v, want ≥1 hit and miss", ops.Cache)
	}
	if ops.Workers != 2 || ops.UptimeS < 0 {
		t.Errorf("ops workers=%d uptime=%f", ops.Workers, ops.UptimeS)
	}
	if ops.Latency.SolveP50S <= 0 {
		t.Errorf("solve p50 = %f, want > 0 after a cold solve", ops.Latency.SolveP50S)
	}
	if ops.SLO == nil || ops.SLO.Within < 1 || ops.SLO.Breached != 0 || ops.SLO.BurnRate != 0 {
		t.Errorf("ops slo = %+v, want ≥1 within and no burn under a 1h target", ops.SLO)
	}
	if len(ops.Recent) == 0 || ops.Recent[0].Status != StatusDone {
		t.Errorf("ops recent = %+v, want newest job done", ops.Recent)
	}

	text := string(getBody(t, base, "/v1/debug/ops?format=text", http.StatusOK))
	for _, want := range []string{"gpp-serve ops", "jobs:", "cache:", "slo:", "└─"} {
		if !strings.Contains(text, want) {
			t.Errorf("ops text missing %q:\n%s", want, text)
		}
	}

	var health struct {
		Status   string  `json:"status"`
		UptimeS  float64 `json:"uptime_s"`
		Inflight *int64  `json:"inflight"`
	}
	if err := json.Unmarshal(getBody(t, base, "/healthz", http.StatusOK), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.UptimeS < 0 || health.Inflight == nil {
		t.Errorf("healthz = %+v, want ok with uptime and inflight", health)
	}
}

// TestProfilePersistedInJournal: the terminal journal record carries the
// job's profile, so the flight recorder survives the daemon.
func TestProfilePersistedInJournal(t *testing.T) {
	dir := t.TempDir()
	s, base := newTestServer(t, Config{Workers: 1, QueueDepth: 4, DataDir: dir})
	_, sb, _ := postJob(t, base, fastReq(8805))
	waitTerminal(t, base, sb.ID)
	// The worker appends the terminal record after flipping job status;
	// give it a beat.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.durable.mu.Lock()
		_, live := s.durable.live[sb.ID]
		s.durable.mu.Unlock()
		if !live || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	jnl, recs, err := store.OpenJournal(s.durable.st.JournalPath())
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	found := false
	for _, rec := range recs {
		if rec.ID == sb.ID && rec.Op == string(StatusDone) {
			found = true
			var doc profileDoc
			if err := json.Unmarshal(rec.Data, &doc); err != nil {
				t.Fatalf("terminal record payload is not a profile: %v", err)
			}
			if doc.ID != sb.ID || len(doc.Events) == 0 {
				t.Fatalf("journaled profile = id %q with %d events", doc.ID, len(doc.Events))
			}
		}
	}
	if !found {
		t.Fatal("no terminal journal record for the finished job")
	}
}
