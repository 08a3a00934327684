package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"testing"
	"time"

	"gpp/internal/gen"
	"gpp/internal/obs"
	"gpp/internal/store"
)

// restartServer shuts one daemon down cleanly and boots a fresh one on
// the same data directory — the redeploy half of the durability story
// (the crash half, SIGKILL mid-solve, lives in the e2e test).
func restartServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	return newTestServer(t, cfg)
}

func TestDurableCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 2, QueueDepth: 8, DataDir: dir}

	s1, base1 := newTestServer(t, cfg)
	code, sb, _ := postJob(t, base1, fastReq(4001))
	if code != http.StatusAccepted {
		t.Fatalf("cold submit = %d, want 202", code)
	}
	done := waitTerminal(t, base1, sb.ID)
	if done.Status != StatusDone {
		t.Fatalf("cold solve ended %s: %s", done.Status, done.Error)
	}
	cold := getBody(t, base1, "/v1/jobs/"+sb.ID+"/result", http.StatusOK)
	shutdownNow(t, s1)

	s2, base2 := restartServer(t, cfg)
	if s2.cache.len() != 0 {
		t.Fatalf("fresh LRU has %d entries", s2.cache.len())
	}
	code, sb2, _ := postJob(t, base2, fastReq(4001))
	// The identical request must resolve synchronously from disk: 200 (not
	// 202), marked a cache hit, body byte-identical to the pre-restart
	// solve.
	if code != http.StatusOK {
		t.Fatalf("post-restart submit = %d, want 200 (disk cache hit)", code)
	}
	if sb2.Cache != "hit" || sb2.Status != StatusDone {
		t.Fatalf("post-restart job: cache=%s status=%s", sb2.Cache, sb2.Status)
	}
	warm := getBody(t, base2, "/v1/jobs/"+sb2.ID+"/result", http.StatusOK)
	if string(cold) != string(warm) {
		t.Fatalf("result changed across restart:\n pre: %s\npost: %s", cold, warm)
	}
	if sb2.Key != sb.Key {
		t.Fatalf("cache key changed across restart: %s vs %s", sb2.Key, sb.Key)
	}
}

func TestDurableJournalReplaysUnfinishedJob(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, QueueDepth: 8, DataDir: dir}

	// Forge the on-disk state a crashed daemon leaves behind: the circuit
	// blob plus an accepted-but-unfinished job in the journal, written with
	// the same store primitives the daemon uses.
	circuit, err := gen.Benchmark("KSA8", nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	circJSON, err := json.Marshal(circuit)
	if err != nil {
		t.Fatal(err)
	}
	blobKey, err := st.Blobs.Put(circJSON)
	if err != nil {
		t.Fatal(err)
	}
	jnl, _, err := store.OpenJournal(st.JournalPath())
	if err != nil {
		t.Fatal(err)
	}
	const jobID = "deadbeef00000001"
	data, err := json.Marshal(&journaledJob{
		ID: jobID, CircuitBlob: blobKey, CircuitName: circuit.Name,
		K: 4, Options: &JobOptions{Seed: 4002, MaxIters: 300},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jnl.Append(store.Record{Op: "accept", ID: jobID, Data: data}); err != nil {
		t.Fatal(err)
	}
	// A second job already marked done must NOT replay.
	if _, err := jnl.Append(store.Record{Op: "accept", ID: "deadbeef00000002", Data: data}); err != nil {
		t.Fatal(err)
	}
	if _, err := jnl.Append(store.Record{Op: "done", ID: "deadbeef00000002"}); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	recovered0 := mJobsRecovered.Value()
	_, base := newTestServer(t, cfg)
	if got := mJobsRecovered.Value() - recovered0; got != 1 {
		t.Fatalf("recovered %v jobs at boot, want 1", got)
	}
	// The replayed job is queryable under its original id and completes.
	sb := waitTerminal(t, base, jobID)
	if sb.Status != StatusDone {
		t.Fatalf("replayed job ended %s: %s", sb.Status, sb.Error)
	}
	if sb.ID != jobID {
		t.Fatalf("replayed job id = %s, want %s", sb.ID, jobID)
	}
	// Its result must equal a fresh submission of the same request — the
	// re-run is a pure function of the journaled request.
	replayed := getBody(t, base, "/v1/jobs/"+jobID+"/result", http.StatusOK)
	code, sb2, _ := postJob(t, base, JobRequest{
		Circuit: "KSA8", K: 4, Options: &JobOptions{Seed: 4002, MaxIters: 300},
	})
	if code != http.StatusOK || sb2.Cache != "hit" {
		t.Fatalf("identical submit after replayed solve: code=%d cache=%s", code, sb2.Cache)
	}
	fresh := getBody(t, base, "/v1/jobs/"+sb2.ID+"/result", http.StatusOK)
	if string(replayed) != string(fresh) {
		t.Fatalf("replayed result differs from fresh solve")
	}
}

func TestDurableJournalMarksFinished(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, QueueDepth: 8, DataDir: dir}

	s1, base1 := newTestServer(t, cfg)
	_, sb, _ := postJob(t, base1, fastReq(4003))
	waitTerminal(t, base1, sb.ID)
	shutdownNow(t, s1)

	// The finished job left a terminal record, so a restart replays
	// nothing and the journal compacts to empty.
	recovered0 := mJobsRecovered.Value()
	s2, _ := restartServer(t, cfg)
	if got := mJobsRecovered.Value() - recovered0; got != 0 {
		t.Fatalf("restart after clean finish recovered %v jobs, want 0", got)
	}
	s2.durable.mu.Lock()
	live := len(s2.durable.live)
	s2.durable.mu.Unlock()
	if live != 0 {
		t.Fatalf("journal has %d live records after clean finish", live)
	}
}

// TestDurableBootRewritesOnlyStaleJournals: a boot compacts the journal
// only when replay found records to drop. A fresh data directory's empty
// journal and a just-compacted one are not rewritten; a terminal record
// forces the rewrite.
func TestDurableBootRewritesOnlyStaleJournals(t *testing.T) {
	compactions := obs.Default().Counter("gpp_journal_compactions_total")
	dir := t.TempDir()
	cfg := Config{Workers: 1, QueueDepth: 8, DataDir: dir}

	c0 := compactions.Value()
	s1, base1 := newTestServer(t, cfg)
	if got := compactions.Value() - c0; got != 0 {
		t.Fatalf("boot on a fresh data directory compacted %d times, want 0", got)
	}
	_, sb, _ := postJob(t, base1, fastReq(4004))
	waitTerminal(t, base1, sb.ID)
	shutdownNow(t, s1)

	c1 := compactions.Value()
	s2, _ := restartServer(t, cfg)
	if got := compactions.Value() - c1; got != 1 {
		t.Fatalf("boot on a journal with a terminal record compacted %d times, want 1", got)
	}
	shutdownNow(t, s2)

	c2 := compactions.Value()
	restartServer(t, cfg)
	if got := compactions.Value() - c2; got != 0 {
		t.Fatalf("boot on a just-compacted journal compacted %d times, want 0", got)
	}
}

// TestDurableBootOnTornJournal: a crash mid-append leaves a torn tail
// behind records that are all still live. The boot truncates the tail in
// store.OpenJournal (fsync'd there, since no compaction follows), replays
// the live job, and the records appended after the boot replay cleanly.
func TestDurableBootOnTornJournal(t *testing.T) {
	torn := obs.Default().Counter("gpp_journal_torn_total")
	compactions := obs.Default().Counter("gpp_journal_compactions_total")
	dir := t.TempDir()
	cfg := Config{Workers: 1, QueueDepth: 8, DataDir: dir}

	circuit, err := gen.Benchmark("KSA8", nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	circJSON, err := json.Marshal(circuit)
	if err != nil {
		t.Fatal(err)
	}
	blobKey, err := st.Blobs.Put(circJSON)
	if err != nil {
		t.Fatal(err)
	}
	path := st.JournalPath()
	jnl, _, err := store.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	const jobID = "deadbeef00000003"
	data, err := json.Marshal(&journaledJob{
		ID: jobID, CircuitBlob: blobKey, CircuitName: circuit.Name,
		K: 4, Options: &JobOptions{Seed: 4005, MaxIters: 300},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jnl.Append(store.Record{Op: "accept", ID: jobID, Data: data}); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`deadbeef {"seq":1,"op":"acc`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	t0, c0, r0 := torn.Value(), compactions.Value(), mJobsRecovered.Value()
	s, base := newTestServer(t, cfg)
	if got := torn.Value() - t0; got != 1 {
		t.Fatalf("boot counted %d torn tails, want 1", got)
	}
	if got := compactions.Value() - c0; got != 0 {
		t.Fatalf("boot on an all-live journal compacted %d times, want 0", got)
	}
	if got := mJobsRecovered.Value() - r0; got != 1 {
		t.Fatalf("recovered %v jobs at boot, want 1", got)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("truncation left its temp file behind: %v", err)
	}
	if sb := waitTerminal(t, base, jobID); sb.Status != StatusDone {
		t.Fatalf("replayed job ended %s: %s", sb.Status, sb.Error)
	}
	shutdownNow(t, s)

	// The done record landed after the clean prefix, not after garbage.
	t1 := torn.Value()
	jnl, recs, err := store.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	if got := torn.Value() - t1; got != 0 {
		t.Fatalf("second replay hit %d torn tails, want 0", got)
	}
	if len(recs) != 2 || recs[0].Op != "accept" || recs[1].Op != string(StatusDone) || recs[1].ID != jobID {
		t.Fatalf("journal after boot = %+v, want accept then done of %s", recs, jobID)
	}
}

// shutdownNow drains a server inline (httptest cleanup from newTestServer
// will still run later; Shutdown is idempotent).
func shutdownNow(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestListNewestFirstBoundedFiltered(t *testing.T) {
	_, base := newTestServer(t, Config{Workers: 2, QueueDepth: 16})
	var ids []string
	for i := 0; i < 5; i++ {
		code, sb, _ := postJob(t, base, fastReq(int64(4100+i)))
		if code != http.StatusAccepted {
			t.Fatalf("submit %d = %d", i, code)
		}
		waitTerminal(t, base, sb.ID)
		ids = append(ids, sb.ID)
	}
	var out struct {
		Jobs  []statusBody `json:"jobs"`
		Total int          `json:"total"`
	}
	decode := func(path string) {
		t.Helper()
		out.Jobs, out.Total = nil, 0
		if err := json.Unmarshal(getBody(t, base, path, http.StatusOK), &out); err != nil {
			t.Fatal(err)
		}
	}

	decode("/v1/jobs")
	if out.Total != 5 || len(out.Jobs) != 5 {
		t.Fatalf("list: total=%d len=%d, want 5/5", out.Total, len(out.Jobs))
	}
	for i, sb := range out.Jobs { // newest first
		if want := ids[len(ids)-1-i]; sb.ID != want {
			t.Fatalf("list[%d] = %s, want %s (newest first)", i, sb.ID, want)
		}
		if sb.Result != nil {
			t.Fatalf("list[%d] carries a result body", i)
		}
	}

	decode("/v1/jobs?limit=2")
	if out.Total != 5 || len(out.Jobs) != 2 {
		t.Fatalf("limit=2: total=%d len=%d, want 5/2", out.Total, len(out.Jobs))
	}
	if out.Jobs[0].ID != ids[4] || out.Jobs[1].ID != ids[3] {
		t.Fatalf("limit=2 returned %s,%s, want the two newest", out.Jobs[0].ID, out.Jobs[1].ID)
	}

	decode("/v1/jobs?status=done")
	if out.Total != 5 {
		t.Fatalf("status=done total=%d, want 5", out.Total)
	}
	decode("/v1/jobs?status=failed")
	if out.Total != 0 || len(out.Jobs) != 0 {
		t.Fatalf("status=failed: total=%d len=%d, want 0/0", out.Total, len(out.Jobs))
	}

	getBody(t, base, "/v1/jobs?limit=0", http.StatusBadRequest)
	getBody(t, base, "/v1/jobs?limit=x", http.StatusBadRequest)
	getBody(t, base, "/v1/jobs?status=bogus", http.StatusBadRequest)
}
