package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"gpp/internal/netlist"
	"gpp/internal/obs"
	"gpp/internal/store"
)

// Durability glue: when Config.DataDir is set, the daemon survives a
// crash or redeploy with its two kinds of state intact.
//
//   - Result cache. Every solved entry is persisted to the blob store
//     under its cache key (the request's content address), so a restarted
//     daemon answers repeated requests byte-identical from disk — the
//     in-memory LRU becomes a read-through cache over the blob store.
//
//   - Job queue. Accepted jobs are journaled (write-ahead: the accept
//     record is durable before the 202 leaves the process) with their
//     circuit stored content-addressed in the blob store. On boot the
//     journal replays, every accepted-but-unfinished job is re-enqueued
//     under its original id — a client polling a pre-crash job id finds
//     its job running again, not a 404 — and the journal compacts down
//     to the still-live records.
//
// Journal record schema: op "accept" carries a journaledJob document;
// "done", "failed", and "cancelled" mark that id terminal; "handoff"
// records a steal grant (informational — the accept stays live, so a
// crash mid-steal replays the job). Unknown ops are ignored on replay.
type durable struct {
	st  *store.Store
	jnl *store.Journal

	// blobs is where circuits and cache entries live, behind the Backend
	// seam: every durable read/write goes through it, so pointing it at a
	// remote object store is a one-line change here. Only maintenance
	// (boot GC) reaches for the concrete on-disk store.
	blobs store.Backend

	// mu guards live, the accept records not yet marked terminal — the
	// compaction set.
	mu   sync.Mutex
	live map[string]store.Record
}

// compactAfter bounds journal growth: once this many records accumulate
// past the last compact, the journal is rewritten down to the live set.
const compactAfter = 1024

// journaledJob is the accept record's payload: the original request with
// the circuit replaced by its content address in the blob store (a DEF
// upload would otherwise bloat the journal, and the blob dedupes repeat
// submissions of the same circuit for free).
type journaledJob struct {
	ID          string         `json:"id"`
	CircuitBlob string         `json:"circuit_blob"`
	CircuitName string         `json:"circuit_name"`
	K           int            `json:"k"`
	Restarts    int            `json:"restarts,omitempty"`
	Balanced    *float64       `json:"balanced_slack,omitempty"`
	Multilevel  *MultilevelJob `json:"multilevel,omitempty"`
	Plan        bool           `json:"plan,omitempty"`
	TimeoutMS   int64          `json:"timeout_ms,omitempty"`
	Options     *JobOptions    `json:"options,omitempty"`
}

// cacheBlob is the persisted form of one cache entry: the exact served
// body plus the decoded labels the assignment endpoint needs.
type cacheBlob struct {
	Labels []int           `json:"labels"`
	Body   json.RawMessage `json:"body"`
}

// openDurable opens the data directory, replays the journal, and returns
// the durable state plus the jobs to re-enqueue (in journal order).
func openDurable(cfg Config) (*durable, []*journaledJob, error) {
	st, err := store.Open(cfg.DataDir)
	if err != nil {
		return nil, nil, err
	}
	jnl, recs, err := store.OpenJournal(st.JournalPath())
	if err != nil {
		return nil, nil, err
	}
	d := &durable{st: st, jnl: jnl, blobs: st.Blobs, live: make(map[string]store.Record)}
	for _, rec := range recs {
		switch rec.Op {
		case "accept":
			d.live[rec.ID] = rec
		case string(StatusDone), string(StatusFailed), string(StatusCancelled):
			delete(d.live, rec.ID)
		default:
			// "handoff" (and any future informational op) does NOT
			// terminate the accept record: a node that crashed after
			// granting a steal re-enqueues the job — the thief's result,
			// if it ever arrives, dedupes against the re-run via
			// claimFinish, so the job still finishes exactly once.
		}
	}
	// Unfinished jobs, oldest first (map iteration is unordered; the
	// journal is the order of record).
	var pending []*journaledJob
	for _, rec := range recs {
		liveRec, ok := d.live[rec.ID]
		if !ok || liveRec.Seq != rec.Seq {
			continue
		}
		var jj journaledJob
		if err := json.Unmarshal(rec.Data, &jj); err != nil {
			fmt.Fprintf(os.Stderr, "gpp-serve: journal record %d (job %s) unreadable, skipping: %v\n", rec.Seq, rec.ID, err)
			delete(d.live, rec.ID)
			continue
		}
		pending = append(pending, &jj)
	}
	// Start from a compact log: replayed history minus everything
	// terminal. A log whose every record is live is compact already — a
	// fresh data directory's empty one included — so it is left as it is
	// rather than rewritten and fsync'd on every boot. A torn tail never
	// reaches recs: OpenJournal has already truncated it durably.
	if len(d.live) < len(recs) {
		if err := d.compactLocked(); err != nil {
			return nil, nil, err
		}
	}
	return d, pending, nil
}

// loadCircuit fetches and decodes a journaled job's circuit blob.
func (d *durable) loadCircuit(jj *journaledJob) (*netlist.Circuit, error) {
	raw, err := d.blobs.Get(jj.CircuitBlob)
	if err != nil {
		return nil, fmt.Errorf("job %s circuit blob: %w", jj.ID, err)
	}
	var c netlist.Circuit
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("job %s circuit blob %s: %w", jj.ID, jj.CircuitBlob, err)
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("job %s circuit blob %s: %w", jj.ID, jj.CircuitBlob, err)
	}
	return &c, nil
}

// acceptJob write-ahead-logs an accepted job: circuit into the blob
// store (content-addressed, deduped), accept record fsync'd into the
// journal. Called before the 202 is written; an error here fails the
// submission rather than accepting a job that could not be made durable.
func (d *durable) acceptJob(j *job, req *JobRequest) error {
	circJSON, err := json.Marshal(j.ref.circuit)
	if err != nil {
		return fmt.Errorf("serve: journal circuit: %w", err)
	}
	blobKey, err := d.blobs.Put(circJSON)
	if err != nil {
		return fmt.Errorf("serve: journal circuit: %w", err)
	}
	jj := journaledJob{
		ID:          j.id,
		CircuitBlob: blobKey,
		CircuitName: j.circuitName,
		K:           j.k,
		Restarts:    j.restarts,
		Balanced:    j.balanced,
		Multilevel:  req.Multilevel,
		Plan:        j.plan,
		TimeoutMS:   req.TimeoutMS,
		Options:     req.Options,
	}
	data, err := json.Marshal(&jj)
	if err != nil {
		return fmt.Errorf("serve: journal job: %w", err)
	}
	rec, err := d.jnl.Append(store.Record{Op: "accept", ID: j.id, Data: data})
	if err != nil {
		return fmt.Errorf("serve: journal job: %w", err)
	}
	d.mu.Lock()
	d.live[j.id] = rec
	d.mu.Unlock()
	return nil
}

// handoffJob journals a steal handoff. The record is informational — the
// accept record stays live, so a crash on either side replays the job —
// but it must be durable before the grant leaves the process: it is the
// forensic evidence of where the job went, and the fsync is the point of
// no return after which the thief may be executing.
func (d *durable) handoffJob(id, thief string) error {
	data, err := json.Marshal(map[string]string{"thief": thief})
	if err != nil {
		return fmt.Errorf("serve: journal handoff: %w", err)
	}
	if _, err := d.jnl.Append(store.Record{Op: "handoff", ID: id, Data: data}); err != nil {
		return fmt.Errorf("serve: journal handoff: %w", err)
	}
	return nil
}

// reacceptJob re-registers a replayed job in the live map under its
// original accept record (already in the journal; nothing is appended).
func (d *durable) reacceptJob(id string, rec store.Record) {
	d.mu.Lock()
	d.live[id] = rec
	d.mu.Unlock()
}

// finishJob marks a job terminal in the journal, attaching the job's
// flight-recorder profile (may be nil) as the record payload — recent
// terminal records double as a post-mortem trail until the next
// compaction. Errors are reported but not fatal: the worst case is a
// finished job being re-run after a crash, and the solver's determinism
// makes that re-run byte-identical.
func (d *durable) finishJob(id string, status Status, profile []byte) {
	if _, err := d.jnl.Append(store.Record{Op: string(status), ID: id, Data: profile}); err != nil {
		fmt.Fprintf(os.Stderr, "gpp-serve: journal finish %s: %v\n", id, err)
		return
	}
	d.mu.Lock()
	delete(d.live, id)
	doCompact := d.jnl.AppendsSinceCompact() >= compactAfter
	var err error
	if doCompact {
		err = d.compactLocked()
	}
	d.mu.Unlock()
	if err != nil {
		fmt.Fprintf(os.Stderr, "gpp-serve: journal compact: %v\n", err)
	}
}

// compactLocked rewrites the journal down to the live accept records, in
// sequence order. Callers hold d.mu (or have exclusive access at boot).
func (d *durable) compactLocked() error {
	recs := make([]store.Record, 0, len(d.live))
	for _, rec := range d.live {
		recs = append(recs, rec)
	}
	for i := 1; i < len(recs); i++ {
		for j := i; j > 0 && recs[j].Seq < recs[j-1].Seq; j-- {
			recs[j], recs[j-1] = recs[j-1], recs[j]
		}
	}
	return d.jnl.Compact(recs)
}

// persistEntry writes a finished solve's cache entry to the blob store
// under its cache key. Best-effort: a disk error costs re-solving after
// a restart, not correctness.
func (d *durable) persistEntry(e *cacheEntry) {
	data, err := json.Marshal(&cacheBlob{Labels: e.labels, Body: e.body})
	if err == nil {
		err = d.blobs.PutKeyed(e.key, data)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "gpp-serve: persist cache entry: %v\n", err)
		return
	}
	mCachePersisted.Inc()
}

// loadEntry reads a cache entry back from the blob store; ok is false on
// any miss or damage (damaged blobs are quarantined by the store).
func (d *durable) loadEntry(key string) (*cacheEntry, bool) {
	raw, err := d.blobs.Get(key)
	if err != nil {
		return nil, false
	}
	var cb cacheBlob
	if err := json.Unmarshal(raw, &cb); err != nil {
		return nil, false
	}
	mCacheDiskHits.Inc()
	return &cacheEntry{key: key, body: cb.Body, labels: cb.Labels}, true
}

// close releases the journal handle.
func (d *durable) close() {
	if err := d.jnl.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "gpp-serve: close journal: %v\n", err)
	}
}

var (
	mCachePersisted = obs.Default().Counter("gpp_serve_cache_persisted_total",
		"result-cache entries written to the blob store")
	mCacheDiskHits = obs.Default().Counter("gpp_serve_cache_disk_hits_total",
		"cache lookups answered from the blob store after an LRU miss")
	mJobsRecovered = obs.Default().Counter("gpp_serve_jobs_recovered_total",
		"journaled unfinished jobs re-enqueued at boot")
)
