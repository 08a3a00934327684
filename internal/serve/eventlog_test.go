package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gpp/internal/obs"
	"gpp/internal/store"
)

// TestCacheHitLogSmall: a cache hit records four events (cache_lookup and
// job spans, job_cache_hit, job_done), and its log grows to hold just
// those rather than a full ring.
func TestCacheHitLogSmall(t *testing.T) {
	s, base := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	_, cold, _ := postJob(t, base, fastReq(4501))
	waitTerminal(t, base, cold.ID)
	code, hot, _ := postJob(t, base, fastReq(4501))
	if code != http.StatusOK || hot.Cache != "hit" {
		t.Fatalf("resubmit = %d %s, want 200 hit", code, hot.Cache)
	}
	j, ok := s.store.get(hot.ID)
	if !ok {
		t.Fatal("hit job missing from the registry")
	}
	if n, slots := j.broker.log.Len(), j.broker.log.Slots(); n != 4 || slots > 8 {
		t.Errorf("cache-hit log holds %d events in %d slots, want 4 in ≤ 8", n, slots)
	}
}

// TestFinishedColdLogExact: a finished cold job's log holds no spare
// slots: closing the broker trims the storage the log's doubling left.
func TestFinishedColdLogExact(t *testing.T) {
	s, base := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	_, cold, _ := postJob(t, base, fastReq(4511))
	j, ok := s.store.get(cold.ID)
	if !ok {
		t.Fatal("cold job missing from the registry")
	}
	_, ch, detach := j.broker.subscribe()
	for range ch { // closed when the job finishes
	}
	detach()
	if n, slots := j.broker.log.Len(), j.broker.log.Slots(); n <= 4 || slots != n {
		t.Errorf("finished cold log holds %d events in %d slots, want more than 4 in as many", n, slots)
	}
}

// parentLog is the reference for the job's one log: the event storage a
// job kept before there was one — an eagerly allocated flight-recorder
// ring of Config.FlightRecorder events behind the profile, and a broker
// history of the newest histCap events published before close behind the
// SSE replay. The ring used to keep recording after close; the one log is
// sealed there, so the reference is only fed events published while open.
type parentLog struct {
	ring    []obs.Event
	next, n int
	dropped int64
	hist    []obs.Event
}

func (p *parentLog) publish(e obs.Event) {
	if len(p.ring) > 0 {
		p.ring[p.next] = e
		p.next = (p.next + 1) % len(p.ring)
		if p.n < len(p.ring) {
			p.n++
		} else {
			p.dropped++
		}
	}
	if len(p.hist) == histCap {
		copy(p.hist, p.hist[1:])
		p.hist[histCap-1] = e
	} else {
		p.hist = append(p.hist, e)
	}
}

// profileJSON is the profile document the parent served for j.
func (p *parentLog) profileJSON(j *job) []byte {
	if len(p.ring) == 0 {
		return nil
	}
	status, _, _, _, _, _, _, _ := j.snapshot()
	doc := struct {
		ID      string            `json:"id"`
		Status  Status            `json:"status"`
		Circuit string            `json:"circuit"`
		K       int               `json:"k"`
		Dropped int64             `json:"dropped,omitempty"`
		Events  []json.RawMessage `json:"events"`
	}{ID: j.id, Status: status, Circuit: j.circuitName, K: j.k, Dropped: p.dropped,
		Events: []json.RawMessage{}}
	start := (p.next - p.n + len(p.ring)) % len(p.ring)
	for i := 0; i < p.n; i++ {
		doc.Events = append(doc.Events, encodeEvent(p.ring[(start+i)%len(p.ring)]))
	}
	b, err := json.Marshal(&doc)
	if err != nil {
		panic(err)
	}
	return b
}

func encodeEvent(e obs.Event) json.RawMessage {
	return bytes.TrimRight(obs.AppendEvent(nil, e), "\n")
}

// logEvent is the i-th event of a fixed sequence mixing spans, lifecycle
// and iteration events.
func logEvent(i int) obs.Event {
	switch i % 3 {
	case 0:
		return obs.Event{Kind: obs.KindSpan, Span: "level", SID: int64(i + 1), PSID: 1,
			Attrs: "n=" + strings.Repeat("x", i%5)}
	case 1:
		return obs.Event{Kind: kindJobRunning}
	}
	return obs.Event{Kind: obs.KindIter, Iter: i, FRelaxed: float64(i) / 7}
}

// TestEventLogMatchesParent: for fixed event sequences under, at and over
// the profile window and the replay depth, the one log serves the same
// profile document and the same SSE replay, byte for byte, as the
// parent's separate ring and history did; once the stream closes, late
// events change neither.
func TestEventLogMatchesParent(t *testing.T) {
	for _, window := range []int{-1, 1, 32, 256, 1500} {
		s, err := New(Config{Workers: 1, QueueDepth: 1, FlightRecorder: window})
		if err != nil {
			t.Fatal(err)
		}
		ring := max(window, 0)
		lengths := []int{0, 1, ring - 1, ring, ring + 1, histCap - 1, histCap, histCap + 1, 2*max(ring, histCap) + 3}
		for _, n := range lengths {
			if n < 0 {
				continue
			}
			j, _, err := s.buildJob(&JobRequest{Circuit: "KSA4", K: 3})
			if err != nil {
				t.Fatal(err)
			}
			j.cancel()
			ref := &parentLog{ring: make([]obs.Event, ring)}
			check := func(stage string) {
				t.Helper()
				if got, want := j.profileJSON(), ref.profileJSON(j); !bytes.Equal(got, want) {
					t.Fatalf("window %d, %d events, %s: profile differs from the parent's\n got %.300s\nwant %.300s",
						window, n, stage, got, want)
				}
				replay, _, detach := j.broker.subscribe()
				detach()
				if len(replay) != len(ref.hist) {
					t.Fatalf("window %d, %d events, %s: replay of %d events, parent %d",
						window, n, stage, len(replay), len(ref.hist))
				}
				for i := range replay {
					if got, want := encodeEvent(replay[i]), encodeEvent(ref.hist[i]); !bytes.Equal(got, want) {
						t.Fatalf("window %d, %d events, %s: replay event %d = %s, parent %s",
							window, n, stage, i, got, want)
					}
				}
			}
			for i := 0; i < n; i++ {
				e := logEvent(i)
				j.broker.publish(e)
				ref.publish(e)
			}
			check("open")
			j.broker.close()
			for i := n; i < n+5; i++ {
				j.broker.publish(logEvent(i))
			}
			check("after close")
		}
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFullLogPublishAllocFree: once a log is full, a publish overwrites in
// place, with or without a (slow) subscriber.
func TestFullLogPublishAllocFree(t *testing.T) {
	b := newBroker(histCap)
	for i := 0; i < histCap; i++ {
		b.publish(logEvent(i))
	}
	e := logEvent(1)
	if allocs := testing.AllocsPerRun(1000, func() { b.publish(e) }); allocs != 0 {
		t.Errorf("publish into a full log allocates %.1f", allocs)
	}
	_, _, detach := b.subscribe()
	defer detach()
	for i := 0; i < subBuf; i++ {
		b.publish(e)
	}
	if allocs := testing.AllocsPerRun(1000, func() { b.publish(e) }); allocs != 0 {
		t.Errorf("publish into a full log with a full subscriber allocates %.1f", allocs)
	}
}

// TestCancelQueuedJobAtOnce: a DELETE of a job waiting behind a busy
// worker finishes it cancelled at once — status, SSE stream and journal —
// and the worker that later dequeues it skips it without a cache lookup,
// a miss or a queue-wait sample.
func TestCancelQueuedJobAtOnce(t *testing.T) {
	dir := t.TempDir()
	s, base := newTestServer(t, Config{Workers: 1, QueueDepth: 4, DataDir: dir})
	_, running, _ := postJob(t, base, slowReq(4601))
	waitRunning(t, base, running.ID)
	code, queued, _ := postJob(t, base, fastReq(4602))
	if code != http.StatusAccepted || queued.Status != StatusQueued {
		t.Fatalf("submit behind a busy worker = %d %s, want 202 queued", code, queued.Status)
	}

	resp, err := http.Get(base + "/v1/jobs/" + queued.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lastFrame := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		last := ""
		for sc.Scan() {
			if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
				last = data
			}
		}
		lastFrame <- last
	}()

	start := time.Now()
	del(t, base, "/v1/jobs/"+queued.ID)
	for getStatus(t, base, queued.ID).Status != StatusCancelled {
		if time.Since(start) > time.Second {
			t.Fatalf("queued job still %s 1s after its DELETE", getStatus(t, base, queued.ID).Status)
		}
		time.Sleep(2 * time.Millisecond)
	}
	select {
	case last := <-lastFrame:
		var sb statusBody
		if err := json.Unmarshal([]byte(last), &sb); err != nil || sb.Status != StatusCancelled {
			t.Fatalf("SSE stream ended with %q, want a cancelled status frame", last)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the cancelled job's SSE stream did not close")
	}
	roots := profileSpans(t, getProfile(t, base, queued.ID))
	if len(roots) != 1 || !strings.Contains(roots[0].Event.Attrs, "status=cancelled") {
		t.Fatalf("profile of the cancelled job: %d roots", len(roots))
	}
	spans := map[string]bool{}
	for _, c := range roots[0].Children {
		spans[c.Event.Span] = true
	}
	if !spans["queue_wait"] || !spans["wal_accept"] {
		t.Errorf("cancelled job's spans = %v, want queue_wait and wal_accept", spans)
	}

	del(t, base, "/v1/jobs/"+running.ID)
	waitTerminal(t, base, running.ID)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	m := s.m
	sub, done, failed, cancelled := m.submitted.Value(), m.completed.Value(), m.failed.Value(), m.cancelled.Value()
	if sub != 2 || cancelled != 2 || sub != done+failed+cancelled {
		t.Errorf("ledger: %d submitted, %d completed + %d failed + %d cancelled; want 2 submitted, 2 cancelled",
			sub, done, failed, cancelled)
	}
	j, _ := s.store.get(queued.ID)
	j.mu.Lock()
	counted := j.lookupCounted
	j.mu.Unlock()
	if counted || m.cacheMisses.Value() != 1 || m.cacheHits.Value() != 0 {
		t.Errorf("cancelled queued job booked a lookup (%v); cache %d hits %d misses, want the running job's one miss",
			counted, m.cacheHits.Value(), m.cacheMisses.Value())
	}
	if n := m.queueWait.Count(); n != 1 {
		t.Errorf("%d queue-wait samples, want the running job's one", n)
	}

	jnl, recs, err := store.OpenJournal(s.durable.st.JournalPath())
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	terminal := 0
	for _, rec := range recs {
		if rec.ID == queued.ID && rec.Op != "accept" {
			terminal++
			if rec.Op != string(StatusCancelled) {
				t.Errorf("queued job's terminal record is %q, want cancelled", rec.Op)
			}
		}
	}
	if terminal != 1 {
		t.Errorf("queued job has %d terminal journal records, want 1", terminal)
	}
}

// countingBackend counts Put calls — the journal's circuit writes, since
// cache entries go through PutKeyed — and fails the first failPuts.
type countingBackend struct {
	store.Backend
	puts, failPuts atomic.Int64
}

func (c *countingBackend) Put(data []byte) (string, error) {
	if c.puts.Add(1) <= c.failPuts.Load() {
		return "", errors.New("injected blob write failure")
	}
	return c.Backend.Put(data)
}

// Circuit blob keys of the two Table I circuits: the sha256 of their JSON
// encoding, as journaled before blobs were written once per daemon.
const (
	ksa4BlobKey  = "fe22de0caa1e5ad83abf8fa4db3d1b22b341fe463fdba5325493d477d1c7010f"
	c3540BlobKey = "3ebe2cdc75b93f54086c5d335479341ed9e2a0f431c038c793d5093d4094b612"
)

// TestCircuitBlobWrittenOnce: cold accepts of one named circuit write its
// journal blob once per daemon, retrying after a failed write, and the
// accept records name the same blob key as before.
func TestCircuitBlobWrittenOnce(t *testing.T) {
	s, err := New(Config{Workers: 1, QueueDepth: 8, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	blobs := &countingBackend{Backend: s.durable.blobs}
	blobs.failPuts.Store(1)
	s.durable.blobs = blobs // before the listener exists: no request can race it
	hs := httptest.NewServer(s)
	t.Cleanup(func() {
		hs.Close()
		_ = s.Shutdown(context.Background())
	})
	base := hs.URL

	ksa4 := func(seed int64) JobRequest {
		return JobRequest{Circuit: "KSA4", K: 3, Options: &JobOptions{Seed: seed, MaxIters: 50}}
	}
	if code, _, _ := postJob(t, base, ksa4(1)); code != http.StatusInternalServerError {
		t.Fatalf("accept with a failing blob write = %d, want 500", code)
	}
	var ids []string
	for _, req := range []JobRequest{ksa4(2), ksa4(3),
		{Circuit: "C3540", K: 5, Options: &JobOptions{Seed: 1, MaxIters: 5}},
		{Circuit: "C3540", K: 5, Options: &JobOptions{Seed: 2, MaxIters: 5}}} {
		code, sb, _ := postJob(t, base, req)
		if code != http.StatusAccepted {
			t.Fatalf("cold submit of %s = %d, want 202", req.Circuit, code)
		}
		ids = append(ids, sb.ID)
	}
	for _, id := range ids {
		waitTerminal(t, base, id)
	}
	// One failed write, then one write per circuit.
	if n := blobs.puts.Load(); n != 3 {
		t.Errorf("%d circuit blob writes for 5 accepts of 2 circuits (1 failing), want 3", n)
	}

	jnl, recs, err := store.OpenJournal(s.durable.st.JournalPath())
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	want := map[string]string{"KSA4": ksa4BlobKey, "C3540": c3540BlobKey}
	accepts := 0
	for _, rec := range recs {
		if rec.Op != "accept" {
			continue
		}
		accepts++
		var jj journaledJob
		if err := json.Unmarshal(rec.Data, &jj); err != nil {
			t.Fatal(err)
		}
		if jj.CircuitBlob != want[jj.CircuitName] {
			t.Errorf("%s accept record names blob %s, want %s", jj.CircuitName, jj.CircuitBlob, want[jj.CircuitName])
		}
		if _, err := s.durable.blobs.Get(jj.CircuitBlob); err != nil {
			t.Errorf("%s blob unreadable: %v", jj.CircuitName, err)
		}
	}
	if accepts != len(ids) {
		t.Errorf("%d accept records, want %d", accepts, len(ids))
	}
}

// BenchmarkCacheHit prices the daemon's cache-hit path end to end in
// process: each op POSTs an already-cached KSA4 job through the handler
// (decode, circuit memo, cache key, registry, event log, response).
func BenchmarkCacheHit(b *testing.B) {
	s, err := New(Config{Workers: 1, QueueDepth: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = s.Shutdown(context.Background()) }()
	body := []byte(`{"circuit":"KSA4","k":4,"options":{"max_iters":300}}`)
	post := func() *httptest.ResponseRecorder {
		req, err := http.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		return rec
	}
	rec := post()
	var cold statusBody
	if err := json.Unmarshal(rec.Body.Bytes(), &cold); err != nil || rec.Code != http.StatusAccepted {
		b.Fatalf("cold submit = %d %s", rec.Code, rec.Body)
	}
	j, _ := s.store.get(cold.ID)
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(time.Millisecond) {
		if st, _, _, _, _, _, _, _ := j.snapshot(); st == StatusDone {
			break
		} else if st.terminal() || time.Now().After(deadline) {
			b.Fatalf("cold job ended %s", st)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := post(); rec.Code != http.StatusOK {
			b.Fatalf("hit = %d %s", rec.Code, rec.Body)
		}
	}
}
