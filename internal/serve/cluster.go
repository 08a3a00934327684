package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"gpp/internal/cluster"
	"gpp/internal/netlist"
	"gpp/internal/obs"
)

// Cluster glue: the server side of the node-to-node protocol plus the
// loops that make one daemon a cluster member. internal/cluster owns
// membership, the hash ring, breakers, and the client calls; this file
// owns everything that touches jobs, the queue, the cache, and the WAL:
//
//   - Submit routing (maybeForward): a submission whose cache key hashes
//     to another node is proxied there verbatim, so the solve and its
//     cached result land on the one node every identical request routes
//     to. Transport errors and owner-side 5xx degrade to solving locally.
//
//   - Peer read-through (peerFetch): a worker that misses the local
//     memory+disk cache consults the key's owner and replicas before
//     solving, and persists a fetched blob locally so the hit is durable.
//
//   - Work stealing. handleClusterSteal pops a queued job, journals a
//     handoff record (durable before the grant leaves the process), and
//     hands the full job — circuit bytes inline — to the thief.
//     stealLoop is the thief side: when idle it polls busy peers, solves
//     a granted job privately (never entering its own job registry), and
//     posts the result back (handleClusterComplete). reclaimLoop
//     re-enqueues stolen jobs whose lease expired — a dead thief delays
//     a job by one lease, never loses it. claimFinish arbitrates the
//     thief-returns-vs-reclaim race so exactly one completion is
//     recorded under the original job id.
//
// Crash accounting, the invariant the crash-matrix tests pin down: a
// handoff record in the journal does NOT terminate the accept record, so
// an owner killed mid-handoff replays the job at boot; a thief killed
// mid-solve triggers the lease reclaim; a thief completing into a
// restarted or reclaimed owner hits claimFinish and is dropped. In every
// interleaving the job reaches exactly one terminal journal record, and
// solver determinism makes any shadow re-execution byte-identical.

// stolenJob tracks one job handed to a thief, until the thief posts the
// result back or the lease expires.
type stolenJob struct {
	j        *job
	thief    string
	deadline time.Time
}

// startCluster wires the optional cluster membership into a freshly built
// server: the heartbeat loop, the steal loop, and the reclaim loop.
func (s *Server) startCluster() error {
	if s.cfg.Cluster == nil {
		return nil
	}
	c, err := cluster.New(*s.cfg.Cluster)
	if err != nil {
		return err
	}
	s.cluster = c
	s.stolen = make(map[string]*stolenJob)
	s.loopStop = make(chan struct{})
	c.Start()
	s.loops.Add(2)
	go s.stealLoop()
	go s.reclaimLoop()
	return nil
}

// --- submit routing ---

// maybeForward proxies a freshly built (but not yet admitted) job to the
// node owning its cache key. It reports whether the request was fully
// handled (response written). Degrades to local handling — returning
// false — when this node is the owner, the owner looks dead, the
// transport fails, or the owner answers 5xx/503; a from_job submission
// always runs locally (the prior job it references is local), as does a
// request already forwarded once (loop guard).
func (s *Server) maybeForward(w http.ResponseWriter, r *http.Request, req *JobRequest, j *job, raw []byte) bool {
	if s.cluster == nil || req.FromJob != "" || r.Header.Get(cluster.ForwardedHeader) != "" {
		return false
	}
	owner, self := s.cluster.Owner(j.key)
	if self || !s.cluster.Alive(owner) {
		return false
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cluster.Config().PeerTimeout)
	defer cancel()
	resp, err := s.cluster.Forward(ctx, owner, raw)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 500 {
		// Owner draining or broken; this node can still solve.
		return false
	}
	j.cancel()
	mForwarded.Inc()
	w.Header().Set("Content-Type", "application/json")
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.Header().Set(cluster.RoutedHeader, owner)
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
	return true
}

// --- peer cache read-through ---

// peerFetch is the third cache tier: after a local memory+disk miss, ask
// the key's owner and replicas. A fetched blob is persisted locally
// (memory LRU + blob store) so later lookups — including after a restart
// — hit without touching the network again.
func (s *Server) peerFetch(j *job) (*cacheEntry, bool) {
	if s.cluster == nil {
		return nil, false
	}
	sp := j.span.Child("peer_fetch")
	defer sp.End()
	ctx, cancel := context.WithTimeout(j.ctx, s.cluster.Config().PeerTimeout)
	defer cancel()
	raw, from, ok := s.cluster.FetchBlob(ctx, j.key)
	if !ok {
		sp.Attr("outcome", "miss")
		return nil, false
	}
	var cb cacheBlob
	if err := json.Unmarshal(raw, &cb); err != nil || len(cb.Body) == 0 {
		sp.Attr("outcome", "damaged")
		return nil, false
	}
	sp.Attr("outcome", "hit")
	sp.Attr("from", from)
	ent := &cacheEntry{key: j.key, body: cb.Body, labels: cb.Labels}
	s.cache.put(ent)
	if s.durable != nil {
		s.durable.persistEntry(ent)
	}
	mPeerCacheHits.Inc()
	return ent, true
}

// --- node-to-node endpoints ---

// handleClusterPing answers peer heartbeats with this node's load, which
// feeds the peers' steal targeting.
func (s *Server) handleClusterPing(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		writeError(w, http.StatusNotFound, "not a cluster member")
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Node       string `json:"node"`
		Draining   bool   `json:"draining"`
		QueueDepth int    `json:"queue_depth"`
		Inflight   int64  `json:"inflight"`
	}{s.cluster.Self(), s.Draining(), len(s.queue), s.stats.inflight.Load()})
}

// handleClusterBlob serves one result-cache entry (the cacheBlob
// document) to a peer read-through. Strictly local: memory+disk only,
// never recursing into this node's own peer fetch.
func (s *Server) handleClusterBlob(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		writeError(w, http.StatusNotFound, "not a cluster member")
		return
	}
	key := r.PathValue("key")
	ent, _, ok := s.cacheGet(key)
	if !ok {
		writeError(w, http.StatusNotFound, "no cached entry for %s", key)
		return
	}
	writeJSON(w, http.StatusOK, &cacheBlob{Labels: ent.labels, Body: ent.body})
}

// stealGrant is the handoff document: everything a thief needs to run the
// job — circuit bytes inline (the thief shares no storage with the
// owner), the original request (normalization is idempotent, so the thief
// derives the identical cache key), and the job's remaining deadline.
type stealGrant struct {
	ID          string          `json:"id"`
	CircuitName string          `json:"circuit_name"`
	Circuit     json.RawMessage `json:"circuit"`
	RemainingMS int64           `json:"remaining_ms"`
	Request     JobRequest      `json:"request"`
}

// completeDoc is a thief's result post: terminal status plus, when done,
// the exact result bytes the owner caches and serves.
type completeDoc struct {
	ID     string          `json:"id"`
	Status Status          `json:"status"`
	Error  string          `json:"error,omitempty"`
	Labels []int           `json:"labels,omitempty"`
	Body   json.RawMessage `json:"body,omitempty"`
}

// handleClusterSteal grants one queued job to an idle peer, or 204 when
// there is nothing to give. The WAL handoff record is appended before the
// grant is written: once the grant can have left this process, a crash
// replays the accept record (the handoff does not terminate it) and the
// job re-runs — the thief's eventual complete deduplicates via
// claimFinish.
func (s *Server) handleClusterSteal(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		writeError(w, http.StatusNotFound, "not a cluster member")
		return
	}
	var req struct {
		Thief string `json:"thief"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 4096)).Decode(&req); err != nil || req.Thief == "" {
		writeError(w, http.StatusBadRequest, "bad steal request")
		return
	}
	// Bounded pop loop: jobs that expired while queued are finished
	// locally and skipped, not handed out.
	for tries := 0; tries < s.cfg.QueueDepth; tries++ {
		var j *job
		var open bool
		select {
		case j, open = <-s.queue:
			if !open {
				j = nil // draining: the queue is closed
			}
		default:
		}
		if j == nil {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		mQueueDepth.Set(float64(len(s.queue)))
		j.endQueueWait(s.stats)
		if j.ctx.Err() != nil {
			s.finishWithError(j, j.ctx.Err())
			continue
		}
		grant, err := s.grantSteal(j, req.Thief)
		if err != nil {
			// Handoff could not be made durable: keep the job local.
			s.requeue(j)
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(grant)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// grantSteal journals the handoff and builds the grant document for a job
// already popped from the queue.
func (s *Server) grantSteal(j *job, thief string) ([]byte, error) {
	circJSON, err := json.Marshal(j.ref.circuit)
	if err != nil {
		return nil, fmt.Errorf("serve: marshal stolen circuit: %w", err)
	}
	g := stealGrant{ID: j.id, CircuitName: j.circuitName, Circuit: circJSON}
	if j.req != nil {
		g.Request = *j.req
	} else {
		g.Request = JobRequest{K: j.k}
	}
	if dl, ok := j.ctx.Deadline(); ok {
		g.RemainingMS = time.Until(dl).Milliseconds()
	}
	grant, err := json.Marshal(&g)
	if err != nil {
		return nil, fmt.Errorf("serve: marshal steal grant: %w", err)
	}
	if s.durable != nil {
		if err := s.durable.handoffJob(j.id, thief); err != nil {
			return nil, err
		}
	}
	// The job resolved as a miss the moment it left for a thief (even a
	// thief-side cache hit missed here); countMiss keeps a later reclaim
	// from double-booking it.
	if j.countMiss() {
		mCacheMisses.Inc()
		s.stats.cacheMiss.Add(1)
	}
	sp := j.span.Child("steal_handoff")
	sp.Attr("thief", thief)
	sp.End()
	j.publish(obs.Event{Kind: kindJobStolen})
	j.setRunning()
	s.stolenMu.Lock()
	s.stolen[j.id] = &stolenJob{j: j, thief: thief,
		deadline: time.Now().Add(s.cluster.Config().StealLease)}
	s.stolenMu.Unlock()
	mStealGrants.Inc()
	return grant, nil
}

// requeue puts a job back on the queue after a failed handoff; if the
// daemon is draining or the queue refilled meanwhile, the job finishes
// cancelled instead of blocking the steal handler.
func (s *Server) requeue(j *job) {
	j.beginQueueWait()
	s.qmu.Lock()
	if !s.draining {
		select {
		case s.queue <- j:
			s.qmu.Unlock()
			mQueueDepth.Set(float64(len(s.queue)))
			return
		default:
		}
	}
	s.qmu.Unlock()
	j.endQueueWait(s.stats)
	s.finishWithError(j, context.Canceled)
}

// handleClusterComplete accepts a thief's result for a job this node
// owns. claimFinish arbitrates against a concurrent reclaim re-solve (or
// a second, duplicate complete): the loser is acknowledged and dropped,
// so the job finishes exactly once.
func (s *Server) handleClusterComplete(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		writeError(w, http.StatusNotFound, "not a cluster member")
		return
	}
	var doc completeDoc
	if err := json.NewDecoder(io.LimitReader(r.Body, 64<<20)).Decode(&doc); err != nil {
		writeError(w, http.StatusBadRequest, "bad complete body: %v", err)
		return
	}
	j, ok := s.store.get(doc.ID)
	if !ok {
		writeError(w, http.StatusNotFound, "job %q not found", doc.ID)
		return
	}
	s.stolenMu.Lock()
	if s.stolen != nil {
		delete(s.stolen, doc.ID)
	}
	s.stolenMu.Unlock()
	switch doc.Status {
	case StatusDone:
		if len(doc.Body) == 0 {
			writeError(w, http.StatusBadRequest, "done without a result body")
			return
		}
		// Cache the result regardless of who wins the finish race; the
		// bytes are identical either way.
		ent := &cacheEntry{key: j.key, body: doc.Body, labels: doc.Labels}
		s.cache.put(ent)
		if s.durable != nil {
			s.durable.persistEntry(ent)
		}
		if !j.claimFinish() {
			writeJSON(w, http.StatusOK, map[string]string{"status": "ignored"})
			return
		}
		mCompleted.Inc()
		s.stats.completed.Add(1)
		sp := j.span.Child("steal_complete")
		sp.End()
		j.finishOK(doc.Body, doc.Labels, false)
		s.journalFinish(j, StatusDone)
		mStealCompletesIn.Inc()
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	case StatusFailed:
		if doc.Error == "" {
			doc.Error = "stolen job failed on thief"
		}
		if !s.finishWithError(j, errors.New(doc.Error)) {
			writeJSON(w, http.StatusOK, map[string]string{"status": "ignored"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	default:
		writeError(w, http.StatusBadRequest, "bad status %q", doc.Status)
	}
}

// --- thief side ---

// stealLoop polls busy peers whenever this node is idle and runs one
// stolen job at a time, synchronously — the natural throttle: a node
// never holds more than one stolen job, and Shutdown's loop join waits
// for it like any worker.
func (s *Server) stealLoop() {
	defer s.loops.Done()
	cfg := s.cluster.Config()
	t := time.NewTicker(cfg.StealEvery)
	defer t.Stop()
	for {
		select {
		case <-s.loopStop:
			return
		case <-t.C:
		}
		if s.Draining() || !s.idle() {
			continue
		}
		for _, peer := range s.cluster.StealTargets() {
			ctx, cancel := context.WithTimeout(s.baseCtx, cfg.PeerTimeout)
			grant, ok := s.cluster.Steal(ctx, peer)
			cancel()
			if !ok {
				continue
			}
			mSteals.Inc()
			s.runStolen(peer, grant)
			break
		}
	}
}

// idle reports whether this node has spare capacity worth filling with a
// peer's work.
func (s *Server) idle() bool {
	return len(s.queue) == 0 && s.stats.inflight.Load() < int64(s.cfg.Workers)
}

// runStolen executes one steal grant: rebuild the job privately (it never
// enters this node's registry or journal — the owner owns its identity),
// answer from the local cache when possible, otherwise solve, cache the
// result locally, and post it back under the original id.
func (s *Server) runStolen(owner string, raw []byte) {
	var g stealGrant
	if err := json.Unmarshal(raw, &g); err != nil {
		fmt.Fprintf(os.Stderr, "gpp-serve: bad steal grant from %s: %v\n", owner, err)
		return
	}
	var c netlist.Circuit
	if err := json.Unmarshal(g.Circuit, &c); err != nil {
		s.completeStolen(owner, g.ID, nil, fmt.Errorf("bad circuit in grant: %w", err))
		return
	}
	if err := c.Validate(); err != nil {
		s.completeStolen(owner, g.ID, nil, fmt.Errorf("bad circuit in grant: %w", err))
		return
	}
	req := g.Request
	req.Circuit, req.DEF, req.FromJob = "", "", ""
	if g.RemainingMS > 0 {
		req.TimeoutMS = g.RemainingMS
	}
	j, _, err := s.makeJob(newCircuitRef(&c), g.CircuitName, &req)
	if err != nil {
		s.completeStolen(owner, g.ID, nil, err)
		return
	}
	defer j.cancel()
	j.span.Attr("stolen_from", owner)
	if g.RemainingMS <= 0 {
		s.completeStolen(owner, g.ID, nil, context.DeadlineExceeded)
		return
	}
	if ent, tier, ok := s.cacheGet(j.key); ok {
		j.spanCacheLookup(tier)
		j.finishOK(ent.body, ent.labels, true)
		s.completeStolen(owner, g.ID, ent, nil)
		return
	}
	j.spanCacheLookup("miss")
	j.setRunning()
	solveSpan := j.span.Child("solve")
	body, labels, err := s.solve(j, solveSpan)
	solveSpan.End()
	if err != nil {
		j.finishErr(StatusFailed, err)
		s.completeStolen(owner, g.ID, nil, err)
		return
	}
	ent := &cacheEntry{key: j.key, body: body, labels: labels}
	s.cache.put(ent)
	if s.durable != nil {
		s.durable.persistEntry(ent)
	}
	j.finishOK(body, labels, false)
	s.completeStolen(owner, g.ID, ent, nil)
}

// completeStolen posts a stolen job's outcome back to its owner, with a
// few spaced retries. A cancellation (thief shutting down) or deadline is
// NOT posted: failing the job terminally for a thief-side interruption
// would be wrong — silence lets the owner's lease reclaim re-run it.
// Posting done can also fail outright (owner crashed); same answer: the
// owner replays the job at boot and re-solves byte-identically.
func (s *Server) completeStolen(owner, id string, ent *cacheEntry, solveErr error) {
	doc := completeDoc{ID: id, Status: StatusDone}
	if solveErr != nil {
		if errors.Is(solveErr, context.Canceled) || errors.Is(solveErr, context.DeadlineExceeded) {
			return
		}
		doc.Status = StatusFailed
		doc.Error = solveErr.Error()
	} else {
		doc.Labels = ent.labels
		doc.Body = ent.body
	}
	raw, err := json.Marshal(&doc)
	if err != nil {
		return
	}
	cfg := s.cluster.Config()
	for attempt := 0; attempt < 3; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), cfg.PeerTimeout)
		err := s.cluster.Complete(ctx, owner, raw)
		cancel()
		if err == nil {
			mStealCompletesOut.Inc()
			return
		}
		select {
		case <-s.loopStop:
			return
		case <-time.After(cfg.StealEvery):
		}
	}
}

// --- owner-side reclaim ---

// reclaimLoop re-enqueues stolen jobs whose lease expired without a
// complete — the thief died, or its post is lost. Re-running is safe:
// claimFinish drops whichever completion comes second, and determinism
// makes both byte-identical anyway.
func (s *Server) reclaimLoop() {
	defer s.loops.Done()
	cfg := s.cluster.Config()
	every := cfg.StealLease / 4
	if every > cfg.StealEvery {
		every = cfg.StealEvery
	}
	if every < 10*time.Millisecond {
		every = 10 * time.Millisecond
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.loopStop:
			return
		case <-t.C:
		}
		s.reclaimExpired(every)
	}
}

func (s *Server) reclaimExpired(retryAfter time.Duration) {
	now := time.Now()
	var expired []*stolenJob
	s.stolenMu.Lock()
	for id, sj := range s.stolen {
		if now.After(sj.deadline) {
			delete(s.stolen, id)
			expired = append(expired, sj)
		}
	}
	s.stolenMu.Unlock()
	for _, sj := range expired {
		j := sj.j
		j.mu.Lock()
		gone := j.finishing || j.status.terminal()
		j.mu.Unlock()
		if gone {
			continue
		}
		mReclaims.Inc()
		sp := j.span.Child("steal_reclaim")
		sp.Attr("thief", sj.thief)
		sp.End()
		j.publish(obs.Event{Kind: kindJobReclaimed})
		j.beginQueueWait()
		s.qmu.Lock()
		if !s.draining {
			select {
			case s.queue <- j:
				s.qmu.Unlock()
				mQueueDepth.Set(float64(len(s.queue)))
				continue
			default:
			}
		}
		draining := s.draining
		s.qmu.Unlock()
		j.endQueueWait(s.stats)
		if draining {
			s.finishWithError(j, context.Canceled)
			continue
		}
		// Queue full right now: push the lease out and retry shortly.
		s.stolenMu.Lock()
		sj.deadline = time.Now().Add(retryAfter)
		s.stolen[j.id] = sj
		s.stolenMu.Unlock()
	}
}

// waitStolen blocks until every outstanding stolen job has been resolved
// (thief posted back, or reclaim finished it) or ctx expires. Part of
// drain: a stolen job is an accepted job, and Shutdown's contract says
// accepted jobs keep their responses.
func (s *Server) waitStolen(ctx context.Context) {
	if s.cluster == nil {
		return
	}
	for {
		s.stolenMu.Lock()
		n := len(s.stolen)
		s.stolenMu.Unlock()
		if n == 0 {
			return
		}
		// While draining the reclaim loop is gone; expired leases are
		// resolved here so the wait cannot hang on a dead thief.
		s.reclaimExpired(10 * time.Millisecond)
		select {
		case <-ctx.Done():
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
}

var (
	mForwarded = obs.Default().Counter("gpp_cluster_jobs_forwarded_total",
		"submissions proxied to the node owning their cache key")
	mPeerCacheHits = obs.Default().Counter("gpp_cluster_peer_cache_hits_total",
		"jobs answered from a peer's result cache via read-through")
	mStealGrants = obs.Default().Counter("gpp_cluster_steal_grants_total",
		"queued jobs handed to an idle peer")
	mSteals = obs.Default().Counter("gpp_cluster_steals_total",
		"jobs this node stole from busy peers")
	mStealCompletesOut = obs.Default().Counter("gpp_cluster_steal_completes_sent_total",
		"stolen-job results posted back to owners")
	mStealCompletesIn = obs.Default().Counter("gpp_cluster_steal_completes_applied_total",
		"thief results applied to jobs this node owns")
	mReclaims = obs.Default().Counter("gpp_cluster_steal_reclaims_total",
		"stolen jobs re-enqueued after their lease expired")
)
