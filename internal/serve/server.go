package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"gpp/internal/cluster"
	"gpp/internal/multilevel"
	"gpp/internal/obs"
	"gpp/internal/partition"
	"gpp/internal/recycle"
	"gpp/internal/terms"
)

// Server is the partition daemon: an http.Handler plus the worker pool
// behind it. Create one with New, mount it (or let Run listen), and stop
// it with Shutdown.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	store   *jobStore
	cache   *lru
	memo    circuitMemo
	durable *durable // nil unless Config.DataDir is set
	queue   chan *job
	stats   *serverStats

	// sweeps is the batch-sweep registry; sweepWG tracks the feeder and
	// finalizer goroutines so Shutdown drains them with the workers.
	sweeps  *sweepStore
	sweepWG sync.WaitGroup

	// qmu guards the draining flag and queue sends against the close in
	// Shutdown; a send never races the close because both hold qmu.
	qmu      sync.Mutex
	draining bool

	workers  sync.WaitGroup
	baseCtx  context.Context
	baseStop context.CancelFunc

	// Cluster membership (nil in single-node mode) and the jobs currently
	// out on loan to thieves, keyed by job id.
	cluster  *cluster.Cluster
	stolenMu sync.Mutex
	stolen   map[string]*stolenJob
	loopStop chan struct{}  // closed at drain; stops steal/reclaim loops
	loops    sync.WaitGroup // steal + reclaim loop goroutines
}

// New builds a Server and starts its worker pool. With Config.DataDir
// set it also opens the durable store, replays the job journal, and
// re-enqueues every accepted-but-unfinished job under its original id
// before returning. The caller owns shutdown: every New must be paired
// with Shutdown (tests included), or the workers leak.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		store:  newJobStore(cfg.MaxJobs),
		cache:  newLRU(cfg.CacheEntries),
		memo:   newCircuitMemo(),
		queue:  make(chan *job, cfg.QueueDepth),
		stats:  newServerStats(),
		sweeps: newSweepStore(),
	}
	var pending []*journaledJob
	if cfg.DataDir != "" {
		var err error
		s.durable, pending, err = openDurable(cfg)
		if err != nil {
			return nil, fmt.Errorf("serve: open data dir %s: %w", cfg.DataDir, err)
		}
	}
	s.baseCtx, s.baseStop = context.WithCancel(context.Background())
	s.routes()
	// Cluster state must exist before the first worker runs: recovery can
	// hand a replayed job to a worker immediately, and its peer-cache
	// read-through reads s.cluster.
	if err := s.startCluster(); err != nil {
		return nil, err
	}
	s.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go func() {
			defer s.workers.Done()
			for j := range s.queue {
				mQueueDepth.Set(float64(len(s.queue)))
				s.runJob(j)
			}
		}()
	}
	// Recovery happens with the workers already draining the queue, so a
	// replay larger than the queue buffer cannot deadlock the blocking
	// sends; Shutdown cannot race New's sends because the caller does not
	// hold the Server yet.
	for _, jj := range pending {
		s.recoverJob(jj)
	}
	if s.durable != nil && cfg.StoreMaxBytes > 0 {
		if _, err := s.durable.st.Blobs.GC(cfg.StoreMaxBytes, 0); err != nil {
			return nil, fmt.Errorf("serve: boot GC: %w", err)
		}
	}
	return s, nil
}

// recoverJob rebuilds one journaled job and re-enqueues it under its
// original id. Unrecoverable jobs (circuit blob lost, request no longer
// valid) are marked terminal in the journal so they do not replay again.
func (s *Server) recoverJob(jj *journaledJob) {
	c, err := s.durable.loadCircuit(jj)
	if err == nil {
		var j *job
		j, _, err = s.makeJob(newCircuitRef(c), jj.CircuitName, &JobRequest{
			K: jj.K, Restarts: jj.Restarts, BalancedSlack: jj.Balanced,
			Multilevel: jj.Multilevel,
			Plan:       jj.Plan, TimeoutMS: jj.TimeoutMS, Options: jj.Options,
		})
		if err == nil {
			j.id = jj.ID
			mSubmitted.Inc()
			mJobsRecovered.Inc()
			s.stats.submitted.Add(1)
			s.store.add(j)
			j.publish(obs.Event{Kind: kindJobQueued})
			j.beginQueueWait()
			s.queue <- j
			mQueueDepth.Set(float64(len(s.queue)))
			return
		}
	}
	fmt.Fprintf(os.Stderr, "gpp-serve: journaled job %s unrecoverable, dropping: %v\n", jj.ID, err)
	s.durable.finishJob(jj.ID, StatusFailed, nil)
}

// cacheGet is the two-level cache lookup: the in-memory LRU first, then
// (when durable) the blob store, promoting disk hits into the LRU. tier
// names where the hit landed ("memory" or "disk") for the lookup span.
func (s *Server) cacheGet(key string) (ent *cacheEntry, tier string, ok bool) {
	if ent, ok := s.cache.get(key); ok {
		return ent, "memory", true
	}
	if s.durable != nil {
		if ent, ok := s.durable.loadEntry(key); ok {
			s.cache.put(ent)
			return ent, "disk", true
		}
	}
	return nil, "", false
}

// ServeHTTP dispatches to the daemon's mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	return s.draining
}

// Shutdown drains the daemon: admissions stop (submissions get 503), the
// queue is closed, and every accepted job — queued or in flight — runs to
// completion with its response intact. If ctx expires first, in-flight
// solves are cancelled (they stop within one gradient iteration, are
// recorded as cancelled jobs, and the remaining queued jobs fail fast the
// same way) and ctx's error is returned. Shutdown is idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.qmu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
		if s.loopStop != nil {
			close(s.loopStop)
		}
	}
	s.qmu.Unlock()

	// The loop join covers a stolen job this node is solving for a peer
	// (stealLoop runs it synchronously), so drain extends to borrowed
	// work; waitStolen below covers the mirror case of jobs on loan.
	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		s.loops.Wait()
		// Sweep feeders stop at the next enqueue (503 while draining) and
		// finalizers return once their last cell is terminal, which the
		// worker drain above guarantees.
		s.sweepWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.baseStop() // cancel every job context; drains promptly
		<-done
		err = ctx.Err()
	}
	s.waitStolen(ctx)
	if s.cluster != nil {
		s.cluster.Close()
	}
	s.closeDurable()
	return err
}

// closeDurable releases the journal handle once, after the last worker
// (and with it the last journal append) is done. Shutdown is idempotent,
// so the close must be too; durable.close tolerates a double close.
func (s *Server) closeDurable() {
	if s.durable != nil {
		s.durable.close()
	}
}

// Run listens on addr and serves until ctx is cancelled (the daemon wires
// SIGTERM/SIGINT into ctx), then drains with the given grace period and
// finally closes the listener. It returns the bound address via the
// started callback (nil is fine) so callers binding ":0" can discover it.
func (s *Server) Run(ctx context.Context, addr string, grace time.Duration, started func(addr string)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	if started != nil {
		started(ln.Addr().String())
	}
	hs := &http.Server{Handler: s}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	dctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	drainErr := s.Shutdown(dctx)
	// In-flight jobs are done (or cancelled); now stop the HTTP side,
	// giving open SSE streams a moment to flush their terminal frames.
	hctx, hcancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer hcancel()
	_ = hs.Shutdown(hctx)
	return drainErr
}

// enqueue admits a job under the backpressure contract. It returns
// http.StatusAccepted on success, 503 while draining, or 429 when full.
func (s *Server) enqueue(j *job) int {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if s.draining {
		return http.StatusServiceUnavailable
	}
	select {
	case s.queue <- j:
		mQueueDepth.Set(float64(len(s.queue)))
		return http.StatusAccepted
	default:
		return http.StatusTooManyRequests
	}
}

// retryAfterSeconds estimates how long a rejected client should wait: the
// time to drain this node's live backlog — queued plus in-flight jobs, so
// the hint shrinks as the queue empties — at the recent mean job time,
// bounded to [1, 60] seconds. Scaling with actual depth matters once
// nodes are clustered: clients spraying a busy node back off in
// proportion to its load instead of stampeding back in lockstep. Uses the
// per-server stats, not the process-global histogram, which other servers
// in the same process (tests run dozens) would pollute.
func (s *Server) retryAfterSeconds() int {
	backlog := len(s.queue) + int(s.stats.inflight.Load())
	if backlog < 1 {
		backlog = 1
	}
	n := s.stats.jobSeconds.Count()
	if n == 0 {
		return 1
	}
	mean := s.stats.jobSeconds.Sum() / float64(n)
	wait := mean * float64(backlog) / float64(s.cfg.Workers)
	if wait < 1 {
		return 1
	}
	if wait > 60 {
		return 60
	}
	return int(wait + 0.5)
}

// runJob executes one queued job end to end. Every terminal transition
// goes through claimFinish (directly or via finishWithError): a job
// reclaimed from a dead thief can race the thief's late complete, and
// exactly one of the two may finish it.
func (s *Server) runJob(j *job) {
	defer j.cancel()
	j.endQueueWait(s.stats)
	// A second identical request may have been cached while this one
	// waited in the queue; serve it from there instead of re-solving.
	if ent, tier, ok := s.cacheGet(j.key); ok {
		if !j.claimFinish() {
			return
		}
		j.spanCacheLookup(tier)
		mCacheHits.Inc()
		mCompleted.Inc()
		s.stats.cacheHits.Add(1)
		s.stats.completed.Add(1)
		j.setRunning()
		j.finishOK(ent.body, ent.labels, true)
		s.journalFinish(j, StatusDone)
		return
	}
	// Third cache tier: a peer may have solved this key already. Runs
	// before the miss is counted, so a peer hit keeps the invariant that
	// every submission resolves as exactly one hit or one miss.
	if ent, ok := s.peerFetch(j); ok {
		if !j.claimFinish() {
			return
		}
		j.spanCacheLookup("peer")
		mCacheHits.Inc()
		mCompleted.Inc()
		s.stats.cacheHits.Add(1)
		s.stats.completed.Add(1)
		j.setRunning()
		j.finishOK(ent.body, ent.labels, true)
		s.journalFinish(j, StatusDone)
		return
	}
	j.spanCacheLookup("miss")
	// This is the single miss-counting point: every submission resolves as
	// exactly one hit (here or synchronously at submit) or one miss, so
	// hits + misses never exceeds submissions. countMiss dedupes the
	// re-run of a job that already counted its miss when it was stolen.
	if j.countMiss() {
		mCacheMisses.Inc()
		s.stats.cacheMiss.Add(1)
	}
	if err := j.ctx.Err(); err != nil {
		s.finishWithError(j, err)
		return
	}
	j.setRunning()
	mInflight.Add(1)
	s.stats.inflight.Add(1)
	start := time.Now()
	solveSpan := j.span.Child("solve")
	body, labels, err := s.solve(j, solveSpan)
	solveSpan.End()
	mInflight.Add(-1)
	s.stats.inflight.Add(-1)
	if err != nil {
		s.finishWithError(j, err)
		return
	}
	elapsed := time.Since(start)
	mJobSeconds.Observe(elapsed.Seconds())
	s.stats.jobSeconds.Observe(elapsed.Seconds())
	if s.cfg.SLOSolve > 0 {
		if elapsed <= s.cfg.SLOSolve {
			mSLOWithin.Inc()
			s.stats.sloWithin.Add(1)
		} else {
			mSLOBreached.Inc()
			s.stats.sloBreach.Add(1)
		}
	}
	persist := j.span.Child("persist")
	ent := &cacheEntry{key: j.key, body: body, labels: labels}
	s.cache.put(ent)
	if s.durable != nil {
		s.durable.persistEntry(ent)
	}
	persist.End()
	// The cache write above stands even if a thief's complete won the
	// finish race while this re-solve ran — the bytes are identical.
	if !j.claimFinish() {
		return
	}
	mCompleted.Inc()
	s.stats.completed.Add(1)
	j.finishOK(body, labels, false)
	s.journalFinish(j, StatusDone)
}

// finishWithError resolves a job as cancelled or failed. It reports
// whether this caller won the finish claim; a false return means someone
// else (a thief's complete, a concurrent re-solve) already finished the
// job and nothing was recorded.
func (s *Server) finishWithError(j *job, err error) bool {
	if !j.claimFinish() {
		return false
	}
	if errors.Is(err, context.Canceled) {
		mCancelled.Inc()
		s.stats.cancelled.Add(1)
		j.finishErr(StatusCancelled, err)
		s.journalFinish(j, StatusCancelled)
		return true
	}
	mFailed.Inc()
	s.stats.failed.Add(1)
	j.finishErr(StatusFailed, err)
	s.journalFinish(j, StatusFailed)
	return true
}

// journalFinish records a job's terminal state when running durable,
// attaching the flight-recorder profile so crashed-and-replayed history
// keeps a forensic trail of how each job actually ran.
func (s *Server) journalFinish(j *job, st Status) {
	if s.durable != nil {
		s.durable.finishJob(j.id, st, j.profileJSON())
	}
}

// solve runs the job's configured solver flavor and marshals the result
// envelope. The progress tracer forwards a throttled event stream into
// the job's broker and flight recorder; span is the job's "solve" span
// the solver layers hang their descent/vcycle spans under. The solver's
// determinism guarantees make the envelope a pure function of the cache
// key — the tracer and span never influence the result.
func (s *Server) solve(j *job, span *obs.Span) (body []byte, labels []int, err error) {
	// The term registry builds the problem: with an empty term set this is
	// exactly partition.FromCircuit (the historical kernel path, bit for
	// bit); regime terms rescale biases, drop/reweight edges, and attach
	// the compiled plane-term tables before the solver ever runs.
	p, opts, err := terms.BuildProblem(j.ref.circuit, j.k, j.opts, s.cfg.Library)
	if err != nil {
		return nil, nil, err
	}
	opts.Span = span
	every := s.cfg.ProgressEvery
	opts.Tracer = obs.TracerFunc(func(e obs.Event) {
		if e.Kind == obs.KindIter && every > 1 && e.Iter%every != 0 {
			return
		}
		j.publish(e)
	})

	var res *partition.Result
	var mr *multilevel.Result
	bestSeed := int64(0)
	switch {
	case j.ml != nil:
		mlOpts := *j.ml
		mlOpts.Solver = opts
		mr, err = multilevel.PartitionCtx(j.ctx, p, mlOpts)
		if err == nil {
			res = &partition.Result{
				Labels: mr.Labels, Iters: mr.Iters, Converged: mr.Converged,
				Discrete: mr.Discrete, RefineMoves: mr.RefineMoves,
			}
		}
	case j.balanced != nil:
		res, err = p.SolveBalancedCtx(j.ctx, opts, *j.balanced)
	case j.restarts > 1:
		// Restarts are the parallelism axis within the job: auto (one per
		// CPU) while kernels stay serial, which is the daemon default. A
		// request that raises kernel workers flips the axis — restarts go
		// serial so exactly one of the two knobs is parallel, per the
		// PortfolioOptions guidance (the product would oversubscribe).
		portfolioWorkers := 0
		if opts.Workers > 1 {
			portfolioWorkers = 1
		}
		var pf *partition.Portfolio
		pf, err = p.SolvePortfolio(j.ctx, opts, partition.PortfolioOptions{
			Restarts: j.restarts,
			Workers:  portfolioWorkers,
		})
		if err == nil {
			res = pf.Best
			bestSeed = pf.BestSeed
		}
	default:
		res, err = p.SolveCtx(j.ctx, opts)
	}
	if err != nil {
		return nil, nil, err
	}
	m, err := recycle.Evaluate(p, res.Labels)
	if err != nil {
		return nil, nil, err
	}
	env := resultEnvelope{
		K:            j.k,
		BestSeed:     bestSeed,
		Iters:        res.Iters,
		Converged:    res.Converged,
		DiscreteCost: res.Discrete.Total,
		RefineMoves:  res.RefineMoves,
		Labels:       res.Labels,
		Metrics:      metricsJSON(m),
		Cost: &costJSON{
			F1: res.Discrete.F1, F2: res.Discrete.F2,
			F3: res.Discrete.F3, F4: res.Discrete.F4,
			Extra: res.Discrete.Extra, Total: res.Discrete.Total,
		},
	}
	if mr != nil {
		env.Levels = mr.Levels
		env.CoarsestSize = mr.CoarsestSize
	}
	if j.plan {
		pl, perr := recycle.BuildPlan(j.ref.circuit, p, res.Labels, recycle.PlanOptions{Library: s.cfg.Library})
		if perr != nil {
			return nil, nil, perr
		}
		crossings, pairs := m.CrossingCount()
		env.Plan = &planJSON{
			SupplyCurrentMA: pl.SupplyCurrent,
			SavedCurrentMA:  pl.SavedCurrent(),
			StackVoltageMV:  pl.StackVoltage() * 1000,
			Crossings:       crossings,
			CouplerPairs:    pairs,
			CouplerAreaMM2:  pl.TotalCouplerArea,
			DummyAreaMM2:    pl.TotalDummyArea,
			MaxHops:         pl.MaxHopsPerConnection,
		}
	}
	body, err = json.Marshal(&env)
	if err != nil {
		return nil, nil, err
	}
	return body, res.Labels, nil
}

// resultEnvelope is the cached/served result document. Marshaling goes
// through encoding/json with a fixed field order (struct order) and
// shortest-round-trip floats, so bit-identical solver outputs marshal to
// byte-identical documents — the property the cache-determinism tests
// assert end to end.
type resultEnvelope struct {
	K            int         `json:"k"`
	BestSeed     int64       `json:"best_seed,omitempty"`
	Iters        int         `json:"iters"`
	Converged    bool        `json:"converged"`
	DiscreteCost float64     `json:"discrete_cost"`
	RefineMoves  int         `json:"refine_moves,omitempty"`
	Levels       int         `json:"levels,omitempty"`
	CoarsestSize int         `json:"coarsest_size,omitempty"`
	Labels       []int       `json:"labels"`
	Metrics      metricsBody `json:"metrics"`
	Cost         *costJSON   `json:"cost_breakdown,omitempty"`
	Plan         *planJSON   `json:"plan,omitempty"`
}

// costJSON is the discrete cost decomposed per objective term — what a
// sweep's ranked cells report as their per-cell breakdown. Extra is the
// summed plane-term (regime) contribution, zero on the default term set.
type costJSON struct {
	F1    float64 `json:"f1"`
	F2    float64 `json:"f2"`
	F3    float64 `json:"f3"`
	F4    float64 `json:"f4"`
	Extra float64 `json:"extra,omitempty"`
	Total float64 `json:"total"`
}

// metricsBody mirrors recycle.Metrics with wire-friendly names plus the
// paper's derived headline percentages.
type metricsBody struct {
	K           int       `json:"k"`
	Gates       int       `json:"gates"`
	Edges       int       `json:"edges"`
	DistHist    []int     `json:"dist_hist"`
	PlaneBias   []float64 `json:"plane_bias_ma"`
	PlaneArea   []float64 `json:"plane_area_mm2"`
	TotalBias   float64   `json:"total_bias_ma"`
	TotalArea   float64   `json:"total_area_mm2"`
	BMax        float64   `json:"b_max_ma"`
	IComp       float64   `json:"i_comp_ma"`
	ICompPct    float64   `json:"i_comp_pct"`
	AMax        float64   `json:"a_max_mm2"`
	AFreePct    float64   `json:"a_free_pct"`
	EmptyPlanes int       `json:"empty_planes,omitempty"`
	DistLE1Pct  float64   `json:"dist_le1_pct"`
	DistLE2Pct  float64   `json:"dist_le2_pct"`
	HalfKPct    float64   `json:"dist_le_halfk_pct"`
}

func metricsJSON(m *recycle.Metrics) metricsBody {
	return metricsBody{
		K: m.K, Gates: m.Gates, Edges: m.Edges,
		DistHist: m.DistHist, PlaneBias: m.PlaneBias, PlaneArea: m.PlaneArea,
		TotalBias: m.TotalBias, TotalArea: m.TotalArea,
		BMax: m.BMax, IComp: m.IComp, ICompPct: m.ICompPct,
		AMax: m.AMax, AFreePct: m.AFreePct, EmptyPlanes: m.EmptyPlanes,
		DistLE1Pct: m.DistLEPct(1), DistLE2Pct: m.DistLEPct(2), HalfKPct: m.HalfKDistPct(),
	}
}

// planJSON is the recycling-plan summary included when a job asks for it.
type planJSON struct {
	SupplyCurrentMA float64 `json:"supply_current_ma"`
	SavedCurrentMA  float64 `json:"saved_current_ma"`
	StackVoltageMV  float64 `json:"stack_voltage_mv"`
	Crossings       int     `json:"crossings"`
	CouplerPairs    int     `json:"coupler_pairs"`
	CouplerAreaMM2  float64 `json:"coupler_area_mm2"`
	DummyAreaMM2    float64 `json:"dummy_area_mm2"`
	MaxHops         int     `json:"max_hops"`
}
