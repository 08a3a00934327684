package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"

	"gpp/internal/obs"
	"gpp/internal/partition"
	"gpp/internal/sweep"
)

// Batch sweeps: POST /v1/sweeps expands a declarative spec (K ranges,
// c-weight grids, a regime portfolio of term sets) into a cell matrix and
// runs every cell as an ordinary content-addressed job through the same
// queue the single-job endpoint feeds. Nothing downstream knows about
// sweeps: cells hit the result cache, cluster peers steal them, and a
// durable daemon journals them individually (after a crash they replay as
// plain jobs — the sweep wrapper is in-memory bookkeeping, the solved
// results all land in the content-addressed cache either way).
//
// Lifecycle: the submit handler validates the whole matrix up front (every
// cell must pass makeJob, so one bad term name rejects the sweep with the
// registered-terms message), then a feeder goroutine admits cells in order
// through the daemon's one admission path — cache hits complete
// synchronously, misses wait for a queue slot under backpressure — while
// watcher goroutines forward each cell's progress events onto the sweep's
// own SSE broker (Event.Restart carries the cell index). When the last
// cell is terminal the finalizer ranks the non-failed cells and computes
// the (cost, b_max) Pareto front; failed or cancelled cells are reported
// with their errors and excluded from both.

// Sweep lifecycle event kinds on the sweep's SSE stream. Cell-scoped kinds
// set Event.Restart to the cell index (same convention as portfolio
// restarts); forwarded solver events keep their own kinds, retagged with
// the cell index the same way.
const (
	kindSweepCellDone   obs.Kind = "sweep_cell_done"
	kindSweepCellFailed obs.Kind = "sweep_cell_failed"
	kindSweepDone       obs.Kind = "sweep_done"
)

// SweepRequest is the POST /v1/sweeps submission document. Exactly one of
// Circuit or DEF selects the input; Spec declares the scenario matrix.
type SweepRequest struct {
	Circuit string `json:"circuit,omitempty"`
	DEF     string `json:"def,omitempty"`

	// K is the fallback plane count when the spec declares no K axis.
	K int `json:"k,omitempty"`

	// Spec is the declarative scenario matrix (see internal/sweep).
	Spec sweep.Spec `json:"spec"`

	// Restarts and Plan apply to every cell, as in JobRequest.
	Restarts int  `json:"restarts,omitempty"`
	Plan     bool `json:"plan,omitempty"`

	// TimeoutMS is the per-cell deadline (queue wait included); a regime's
	// own timeout_ms overrides it for that regime's cells.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// Options is the base solver configuration shared by every cell; a
	// cell's expanded term specs append to (and must not duplicate)
	// Options.Terms.
	Options *JobOptions `json:"options,omitempty"`
}

// sweepCell pairs one expanded cell with its job and the outcome the
// watcher recorded; out is valid only once done is true.
type sweepCell struct {
	cell sweep.Cell
	req  *JobRequest
	job  *job

	mu   sync.Mutex
	done bool
	hit  bool
	out  sweep.Outcome
	errS string
}

// sweepRun is one batch sweep moving through the daemon.
type sweepRun struct {
	id          string
	circuitName string
	rankBy      string
	broker      *broker
	cells       []*sweepCell

	mu        sync.Mutex
	status    Status
	cancelled bool
	ranking   []int
	pareto    []int
	submitted time.Time
	finished  time.Time
}

func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeError(w, http.StatusServiceUnavailable, "daemon is draining")
		return
	}
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	var req SweepRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	ref, name, code, err := s.resolveCircuit(&JobRequest{Circuit: req.Circuit, DEF: req.DEF})
	if err != nil {
		writeError(w, code, "%v", err)
		return
	}
	cells, err := sweep.Expand(req.Spec, req.K)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sr := &sweepRun{
		id:          "sw-" + newJobID(),
		circuitName: name,
		rankBy:      req.Spec.RankBy,
		broker:      newBroker(histCap),
		status:      StatusRunning,
		submitted:   time.Now(),
	}
	var base JobOptions
	if req.Options != nil {
		base = *req.Options
	}
	for _, cell := range cells {
		jo := base
		jo.Terms = append(append([]partition.TermSpec(nil), base.Terms...), cell.Terms...)
		timeout := req.TimeoutMS
		if cell.TimeoutMS > 0 {
			timeout = cell.TimeoutMS
		}
		jreq := &JobRequest{
			K: cell.K, Restarts: req.Restarts, Plan: req.Plan,
			TimeoutMS: timeout, Options: &jo,
		}
		j, _, err := s.makeJob(ref, name, jreq)
		if err != nil {
			// One invalid cell rejects the whole sweep at submit — the
			// 400 carries the solver's message (unknown term names list
			// the registered terms), prefixed with which cell tripped it.
			for _, sc := range sr.cells {
				sc.job.cancel()
			}
			writeError(w, http.StatusBadRequest, "cell %d (k=%d regime=%q): %v",
				cell.Index, cell.K, cell.Regime, err)
			return
		}
		sr.cells = append(sr.cells, &sweepCell{cell: cell, req: jreq, job: j})
	}
	s.sweeps.add(sr)
	s.sweepWG.Add(1)
	go s.runSweep(sr)
	writeJSON(w, http.StatusAccepted, s.sweepJSON(sr))
}

// runSweep is the feeder + finalizer: admit cells in matrix order, watch
// each to termination, then rank. Cells of a cancelled sweep finish at
// admission, their contexts already cancelled.
func (s *Server) runSweep(sr *sweepRun) {
	defer s.sweepWG.Done()
	var watchers sync.WaitGroup
	for _, sc := range sr.cells {
		s.admit(sc.job, sc.req, true)
		watchers.Add(1)
		go s.watchCell(sr, sc, &watchers)
	}
	watchers.Wait()
	s.finalizeSweep(sr)
}

// watchCell forwards one cell's progress events onto the sweep stream
// (retagged with the cell index) and records its outcome when the cell's
// broker closes — the job's terminal signal on every path, including
// cache hits, thief completions, and recovery.
func (s *Server) watchCell(sr *sweepRun, sc *sweepCell, wg *sync.WaitGroup) {
	defer wg.Done()
	replay, ch, detach := sc.job.broker.subscribe()
	defer detach()
	for _, e := range replay {
		e.Restart = sc.cell.Index
		sr.broker.publish(e)
	}
	for e := range ch {
		e.Restart = sc.cell.Index
		sr.broker.publish(e)
	}
	st, hit, errMsg, body, _, _, _, _ := sc.job.snapshot()
	out := sweep.Outcome{Index: sc.cell.Index}
	if st == StatusDone {
		var env struct {
			DiscreteCost float64 `json:"discrete_cost"`
			Metrics      struct {
				BMax float64 `json:"b_max_ma"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(body, &env); err != nil {
			out.Failed = true
			errMsg = "result body unreadable: " + err.Error()
		} else {
			out.Cost = env.DiscreteCost
			out.BMax = env.Metrics.BMax
		}
	} else {
		out.Failed = true
	}
	sc.mu.Lock()
	sc.done, sc.hit, sc.out, sc.errS = true, hit, out, errMsg
	sc.mu.Unlock()
	kind := kindSweepCellDone
	if out.Failed {
		kind = kindSweepCellFailed
	}
	sr.broker.publish(obs.Event{Kind: kind, Restart: sc.cell.Index, FDiscrete: out.Cost})
}

// finalizeSweep ranks the finished matrix. Failed cells (cancelled,
// deadline-exceeded, unreadable) are excluded from the ranking and the
// Pareto front; they stay in the cell list with their errors, so one bad
// cell never poisons the batch.
func (sr *sweepRun) finalize() {
	outs := make([]sweep.Outcome, len(sr.cells))
	for i, sc := range sr.cells {
		sc.mu.Lock()
		outs[i] = sc.out
		sc.mu.Unlock()
	}
	sr.mu.Lock()
	sr.ranking = sweep.Rank(outs, sr.rankBy)
	sr.pareto = sweep.ParetoFront(outs)
	if sr.cancelled {
		sr.status = StatusCancelled
	} else {
		sr.status = StatusDone
	}
	sr.finished = time.Now()
	sr.mu.Unlock()
}

func (s *Server) finalizeSweep(sr *sweepRun) {
	sr.finalize()
	sr.broker.publish(obs.Event{Kind: kindSweepDone})
	sr.broker.close()
}

// cancel cancels every non-terminal cell through s.cancelJob: queued
// cells finish at once, and cells not yet admitted are finished by the
// feeder when it reaches them.
func (sr *sweepRun) cancel(s *Server) {
	sr.mu.Lock()
	sr.cancelled = true
	sr.mu.Unlock()
	for _, sc := range sr.cells {
		s.cancelJob(sc.job)
	}
}

// sweepStatusBody is the sweep document served by GET /v1/sweeps/{id} (and
// echoed on submission). Ranking and Pareto list cell indices, best first,
// and appear once the sweep is terminal.
type sweepStatusBody struct {
	ID        string          `json:"id"`
	Status    Status          `json:"status"`
	Circuit   string          `json:"circuit"`
	RankBy    string          `json:"rank_by"`
	Cells     []sweepCellBody `json:"cells"`
	Done      int             `json:"done"`
	Failed    int             `json:"failed"`
	Pending   int             `json:"pending"`
	Ranking   []int           `json:"ranking,omitempty"`
	Pareto    []int           `json:"pareto,omitempty"`
	Submitted string          `json:"submitted_at,omitempty"`
	Finished  string          `json:"finished_at,omitempty"`
}

// sweepCellBody summarizes one cell: its scenario coordinates, the job
// backing it (poll /v1/jobs/{job_id} for the full result document), and —
// once finished — its ranking metrics.
type sweepCellBody struct {
	Index   int                  `json:"index"`
	JobID   string               `json:"job_id"`
	Key     string               `json:"key"`
	K       int                  `json:"k"`
	Regime  string               `json:"regime,omitempty"`
	Weights *sweep.WeightPoint   `json:"weights,omitempty"`
	Terms   []partition.TermSpec `json:"terms,omitempty"`
	Status  Status               `json:"status"`
	Cache   string               `json:"cache,omitempty"`
	Cost    *float64             `json:"cost,omitempty"`
	BMaxMA  *float64             `json:"b_max_ma,omitempty"`
	Error   string               `json:"error,omitempty"`
}

func (s *Server) sweepJSON(sr *sweepRun) sweepStatusBody {
	sr.mu.Lock()
	body := sweepStatusBody{
		ID:      sr.id,
		Status:  sr.status,
		Circuit: sr.circuitName,
		RankBy:  sr.rankBy,
		Ranking: append([]int(nil), sr.ranking...),
		Pareto:  append([]int(nil), sr.pareto...),
	}
	submitted, finished := sr.submitted, sr.finished
	sr.mu.Unlock()
	if body.RankBy == "" {
		body.RankBy = sweep.RankByCost
	}
	body.Submitted, body.Finished = stamp(submitted), stamp(finished)
	for _, sc := range sr.cells {
		st, _, errMsg, _, _, _, _, _ := sc.job.snapshot()
		cb := sweepCellBody{
			Index:   sc.cell.Index,
			JobID:   sc.job.id,
			Key:     sc.job.key,
			K:       sc.cell.K,
			Regime:  sc.cell.Regime,
			Weights: sc.cell.Weights,
			Terms:   sc.cell.Terms,
			Status:  st,
			Error:   errMsg,
		}
		sc.mu.Lock()
		if sc.done {
			if sc.hit {
				cb.Cache = "hit"
			} else {
				cb.Cache = "miss"
			}
			if !sc.out.Failed {
				cost, bmax := sc.out.Cost, sc.out.BMax
				cb.Cost, cb.BMaxMA = &cost, &bmax
				body.Done++
			} else {
				body.Failed++
				if cb.Error == "" {
					cb.Error = sc.errS
				}
			}
		} else {
			body.Pending++
		}
		sc.mu.Unlock()
		body.Cells = append(body.Cells, cb)
	}
	return body
}

func (s *Server) sweepFor(w http.ResponseWriter, r *http.Request) (*sweepRun, bool) {
	sr, ok := s.sweeps.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "sweep %q not found", r.PathValue("id"))
		return nil, false
	}
	return sr, true
}

func (s *Server) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	if sr, ok := s.sweepFor(w, r); ok {
		writeJSON(w, http.StatusOK, s.sweepJSON(sr))
	}
}

func (s *Server) handleSweepCancel(w http.ResponseWriter, r *http.Request) {
	sr, ok := s.sweepFor(w, r)
	if !ok {
		return
	}
	sr.mu.Lock()
	terminal := sr.status.terminal()
	sr.mu.Unlock()
	if terminal {
		writeError(w, http.StatusConflict, "sweep %s already %s", sr.id, sr.status)
		return
	}
	sr.cancel(s)
	writeJSON(w, http.StatusAccepted, map[string]string{"id": sr.id, "status": "cancelling"})
}

// handleSweepEvents streams the sweep's merged progress as SSE: every
// cell's lifecycle and throttled solver events (Restart = cell index),
// the sweep's own cell_done/cell_failed markers, and a terminal "status"
// frame carrying the ranked sweep document.
func (s *Server) handleSweepEvents(w http.ResponseWriter, r *http.Request) {
	if sr, ok := s.sweepFor(w, r); ok {
		s.streamSSE(w, r, sr.broker, func() any { return s.sweepJSON(sr) })
	}
}

// sweepStoreMax bounds the sweep registry; beyond it the oldest terminal
// sweep is evicted (live sweeps are never dropped).
const sweepStoreMax = 256

type sweepStore struct {
	mu    sync.Mutex
	m     map[string]*sweepRun
	order []string
}

func newSweepStore() *sweepStore {
	return &sweepStore{m: make(map[string]*sweepRun)}
}

func (s *sweepStore) add(sr *sweepRun) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.order) >= sweepStoreMax {
		for i, id := range s.order {
			old := s.m[id]
			old.mu.Lock()
			terminal := old.status.terminal()
			old.mu.Unlock()
			if terminal {
				delete(s.m, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
	}
	s.m[sr.id] = sr
	s.order = append(s.order, sr.id)
}

func (s *sweepStore) get(id string) (*sweepRun, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sr, ok := s.m[id]
	return sr, ok
}
