package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"gpp/internal/assignio"
	"gpp/internal/def"
	"gpp/internal/multilevel"
	"gpp/internal/obs"
	"gpp/internal/partition"
)

// maxRequestBytes bounds a submission body; DEF uploads dominate and the
// paper-scale benchmarks are well under a megabyte, so 8 MiB is generous
// headroom without letting a client pin tens of megabytes per request on
// a body that would only fail DEF parsing anyway.
const maxRequestBytes = 8 << 20

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/assignment", s.handleAssignment)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/profile", s.handleProfile)
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSweepSubmit)
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.handleSweepStatus)
	s.mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleSweepCancel)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/events", s.handleSweepEvents)
	s.mux.HandleFunc("GET /v1/debug/ops", s.handleOps)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	// Node-to-node endpoints; they answer 404 on a non-clustered daemon.
	s.mux.HandleFunc("GET /v1/cluster/ping", s.handleClusterPing)
	s.mux.HandleFunc("GET /v1/cluster/blob/{key}", s.handleClusterBlob)
	s.mux.HandleFunc("POST /v1/cluster/steal", s.handleClusterSteal)
	s.mux.HandleFunc("POST /v1/cluster/complete", s.handleClusterComplete)
	// /metrics writes this daemon's own instruments, then the process
	// registry; /debug/vars carries the process registry only.
	s.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.reg.WriteProm(w)
		_ = obs.Default().WriteProm(w)
	})
	s.mux.Handle("/debug/", obs.NewMux(obs.Default()))
}

// JobRequest is the submission document for POST /v1/jobs. Exactly one of
// Circuit (a benchmark name), DEF (an inline DEF netlist), or FromJob (a
// prior job id whose circuit is reused) selects the input.
type JobRequest struct {
	Circuit string `json:"circuit,omitempty"`
	DEF     string `json:"def,omitempty"`
	FromJob string `json:"from_job,omitempty"`

	// K is the plane count. Required.
	K int `json:"k"`

	// Restarts > 1 races a multi-seed portfolio and keeps the best result.
	Restarts int `json:"restarts,omitempty"`

	// BalancedSlack, when set, snaps with capacity-aware rounding at this
	// bias slack instead of plain argmax.
	BalancedSlack *float64 `json:"balanced_slack,omitempty"`

	// Multilevel, when set, solves with the multilevel V-cycle instead of
	// the flat descent — the scale path for ≳10⁵-gate circuits. Mutually
	// exclusive with BalancedSlack and Restarts > 1.
	Multilevel *MultilevelJob `json:"multilevel,omitempty"`

	// Plan includes the current-recycling plan summary in the result.
	Plan bool `json:"plan,omitempty"`

	// TimeoutMS bounds the job (queue wait included); 0 means the server
	// default, and the server maximum caps it.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// Options tunes the solver; zero values mean the solver defaults.
	Options *JobOptions `json:"options,omitempty"`
}

// JobOptions is the JSON mirror of partition.Options (the solver-relevant
// subset plus Workers; Workers affects speed only, never the result or the
// cache key).
type JobOptions struct {
	Seed      int64   `json:"seed,omitempty"`
	Margin    float64 `json:"margin,omitempty"`
	MaxIters  int     `json:"max_iters,omitempty"`
	LearnRate float64 `json:"learn_rate,omitempty"`
	InitStep  float64 `json:"init_step,omitempty"`
	// Momentum is the heavy-ball coefficient, in [0, 1). Absent means the
	// daemon default: partition.MomentumAuto for flat jobs (plain,
	// balanced and restarts) — momentum 0.9 unless the compiled problem
	// has plane terms, which keep plain steps — and plain steps for
	// multilevel jobs. An explicit value, 0 included, is used as given:
	// "momentum": 0 is the paper's literal Algorithm 1. Absent and
	// explicit spellings have distinct cache keys even where they run the
	// same rule.
	Momentum      *float64 `json:"momentum,omitempty"`
	Renormalize   bool     `json:"renormalize,omitempty"`
	ReduceDims    bool     `json:"reduce_dims,omitempty"`
	PaperGradient bool     `json:"paper_gradient,omitempty"`
	Refine        bool     `json:"refine,omitempty"`
	RefinePasses  int      `json:"refine_passes,omitempty"`
	Workers       int      `json:"workers,omitempty"`

	// Precision is validated, never used: the solver runs float64 only.
	// "" and "float64" are accepted (and share one cache key); anything
	// else, "float32" included, is a 400 — the float32 tier was removed,
	// and silently running a float32 request in float64 would return
	// bytes the client did not ask for. Journaled float32 jobs accepted
	// before the removal replay to a failed job the same way.
	Precision string `json:"precision,omitempty"`

	// Terms selects named cost terms from the registry (internal/terms),
	// e.g. [{"name":"xesfq"},{"name":"current_limit","weight":2,"param":80}].
	// f1–f4 specs scale the paper coefficients; regime terms reshape the
	// compiled problem. Unknown names are rejected with the registered
	// list, and the surviving set folds into the options fingerprint — and
	// with it the cache key — so scenarios never collide.
	Terms []partition.TermSpec `json:"terms,omitempty"`
}

// MultilevelJob is the JSON mirror of the multilevel V-cycle knobs; zero
// values mean the V-cycle defaults. The normalized values (not the raw
// ones) enter the cache key, so two spellings of the same cycle share an
// entry.
type MultilevelJob struct {
	Coarsest     int `json:"coarsest,omitempty"`
	MaxLevels    int `json:"max_levels,omitempty"`
	RefineIters  int `json:"refine_iters,omitempty"`
	RefinePasses int `json:"refine_passes,omitempty"`
}

func (m *MultilevelJob) toOptions(k int) multilevel.Options {
	o := multilevel.Options{
		CoarsestSize: m.Coarsest,
		MaxLevels:    m.MaxLevels,
		RefineIters:  m.RefineIters,
		RefinePasses: m.RefinePasses,
	}
	return o.Normalize(k)
}

// toPartition maps the request options onto solver options. flat selects
// the default for an absent momentum: MomentumAuto for a flat descent,
// plain steps for the V-cycle. An explicit momentum outside [0, 1) is an
// error naming the value — MomentumAuto's own value included, which only
// an absent field selects — and so is any precision but float64.
func (o *JobOptions) toPartition(flat bool) (partition.Options, error) {
	if o == nil {
		o = &JobOptions{}
	}
	p := partition.Options{
		Seed:         o.Seed,
		Margin:       o.Margin,
		MaxIters:     o.MaxIters,
		LearnRate:    o.LearnRate,
		InitStep:     o.InitStep,
		Renormalize:  o.Renormalize,
		ReduceDims:   o.ReduceDims,
		Refine:       o.Refine,
		RefinePasses: o.RefinePasses,
		Workers:      o.Workers,
		Terms:        o.Terms,
	}
	if o.PaperGradient {
		p.Gradient = partition.GradientPaper
	}
	if o.Precision != "" && o.Precision != "float64" {
		return partition.Options{}, fmt.Errorf("precision %q is not supported: the float32 tier was removed; omit the field or use \"float64\"", o.Precision)
	}
	switch {
	case o.Momentum != nil:
		if m := *o.Momentum; !(m >= 0 && m < 1) {
			return partition.Options{}, fmt.Errorf("momentum %g must be in [0, 1) (omit it for the default)", m)
		}
		p.Momentum = *o.Momentum
	case flat:
		p.Momentum = partition.MomentumAuto
	}
	return p, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeError(w, http.StatusServiceUnavailable, "daemon is draining")
		return
	}
	// The body is slurped (not stream-decoded) so a submission owned by
	// another cluster node can be forwarded verbatim.
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	var req JobRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	j, status, err := s.buildJob(&req)
	if err != nil {
		writeError(w, status, "%v", err)
		return
	}
	// Consistent-hash routing: if another node owns this job's cache key,
	// proxy the submission there (response relayed as-is). Falls through
	// to local handling whenever the owner can't take it.
	if s.maybeForward(w, r, &req, j, raw) {
		return
	}

	code := s.admit(j, &req, false)
	if code == http.StatusOK || code == http.StatusAccepted {
		writeJSON(w, code, s.statusJSON(j))
		return
	}
	// A refused job leaves the registry again: its client never learns the
	// id. It is still on the ledger, finished cancelled (or failed, when the
	// journal write failed).
	s.store.remove(j.id)
	switch code {
	case http.StatusTooManyRequests:
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeError(w, code, "queue full (%d jobs waiting); retry later", s.cfg.QueueDepth)
	case http.StatusServiceUnavailable:
		writeError(w, code, "daemon is draining")
	default:
		writeError(w, code, "%s", s.statusJSON(j).Error)
	}
}

// buildJob parses and validates a request into a ready-to-queue job. The
// returned int is the HTTP status for the error case.
func (s *Server) buildJob(req *JobRequest) (*job, int, error) {
	ref, name, code, err := s.resolveCircuit(req)
	if err != nil {
		return nil, code, err
	}
	return s.makeJob(ref, name, req)
}

// resolveCircuit resolves a request's one circuit source to a shared ref
// and the circuit's name: a benchmark name through the circuit memo, an
// inline DEF with one canonical encoding, or from_job to the prior job's
// ref. Jobs and sweeps share it; a sweep has no from_job. The int is the
// HTTP status for the error case.
func (s *Server) resolveCircuit(req *JobRequest) (*circuitRef, string, int, error) {
	sources := 0
	for _, set := range []bool{req.Circuit != "", req.DEF != "", req.FromJob != ""} {
		if set {
			sources++
		}
	}
	switch {
	case sources != 1:
		return nil, "", http.StatusBadRequest,
			fmt.Errorf("exactly one of circuit, def, from_job must be set")
	case req.Circuit != "":
		ref, err := s.memo.get(req.Circuit, s.m)
		if err != nil {
			return nil, "", http.StatusBadRequest, err
		}
		return ref, ref.circuit.Name, 0, nil
	case req.DEF != "":
		d, err := def.Parse(strings.NewReader(req.DEF))
		if err != nil {
			return nil, "", http.StatusBadRequest, err
		}
		c, err := def.ToCircuit(d, s.cfg.Library)
		if err != nil {
			return nil, "", http.StatusBadRequest, err
		}
		return newCircuitRef(c), c.Name, 0, nil
	}
	prior, ok := s.store.get(req.FromJob)
	if !ok {
		return nil, "", http.StatusNotFound, fmt.Errorf("from_job %q not found", req.FromJob)
	}
	return prior.ref, prior.circuitName, 0, nil
}

// makeJob validates the request against an already-resolved circuit and
// assembles the job. It is the part of submission shared with sweeps,
// journal recovery and steal grants; the ref's precomputed hashes make
// the job's circuit_hash a copy and its cache key a resumed hash.
func (s *Server) makeJob(ref *circuitRef, name string, req *JobRequest) (*job, int, error) {
	if req.K < 1 {
		return nil, http.StatusBadRequest, fmt.Errorf("k must be ≥ 1, got %d", req.K)
	}
	restarts := req.Restarts
	if restarts < 1 {
		restarts = 1
	}
	if req.BalancedSlack != nil && restarts > 1 {
		return nil, http.StatusBadRequest,
			fmt.Errorf("balanced_slack and restarts > 1 are mutually exclusive")
	}
	var ml *multilevel.Options
	if req.Multilevel != nil {
		if req.BalancedSlack != nil || restarts > 1 {
			return nil, http.StatusBadRequest,
				fmt.Errorf("multilevel is mutually exclusive with balanced_slack and restarts > 1")
		}
		n := req.Multilevel.toOptions(req.K)
		ml = &n
	}
	opts, err := req.Options.toPartition(ml == nil)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	if opts.Workers == 0 {
		// Inside the daemon, cross-job concurrency is the parallelism
		// axis; kernels default to serial (a request may override).
		opts.Workers = 1
	}
	opts, err = opts.NormalizeFor(req.K)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	key, err := ref.jobKey(opts, req.K, restarts, req.BalancedSlack, ml, req.Plan)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	// The cap applies in milliseconds, before the Duration conversion:
	// 2^63 ns is only ~106 days, and a larger timeout_ms would wrap to a
	// negative Duration and an already-expired job.
	timeout := min(s.cfg.DefaultJobTimeout, s.cfg.MaxJobTimeout)
	if req.TimeoutMS > 0 {
		timeout = s.cfg.MaxJobTimeout
		if req.TimeoutMS < timeout.Milliseconds() {
			timeout = time.Duration(req.TimeoutMS) * time.Millisecond
		}
	}
	// Keep the request for steal grants, minus the circuit payload (it
	// ships separately as canonical circuit JSON; a DEF upload would
	// bloat every grant).
	reqCopy := *req
	reqCopy.Circuit, reqCopy.DEF, reqCopy.FromJob = "", "", ""
	ctx, cancel := context.WithTimeout(s.baseCtx, timeout)
	j := &job{
		id:          newJobID(),
		ref:         ref,
		circuitName: name,
		key:         key,
		k:           req.K,
		restarts:    restarts,
		balanced:    req.BalancedSlack,
		ml:          ml,
		opts:        opts,
		plan:        req.Plan,
		req:         &reqCopy,
		ctx:         ctx,
		cancel:      cancel,
		broker:      newBroker(s.cfg.FlightRecorder),
	}
	j.mu.Lock()
	j.status = StatusQueued
	j.submitted = time.Now()
	j.mu.Unlock()
	s.initTracing(j)
	return j, 0, nil
}

// statusBody is the job document served by GET /v1/jobs/{id} (and echoed
// on submission). Result is the exact cached body, embedded raw.
type statusBody struct {
	ID          string          `json:"id"`
	Status      Status          `json:"status"`
	Cache       string          `json:"cache"`
	Circuit     string          `json:"circuit"`
	CircuitHash string          `json:"circuit_hash"`
	Gates       int             `json:"gates"`
	Edges       int             `json:"edges"`
	K           int             `json:"k"`
	Restarts    int             `json:"restarts,omitempty"`
	Key         string          `json:"key"`
	Submitted   string          `json:"submitted_at,omitempty"`
	Started     string          `json:"started_at,omitempty"`
	Finished    string          `json:"finished_at,omitempty"`
	Error       string          `json:"error,omitempty"`
	Result      json.RawMessage `json:"result,omitempty"`
}

func (s *Server) statusJSON(j *job) statusBody {
	status, hit, errMsg, body, _, submitted, started, finished := j.snapshot()
	cache := "miss"
	if hit {
		cache = "hit"
	}
	sb := statusBody{
		ID:          j.id,
		Status:      status,
		Cache:       cache,
		Circuit:     j.circuitName,
		CircuitHash: j.ref.hash,
		Gates:       j.ref.circuit.NumGates(),
		Edges:       j.ref.circuit.NumEdges(),
		K:           j.k,
		Key:         j.key,
		Error:       errMsg,
		Result:      body,
	}
	if j.restarts > 1 {
		sb.Restarts = j.restarts
	}
	sb.Submitted, sb.Started, sb.Finished = stamp(submitted), stamp(started), stamp(finished)
	return sb
}

// stamp renders a job or sweep timestamp for the wire; zero is absent.
func stamp(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}

// listLimitDefault and listLimitMax bound GET /v1/jobs responses; the
// registry holds up to MaxJobs (4096 by default) jobs and an unbounded
// listing would serialize all of them on every poll.
const (
	listLimitDefault = 100
	listLimitMax     = 1000
)

// handleList serves a bounded, newest-first job listing. ?limit=N caps
// the page (default 100, max 1000) and ?status=queued|running|done|
// failed|cancelled filters before the cap is applied; "total" counts the
// matches so a truncated page is detectable.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	limit := listLimitDefault
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, "bad limit %q", v)
			return
		}
		limit = min(n, listLimitMax)
	}
	var filter Status
	if v := r.URL.Query().Get("status"); v != "" {
		switch st := Status(v); st {
		case StatusQueued, StatusRunning, StatusDone, StatusFailed, StatusCancelled:
			filter = st
		default:
			writeError(w, http.StatusBadRequest,
				"bad status %q; valid statuses: %s, %s, %s, %s, %s", v,
				StatusQueued, StatusRunning, StatusDone, StatusFailed, StatusCancelled)
			return
		}
	}
	jobs := s.store.list()
	out := struct {
		Jobs  []statusBody `json:"jobs"`
		Total int          `json:"total"`
	}{Jobs: make([]statusBody, 0, min(limit, len(jobs)))}
	for i := len(jobs) - 1; i >= 0; i-- { // newest first
		sb := s.statusJSON(jobs[i])
		if filter != "" && sb.Status != filter {
			continue
		}
		out.Total++
		if len(out.Jobs) < limit {
			sb.Result = nil // list is a summary; fetch results per job
			out.Jobs = append(out.Jobs, sb)
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) jobFor(w http.ResponseWriter, r *http.Request) (*job, bool) {
	j, ok := s.store.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "job %q not found", r.PathValue("id"))
		return nil, false
	}
	return j, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.jobFor(w, r); ok {
		writeJSON(w, http.StatusOK, s.statusJSON(j))
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	status, _, _, _, _, _, _, _ := j.snapshot()
	if status.terminal() {
		writeError(w, http.StatusConflict, "job %s already %s", j.id, status)
		return
	}
	s.cancelJob(j)
	writeJSON(w, http.StatusAccepted, map[string]string{"id": j.id, "status": "cancelling"})
}

// handleResult serves the raw result document — byte-identical across a
// cold solve and every later cache hit of the same key.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	status, _, errMsg, body, _, _, _, _ := j.snapshot()
	switch status {
	case StatusDone:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(body)
	case StatusFailed, StatusCancelled:
		writeError(w, http.StatusConflict, "job %s %s: %s", j.id, status, errMsg)
	default:
		writeError(w, http.StatusConflict, "job %s is %s; poll or stream /events", j.id, status)
	}
}

// handleAssignment renders the result as the assignment TSV the CLI tools
// share (assignio format), against this job's own gate names.
func (s *Server) handleAssignment(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	status, _, _, _, labels, _, _, _ := j.snapshot()
	if status != StatusDone {
		writeError(w, http.StatusConflict, "job %s is %s", j.id, status)
		return
	}
	w.Header().Set("Content-Type", "text/tab-separated-values; charset=utf-8")
	var buf bytes.Buffer
	if err := assignio.Write(&buf, j.ref.circuit, labels); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	_, _ = w.Write(buf.Bytes())
}

// handleEvents streams the job's progress as Server-Sent Events, closed
// by a terminal "status" frame carrying the full job document.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.jobFor(w, r); ok {
		s.streamSSE(w, r, j.broker, func() any { return s.statusJSON(j) })
	}
}

// streamSSE writes a broker's buffered history and then its live events
// as Server-Sent Events until the broker closes, and ends with a terminal
// "status" frame holding doc(). The job and sweep event endpoints share it.
func (s *Server) streamSSE(w http.ResponseWriter, r *http.Request, b *broker, doc func() any) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	replay, ch, detach := b.subscribe()
	defer detach()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	var scratch []byte
	for _, e := range replay {
		scratch = writeSSE(w, scratch, e)
	}
	flusher.Flush()
	// Idle heartbeat: a comment line every SSEKeepalive keeps proxies and
	// load balancers from reaping the connection during a long quiet solve
	// (iter events are throttled, so minutes can pass between frames).
	var keepalive <-chan time.Time
	if s.cfg.SSEKeepalive > 0 {
		t := time.NewTicker(s.cfg.SSEKeepalive)
		defer t.Stop()
		keepalive = t.C
	}
	for {
		select {
		case e, open := <-ch:
			if !open {
				if body, err := json.Marshal(doc()); err == nil {
					fmt.Fprintf(w, "event: status\ndata: %s\n\n", body)
				}
				flusher.Flush()
				return
			}
			scratch = writeSSE(w, scratch, e)
			flusher.Flush()
		case <-keepalive:
			fmt.Fprint(w, ": keepalive\n\n")
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// handleProfile serves the job's profile, the newest events of its log:
// the recent spans and events as JSON (the default), or the
// reconstructed span waterfall as text with ?format=text.
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	if j.profileCap == 0 {
		writeError(w, http.StatusNotFound, "flight recorder disabled (start the daemon without -flight-recorder=-1)")
		return
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		j.profileWaterfall(w)
		return
	}
	body := j.profileJSON()
	if body == nil {
		writeError(w, http.StatusInternalServerError, "profile encoding failed")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// handleOps serves the daemon's ops snapshot — the one-stop console for
// "what is this node doing": queue pressure, outcomes, cache hit rate,
// latency quantiles, SLO burn, and recent jobs. JSON by default,
// ?format=text for the human console with span waterfalls.
func (s *Server) handleOps(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		s.writeOpsText(w)
		return
	}
	writeJSON(w, http.StatusOK, s.opsSnapshot())
}

// writeSSE frames one event, reusing scratch for the JSONL encoding.
func writeSSE(w io.Writer, scratch []byte, e obs.Event) []byte {
	scratch = obs.AppendEvent(scratch[:0], e)
	data := bytes.TrimRight(scratch, "\n")
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", e.Kind, data)
	return scratch
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type healthCluster struct {
		Self       string `json:"self"`
		Nodes      int    `json:"nodes"`
		PeersAlive int    `json:"peers_alive"`
		Stolen     int    `json:"stolen_out"`
	}
	type health struct {
		Status      string         `json:"status"`
		UptimeS     float64        `json:"uptime_s"`
		Jobs        int            `json:"jobs"`
		Inflight    int64          `json:"inflight"`
		QueueDepth  int            `json:"queue_depth"`
		QueueCap    int            `json:"queue_cap"`
		CacheSize   int            `json:"cache_entries"`
		Workers     int            `json:"workers"`
		DataDir     string         `json:"data_dir,omitempty"`
		JournalLive int            `json:"journal_live,omitempty"`
		Cluster     *healthCluster `json:"cluster,omitempty"`
	}
	h := health{
		Status:     "ok",
		UptimeS:    time.Since(s.started).Seconds(),
		Jobs:       s.store.len(),
		Inflight:   int64(s.m.inflight.Value()),
		QueueDepth: len(s.queue),
		QueueCap:   s.cfg.QueueDepth,
		CacheSize:  s.cache.len(),
		Workers:    s.cfg.Workers,
	}
	if s.durable != nil {
		h.DataDir = s.cfg.DataDir
		s.durable.mu.Lock()
		h.JournalLive = len(s.durable.live)
		s.durable.mu.Unlock()
	}
	if s.cluster != nil {
		s.stolenMu.Lock()
		out := len(s.stolen)
		s.stolenMu.Unlock()
		h.Cluster = &healthCluster{
			Self:       s.cluster.Self(),
			Nodes:      len(s.cluster.Nodes()),
			PeersAlive: s.cluster.PeersAlive(),
			Stolen:     out,
		}
	}
	code := http.StatusOK
	if s.Draining() {
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
