package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"gpp/internal/obs"
)

// Per-job observability: every accepted job carries a timed span trace
// (HTTP accept → queue wait → cache lookup → WAL append → solve →
// persist, linking into the solver's own descent/vcycle spans) recorded,
// with its lifecycle and throttled solver events, into the job's one
// event log (the broker's). The newest Config.FlightRecorder events of
// that log are the job's profile: served by GET /v1/jobs/{id}/profile,
// rendered as waterfalls on /v1/debug/ops, and persisted with the
// terminal journal record so a crashed daemon keeps a forensic trail of
// its recent jobs; the SSE stream replays the same log.

// initTracing opens the job's span trace into its event log and its root
// span. With tracing disabled (Config.FlightRecorder < 0) the log still
// serves the SSE stream, the profile is off, and every span operation on
// the job is a nil-receiver no-op.
func (s *Server) initTracing(j *job) {
	if s.cfg.FlightRecorder < 0 {
		return
	}
	j.profileCap = s.cfg.FlightRecorder
	j.trace = obs.NewTrace(obs.TracerFunc(j.broker.publish)).Timed()
	j.span = j.trace.Root("job")
	j.span.Attr("circuit", j.circuitName)
	j.span.AttrInt("k", int64(j.k))
}

// beginQueueWait opens the queue_wait span and stamps the admission time.
// It must run before the job is sent on the queue channel: the channel
// send is the happens-before edge that makes these fields visible to the
// worker that calls endQueueWait.
func (j *job) beginQueueWait() {
	j.enqueued = time.Now()
	j.spanQueue = j.span.Child("queue_wait")
}

// endQueueWait closes the queue_wait span and records the wait in h.
// Called once, by whoever took the job off the queue.
func (j *job) endQueueWait(h *obs.Histogram) {
	if !j.enqueued.IsZero() {
		h.Observe(time.Since(j.enqueued).Seconds())
	}
	j.spanQueue.End()
	j.spanQueue = nil
}

// spanCacheLookup brackets one cache probe with its outcome
// ("memory", "disk", or "miss").
func (j *job) spanCacheLookup(tier string) {
	sp := j.span.Child("cache_lookup")
	sp.Attr("outcome", tier)
	sp.End()
}

// endRootSpan closes the job's root span with its terminal status. Runs
// inside finishOK/finishErr before the broker closes, so the root span is
// always the last event in a completed profile.
func (j *job) endRootSpan(status Status, fromCache bool) {
	if j.span == nil {
		return
	}
	j.span.Attr("status", string(status))
	if fromCache {
		j.span.Attr("cache", "hit")
	}
	j.span.End()
}

// profileJSON renders the job's profile document: the newest profileCap
// events of its log (deterministically encoded, same bytes as a JSONL
// trace line) plus identity and drop accounting. Returns nil when tracing
// is disabled.
func (j *job) profileJSON() []byte {
	if j.profileCap == 0 {
		return nil
	}
	events, dropped := j.broker.log.Last(j.profileCap)
	status, _, _, _, _, _, _, _ := j.snapshot()
	doc := struct {
		ID      string            `json:"id"`
		Status  Status            `json:"status"`
		Circuit string            `json:"circuit"`
		K       int               `json:"k"`
		Dropped int64             `json:"dropped,omitempty"`
		Events  []json.RawMessage `json:"events"`
	}{ID: j.id, Status: status, Circuit: j.circuitName, K: j.k,
		Dropped: dropped, Events: make([]json.RawMessage, 0, len(events))}
	var scratch []byte
	for _, e := range events {
		scratch = obs.AppendEvent(scratch[:0], e)
		doc.Events = append(doc.Events,
			json.RawMessage(bytes.Clone(bytes.TrimRight(scratch, "\n"))))
	}
	b, err := json.Marshal(&doc)
	if err != nil {
		return nil
	}
	return b
}

// profileWaterfall renders the job's span tree as indented text.
func (j *job) profileWaterfall(w io.Writer) {
	if j.profileCap == 0 {
		fmt.Fprintln(w, "(flight recorder disabled)")
		return
	}
	events, dropped := j.broker.log.Last(j.profileCap)
	roots := obs.BuildSpanTree(events)
	if len(roots) == 0 {
		fmt.Fprintln(w, "(no completed spans)")
		return
	}
	obs.WriteWaterfall(w, roots)
	if dropped > 0 {
		fmt.Fprintf(w, "(%d older events dropped from the ring)\n", dropped)
	}
}

// opsBody is the JSON document behind GET /v1/debug/ops: one daemon's
// state since boot — queue pressure, job outcomes, cache efficiency,
// latency quantiles, and SLO burn.
type opsBody struct {
	UptimeS    float64 `json:"uptime_s"`
	Draining   bool    `json:"draining"`
	Workers    int     `json:"workers"`
	QueueDepth int     `json:"queue_depth"`
	QueueCap   int     `json:"queue_cap"`
	Inflight   int64   `json:"inflight"`

	Jobs struct {
		Submitted int64 `json:"submitted"`
		Completed int64 `json:"completed"`
		Failed    int64 `json:"failed"`
		Cancelled int64 `json:"cancelled"`
	} `json:"jobs"`

	Cache struct {
		Hits    int64   `json:"hits"`
		Misses  int64   `json:"misses"`
		HitRate float64 `json:"hit_rate"`
		Entries int     `json:"entries"`
	} `json:"cache"`

	Latency struct {
		SolveP50S     float64 `json:"solve_p50_s"`
		SolveP95S     float64 `json:"solve_p95_s"`
		SolveP99S     float64 `json:"solve_p99_s"`
		QueueWaitP50S float64 `json:"queue_wait_p50_s"`
		QueueWaitP99S float64 `json:"queue_wait_p99_s"`
	} `json:"latency"`

	SLO *struct {
		TargetMS int64   `json:"target_ms"`
		Within   int64   `json:"within"`
		Breached int64   `json:"breached"`
		BurnRate float64 `json:"burn_rate"` // breached / (within+breached)
	} `json:"slo,omitempty"`

	Recent []opsJob `json:"recent"`
}

// opsJob is one row of the recent-job table.
type opsJob struct {
	ID        string  `json:"id"`
	Status    Status  `json:"status"`
	Cache     string  `json:"cache"`
	Circuit   string  `json:"circuit"`
	K         int     `json:"k"`
	DurationS float64 `json:"duration_s,omitempty"`
	Error     string  `json:"error,omitempty"`
}

// opsRecentJobs bounds the recent table (and the text waterfall count).
const opsRecentJobs = 10

func (s *Server) opsSnapshot() opsBody {
	m := s.m
	var body opsBody
	body.UptimeS = time.Since(s.started).Seconds()
	body.Draining = s.Draining()
	body.Workers = s.cfg.Workers
	body.QueueDepth = len(s.queue)
	body.QueueCap = s.cfg.QueueDepth
	body.Inflight = int64(m.inflight.Value())
	body.Jobs.Submitted = m.submitted.Value()
	body.Jobs.Completed = m.completed.Value()
	body.Jobs.Failed = m.failed.Value()
	body.Jobs.Cancelled = m.cancelled.Value()
	body.Cache.Hits = m.cacheHits.Value()
	body.Cache.Misses = m.cacheMisses.Value()
	body.Cache.Entries = s.cache.len()
	if total := body.Cache.Hits + body.Cache.Misses; total > 0 {
		body.Cache.HitRate = float64(body.Cache.Hits) / float64(total)
	}
	body.Latency.SolveP50S = m.jobSeconds.Quantile(0.50)
	body.Latency.SolveP95S = m.jobSeconds.Quantile(0.95)
	body.Latency.SolveP99S = m.jobSeconds.Quantile(0.99)
	body.Latency.QueueWaitP50S = m.queueWait.Quantile(0.50)
	body.Latency.QueueWaitP99S = m.queueWait.Quantile(0.99)
	if s.cfg.SLOSolve > 0 {
		slo := &struct {
			TargetMS int64   `json:"target_ms"`
			Within   int64   `json:"within"`
			Breached int64   `json:"breached"`
			BurnRate float64 `json:"burn_rate"`
		}{TargetMS: s.cfg.SLOSolve.Milliseconds(),
			Within: m.sloWithin.Value(), Breached: m.sloBreached.Value()}
		if total := slo.Within + slo.Breached; total > 0 {
			slo.BurnRate = float64(slo.Breached) / float64(total)
		}
		body.SLO = slo
	}
	for _, j := range s.recentJobs(opsRecentJobs) {
		status, hit, errMsg, _, _, _, started, finished := j.snapshot()
		cache := "miss"
		if hit {
			cache = "hit"
		}
		row := opsJob{ID: j.id, Status: status, Cache: cache,
			Circuit: j.circuitName, K: j.k, Error: errMsg}
		if !started.IsZero() && !finished.IsZero() {
			row.DurationS = finished.Sub(started).Seconds()
		}
		body.Recent = append(body.Recent, row)
	}
	return body
}

// recentJobs returns up to n jobs, newest first.
func (s *Server) recentJobs(n int) []*job {
	jobs := s.store.list()
	out := make([]*job, 0, n)
	for i := len(jobs) - 1; i >= 0 && len(out) < n; i-- {
		out = append(out, jobs[i])
	}
	return out
}

// writeOpsText renders the ops snapshot as a plain-text console: the
// headline numbers plus a span waterfall per recent job.
func (s *Server) writeOpsText(w io.Writer) {
	b := s.opsSnapshot()
	fmt.Fprintf(w, "gpp-serve ops — uptime %.0fs, %d workers, queue %d/%d, %d in flight\n",
		b.UptimeS, b.Workers, b.QueueDepth, b.QueueCap, b.Inflight)
	fmt.Fprintf(w, "jobs: %d submitted, %d completed, %d failed, %d cancelled\n",
		b.Jobs.Submitted, b.Jobs.Completed, b.Jobs.Failed, b.Jobs.Cancelled)
	fmt.Fprintf(w, "cache: %d hits / %d misses (%.0f%% hit rate), %d entries\n",
		b.Cache.Hits, b.Cache.Misses, b.Cache.HitRate*100, b.Cache.Entries)
	fmt.Fprintf(w, "latency: solve p50 %.3fs p95 %.3fs p99 %.3fs; queue wait p50 %.4fs p99 %.4fs\n",
		b.Latency.SolveP50S, b.Latency.SolveP95S, b.Latency.SolveP99S,
		b.Latency.QueueWaitP50S, b.Latency.QueueWaitP99S)
	if b.SLO != nil {
		fmt.Fprintf(w, "slo: %dms target, %d within, %d breached (burn %.1f%%)\n",
			b.SLO.TargetMS, b.SLO.Within, b.SLO.Breached, b.SLO.BurnRate*100)
	}
	for _, j := range s.recentJobs(opsRecentJobs) {
		status, _, _, _, _, _, _, _ := j.snapshot()
		fmt.Fprintf(w, "\njob %s (%s, %s k=%d):\n", j.id, status, j.circuitName, j.k)
		j.profileWaterfall(w)
	}
}
