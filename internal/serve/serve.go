// Package serve is the partition-as-a-service subsystem: a stdlib-only
// HTTP/JSON daemon that accepts partition jobs (circuit by DEF upload,
// named benchmark, or prior-job reference), runs them on a bounded worker
// pool, and answers repeated requests from a content-addressed result
// cache so identical (circuit, options, K) solves never recompute.
//
// The moving parts, and the contracts the tests pin down:
//
//   - Job queue with backpressure. Submissions enter a bounded channel;
//     when it is full the daemon answers 429 with a Retry-After header
//     instead of buffering unboundedly. A draining daemon answers 503.
//   - Content-addressed cache. The key is
//     sha256(canonical circuit bytes ‖ normalized-options fingerprint ‖
//     K ‖ restarts ‖ balanced slack ‖ plan flag); see cacheKey. Cached
//     entries store
//     the marshaled result body, so a cache hit returns bytes identical
//     to the cold solve that produced them — and because the solver is
//     bitwise deterministic at every Options.Workers count and Workers is
//     excluded from the fingerprint, a cold solve at any worker count
//     would produce those same bytes.
//   - Shared circuits. A Table I benchmark is generated once per daemon
//     and every job naming it shares the read-only result, with its
//     content hashes precomputed (circuitMemo, circuitRef), so a cache hit
//     costs admission only.
//   - Per-job deadlines and cancellation. Every job carries a context
//     whose timeout starts at submission (queue wait counts);
//     DELETE /v1/jobs/{id} cancels it, and the solver stops within one
//     gradient iteration (partition.SolveCtx).
//   - Streaming progress. Each job owns an event broker fed by an
//     obs.TracerFunc adapter; GET /v1/jobs/{id}/events replays the
//     history and then streams live solver events as SSE frames encoded
//     with the deterministic obs JSONL encoder.
//   - Graceful shutdown. Shutdown stops admissions, closes the queue, and
//     drains: every accepted job still runs to completion and keeps its
//     response. Only when the shutdown context expires are in-flight
//     solves cancelled.
//   - Optional durability. With Config.DataDir set, solved results
//     persist to a content-addressed blob store and accepted jobs are
//     write-ahead journaled (internal/store): a restarted daemon serves
//     its old cache byte-identical from disk and re-enqueues
//     accepted-but-unfinished jobs under their original ids.
//
// The daemon front-end lives in cmd/gpp-serve; the gpp facade re-exports
// the Config type for embedding the server in other Go programs.
package serve

import (
	"runtime"
	"time"

	"gpp/internal/cellib"
	"gpp/internal/cluster"
	"gpp/internal/obs"
)

// Config sizes the daemon. The zero value is usable: every field has a
// production-sane default filled in by New.
type Config struct {
	// QueueDepth bounds how many accepted-but-not-started jobs the daemon
	// holds; a full queue rejects submissions with 429 + Retry-After.
	// Default 64.
	QueueDepth int

	// Workers is how many jobs solve concurrently. 0 means one per CPU.
	// Kernel parallelism inside each job defaults to serial (a job's
	// options may raise it); cross-job concurrency is the daemon's main
	// parallelism axis.
	Workers int

	// CacheEntries bounds the content-addressed result cache (LRU
	// eviction). Default 256; 0 means the default, negative disables
	// caching.
	CacheEntries int

	// MaxJobs bounds the job registry; beyond it the oldest finished job
	// is evicted. Default 4096.
	MaxJobs int

	// DefaultJobTimeout applies when a request carries no timeout_ms.
	// Default 2m.
	DefaultJobTimeout time.Duration

	// MaxJobTimeout caps any requested timeout. Default 10m.
	MaxJobTimeout time.Duration

	// ProgressEvery forwards every Nth iter event to a job's progress
	// stream (all other event kinds always pass). Default 25; 1 streams
	// every iteration.
	ProgressEvery int

	// Library resolves DEF uploads. Default cellib.Default().
	Library *cellib.Library

	// DataDir, when set, makes the daemon durable: solved results persist
	// to a content-addressed blob store under this directory and every
	// accepted job is write-ahead journaled, so a crashed or redeployed
	// daemon restarts with its cache intact and re-runs unfinished jobs
	// under their original ids. Empty means fully in-memory (the default).
	DataDir string

	// StoreMaxBytes bounds the blob store; at boot (after journal
	// recovery) entries are garbage-collected oldest-first down to this
	// budget. 0 means unbounded. Ignored without DataDir.
	StoreMaxBytes int64

	// FlightRecorder sizes each job's bounded event ring (spans, lifecycle
	// and throttled solver events), served by GET /v1/jobs/{id}/profile
	// and persisted with the terminal journal record. 0 means the default
	// (obs.DefaultFlightRecorderCap); negative disables per-job tracing
	// entirely (the span path then costs nothing).
	FlightRecorder int

	// SLOSolve, when positive, is the solve-latency objective: each cold
	// solve (cache hits excluded) counts toward the within/breached burn
	// counters on /metrics and /v1/debug/ops. 0 disables SLO accounting.
	SLOSolve time.Duration

	// SSEKeepalive is the idle heartbeat interval on /events streams — a
	// comment line that keeps proxies from dropping long solves. 0 means
	// the 15s default; negative disables keepalives.
	SSEKeepalive time.Duration

	// Cluster, when set, makes this daemon a member of a static-membership
	// cluster: submissions route to the node owning their cache key, local
	// cache misses read through to peers before solving, and idle nodes
	// steal queued jobs from busy ones. Nil (the default) is single-node
	// mode; every cluster code path also degrades to single-node behavior
	// when peers are unreachable. See internal/cluster.
	Cluster *cluster.Config
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 4096
	}
	if c.DefaultJobTimeout <= 0 {
		c.DefaultJobTimeout = 2 * time.Minute
	}
	if c.MaxJobTimeout <= 0 {
		c.MaxJobTimeout = 10 * time.Minute
	}
	if c.ProgressEvery <= 0 {
		c.ProgressEvery = 25
	}
	if c.Library == nil {
		c.Library = cellib.Default()
	}
	if c.FlightRecorder == 0 {
		c.FlightRecorder = obs.DefaultFlightRecorderCap
	}
	if c.SSEKeepalive == 0 {
		c.SSEKeepalive = 15 * time.Second
	}
	return c
}

// Serve metrics, registered on the process-wide obs registry like the
// solver and pool counters, so /metrics on the daemon exposes the whole
// stack in one scrape.
var (
	mSubmitted = obs.Default().Counter("gpp_serve_jobs_submitted_total",
		"partition jobs accepted (cache hits included)")
	mCompleted = obs.Default().Counter("gpp_serve_jobs_completed_total",
		"jobs that finished with a result (cache hits included)")
	mFailed = obs.Default().Counter("gpp_serve_jobs_failed_total",
		"jobs that ended in an error (deadline exceeded included)")
	mCancelled = obs.Default().Counter("gpp_serve_jobs_cancelled_total",
		"jobs cancelled by the client or a forced shutdown")
	mCacheHits = obs.Default().Counter("gpp_serve_cache_hits_total",
		"submissions answered from the content-addressed result cache")
	mCacheMisses = obs.Default().Counter("gpp_serve_cache_misses_total",
		"jobs that reached a worker with no cached result (counted at resolution, not submission)")
	mRejected = obs.Default().Counter("gpp_serve_queue_rejected_total",
		"submissions rejected with 429 because the queue was full")
	mQueueDepth = obs.Default().Gauge("gpp_serve_queue_depth",
		"jobs waiting in the queue")
	mInflight = obs.Default().Gauge("gpp_serve_jobs_inflight",
		"jobs currently solving")
	mJobSeconds = obs.Default().Histogram("gpp_serve_job_seconds",
		obs.LogBuckets(0.001, 600, 3),
		"wall time of completed solves (cache hits excluded)")
	mQueueWait = obs.Default().Histogram("gpp_serve_queue_wait_seconds",
		obs.LogBuckets(0.0001, 60, 3),
		"time jobs spent queued before a worker picked them up")
	mSLOWithin = obs.Default().Counter("gpp_serve_slo_within_total",
		"cold solves that finished within the configured solve SLO")
	mSLOBreached = obs.Default().Counter("gpp_serve_slo_breached_total",
		"cold solves that exceeded the configured solve SLO")
)
