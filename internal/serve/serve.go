// Package serve is the partition-as-a-service subsystem: a stdlib-only
// HTTP/JSON daemon that accepts partition jobs (circuit by DEF upload,
// named benchmark, or prior-job reference), runs them on a bounded worker
// pool, and answers repeated requests from a content-addressed result
// cache so identical (circuit, options, K) solves never recompute.
//
// The moving parts, and the contracts the tests pin down:
//
//   - One job pipeline. HTTP submits, sweep cells and journal recovery
//     enter through one admission function (admit), workers and cluster
//     thieves answer a job through one resolve (memory, disk and peer
//     cache tiers, then a solve whose result is kept), and every terminal
//     transition goes through one finish, which books exactly one outcome
//     per admitted job and one terminal journal record per accept record.
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
//     whose timeout starts at submission (queue wait counts).
//     DELETE /v1/jobs/{id} finishes a queued job cancelled at once (a
//     worker that later dequeues it skips it) and cancels a running
//     one's context; the solver stops within one gradient iteration
//     (partition.SolveCtx).
//   - One event log per job. Spans, lifecycle and throttled solver
//     events are stored once, in an obs.FlightRecorder that grows with
//     what the job records (a cache hit holds 4 events) up to
//     max(1024, Config.FlightRecorder). It serves the SSE replay of
//     GET /v1/jobs/{id}/events (then live frames encoded with the
//     deterministic obs JSONL encoder), the job profile, the ops
//     waterfalls and the terminal journal record; the job's broker
//     keeps only the live subscribers.
//   - Graceful shutdown. Shutdown stops admissions, closes the queue, and
//     drains: every accepted job still runs to completion and keeps its
//     response. Only when the shutdown context expires are in-flight
//     solves cancelled.
//   - Optional durability. With Config.DataDir set, solved results
//     persist to a content-addressed blob store and accepted jobs are
//     write-ahead journaled (internal/store): a restarted daemon serves
//     its old cache byte-identical from disk and re-enqueues
//     accepted-but-unfinished jobs under their original ids.
//   - Per-server metrics. Each Server registers its gpp_serve_* and
//     gpp_cluster_* instruments on its own obs.Registry; /metrics writes
//     them ahead of the process registry, and /v1/debug/ops and the
//     Retry-After estimate read the same instruments.
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

	// FlightRecorder sizes each job's profile: the newest events (spans,
	// lifecycle and throttled solver events) of the job's event log
	// served by GET /v1/jobs/{id}/profile and persisted with the terminal
	// journal record. The log grows on demand up to max(1024, this), so
	// the size reserves nothing up front. 0 means the default
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

// serverMetrics is one Server's instruments, on the Server's own
// obs.Registry, so every number describes exactly one daemon since its
// boot even with many servers in one process; /metrics follows them with
// the process registry (solver, pool, store and cluster membership).
type serverMetrics struct {
	// Every admitted job counts once in submitted and reaches exactly one
	// of completed, failed or cancelled.
	submitted, completed, failed, cancelled *obs.Counter
	cacheHits, cacheMisses, rejected        *obs.Counter
	sloWithin, sloBreached                  *obs.Counter
	queueDepth, inflight                    *obs.Gauge
	jobSeconds, queueWait                   *obs.Histogram

	cachePersisted, cacheDiskHits, jobsRecovered *obs.Counter
	memoHits, memoMisses                         *obs.Counter

	forwarded, peerCacheHits, stealGrants, steals *obs.Counter
	stealCompletesOut, stealCompletesIn, reclaims *obs.Counter
}

func newServerMetrics(r *obs.Registry) *serverMetrics {
	return &serverMetrics{
		submitted: r.Counter("gpp_serve_jobs_submitted_total",
			"partition jobs accepted (cache hits included)"),
		completed: r.Counter("gpp_serve_jobs_completed_total",
			"jobs that finished with a result (cache hits included)"),
		failed: r.Counter("gpp_serve_jobs_failed_total",
			"jobs that ended in an error (deadline exceeded included)"),
		cancelled: r.Counter("gpp_serve_jobs_cancelled_total",
			"jobs cancelled by the client or a forced shutdown"),
		cacheHits: r.Counter("gpp_serve_cache_hits_total",
			"submissions answered from the content-addressed result cache"),
		cacheMisses: r.Counter("gpp_serve_cache_misses_total",
			"jobs that reached a worker with no cached result (counted at resolution, not submission)"),
		rejected: r.Counter("gpp_serve_queue_rejected_total",
			"submissions rejected with 429 because the queue was full"),
		sloWithin: r.Counter("gpp_serve_slo_within_total",
			"cold solves that finished within the configured solve SLO"),
		sloBreached: r.Counter("gpp_serve_slo_breached_total",
			"cold solves that exceeded the configured solve SLO"),
		queueDepth: r.Gauge("gpp_serve_queue_depth",
			"jobs waiting in the queue"),
		inflight: r.Gauge("gpp_serve_jobs_inflight",
			"jobs currently solving"),
		jobSeconds: r.Histogram("gpp_serve_job_seconds",
			obs.LogBuckets(0.001, 600, 3),
			"wall time of completed solves (cache hits excluded)"),
		queueWait: r.Histogram("gpp_serve_queue_wait_seconds",
			obs.LogBuckets(0.0001, 60, 3),
			"time jobs spent queued before a worker picked them up"),

		cachePersisted: r.Counter("gpp_serve_cache_persisted_total",
			"result-cache entries written to the blob store"),
		cacheDiskHits: r.Counter("gpp_serve_cache_disk_hits_total",
			"cache lookups answered from the blob store after an LRU miss"),
		jobsRecovered: r.Counter("gpp_serve_jobs_recovered_total",
			"journaled unfinished jobs re-enqueued at boot"),
		memoHits: r.Counter("gpp_serve_circuit_memo_hits_total",
			"named-circuit lookups answered by the circuit memo without generating"),
		memoMisses: r.Counter("gpp_serve_circuit_memo_misses_total",
			"named-circuit lookups that ran the circuit generator"),

		forwarded: r.Counter("gpp_cluster_jobs_forwarded_total",
			"submissions proxied to the node owning their cache key"),
		peerCacheHits: r.Counter("gpp_cluster_peer_cache_hits_total",
			"jobs answered from a peer's result cache via read-through"),
		stealGrants: r.Counter("gpp_cluster_steal_grants_total",
			"queued jobs handed to an idle peer"),
		steals: r.Counter("gpp_cluster_steals_total",
			"jobs this node stole from busy peers"),
		stealCompletesOut: r.Counter("gpp_cluster_steal_completes_sent_total",
			"stolen-job results posted back to owners"),
		stealCompletesIn: r.Counter("gpp_cluster_steal_completes_applied_total",
			"thief results applied to jobs this node owns"),
		reclaims: r.Counter("gpp_cluster_steal_reclaims_total",
			"stolen jobs re-enqueued after their lease expired"),
	}
}
