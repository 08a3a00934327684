// Command gpp-serve runs the partition daemon: an HTTP/JSON service that
// accepts partition jobs, solves them on a bounded worker pool, and
// answers repeated requests from a content-addressed result cache.
//
// Usage:
//
//	gpp-serve -addr :8399
//	gpp-serve -addr :8399 -workers 4 -queue 128 -cache 512
//
// Submit a job and read it back:
//
//	curl -s localhost:8399/v1/jobs -d '{"circuit":"KSA8","k":5}'
//	curl -s localhost:8399/v1/jobs/<id>
//	curl -s localhost:8399/v1/jobs/<id>/result
//	curl -s localhost:8399/v1/jobs/<id>/assignment
//	curl -Ns localhost:8399/v1/jobs/<id>/events        # SSE progress
//
// The daemon serves /healthz, /metrics (Prometheus text), /debug/vars and
// /debug/pprof from the same listener. SIGTERM/SIGINT starts a graceful
// drain: admissions stop with 503, accepted jobs run to completion (up to
// -drain-timeout), then the process exits.
//
// With -data-dir the daemon is durable: solved results persist to a
// content-addressed blob store in that directory and accepted jobs are
// write-ahead journaled, so a crash or redeploy restarts with the cache
// intact and re-runs unfinished jobs under their original ids.
// -store-max-bytes bounds the blob store (GC at boot, oldest first).
//
// With -peers (or -peers-file) and -advertise the daemon joins a static
// cluster: submissions route to the consistent-hash owner of their cache
// key, local cache misses read through to peers before solving, and idle
// nodes steal queued jobs from busy ones:
//
//	gpp-serve -addr :8400 -advertise http://10.0.0.1:8400 \
//	    -peers http://10.0.0.2:8400,http://10.0.0.3:8400 -data-dir /var/gpp
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gpp/internal/cluster"
	"gpp/internal/serve"
)

// clusterConfig assembles the membership config from the cluster flags,
// or returns nil (single-node) when no peers were named.
func clusterConfig(peers, peersFile, advertise string, readReplicas int,
	heartbeat, stealEvery, stealLease, peerTimeout, backoffMax time.Duration) (*cluster.Config, error) {
	var urls []string
	for _, p := range strings.Split(peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			urls = append(urls, p)
		}
	}
	if peersFile != "" {
		raw, err := os.ReadFile(peersFile)
		if err != nil {
			return nil, fmt.Errorf("-peers-file: %w", err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			urls = append(urls, line)
		}
	}
	if len(urls) == 0 {
		if advertise != "" {
			return nil, fmt.Errorf("-advertise given but no peers (use -peers or -peers-file)")
		}
		return nil, nil
	}
	if advertise == "" {
		return nil, fmt.Errorf("clustering needs -advertise: the URL peers reach this node at")
	}
	return &cluster.Config{
		Self:           advertise,
		Peers:          urls,
		ReadReplicas:   readReplicas,
		HeartbeatEvery: heartbeat,
		StealEvery:     stealEvery,
		StealLease:     stealLease,
		PeerTimeout:    peerTimeout,
		BackoffMax:     backoffMax,
	}, nil
}

func main() {
	addr := flag.String("addr", ":8399", "listen address (host:port; :0 picks a free port)")
	queue := flag.Int("queue", 64, "max jobs waiting in the queue before submissions get 429")
	workers := flag.Int("workers", 0, "jobs solved concurrently (0 = one per CPU)")
	cacheEntries := flag.Int("cache", 256, "content-addressed result cache size in entries (negative disables)")
	maxJobs := flag.Int("max-jobs", 4096, "job registry size; oldest finished jobs are evicted beyond it")
	defaultTimeout := flag.Duration("default-job-time", 2*time.Minute, "per-job deadline when the request sets none")
	maxTimeout := flag.Duration("max-job-time", 10*time.Minute, "cap on any requested per-job deadline")
	progressEvery := flag.Int("progress-every", 25, "stream every Nth solver iteration on /events (1 = all)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain waits for in-flight jobs")
	dataDir := flag.String("data-dir", "", "durable state directory: persists the result cache and write-ahead job journal across restarts (empty = in-memory)")
	storeMax := flag.Int64("store-max-bytes", 0, "blob-store size budget enforced at boot, oldest entries evicted first (0 = unbounded; needs -data-dir)")
	flightRec := flag.Int("flight-recorder", 0, "per-job profile window in events, grown on demand (0 = default 256, negative disables tracing)")
	sloSolve := flag.Duration("slo-solve-ms", 0, "solve-latency SLO; jobs finishing over it count toward gpp_serve_slo_breached_total (0 disables)")
	sseKeepalive := flag.Duration("sse-keepalive", 0, "SSE comment-line heartbeat interval on /events (0 = default 15s, negative disables)")
	peers := flag.String("peers", "", "comma-separated peer base URLs; joining a cluster routes jobs to their consistent-hash owner")
	peersFile := flag.String("peers-file", "", "file of peer base URLs, one per line (# comments); merged with -peers")
	advertise := flag.String("advertise", "", "base URL peers reach this node at (required with -peers/-peers-file)")
	readReplicas := flag.Int("read-replicas", 0, "extra ring successors consulted on peer cache read-through (0 = default 1)")
	heartbeat := flag.Duration("heartbeat", 0, "peer heartbeat interval (0 = default 2s)")
	stealInterval := flag.Duration("steal-interval", 0, "how often an idle node polls busy peers for work (0 = default 1s)")
	stealLease := flag.Duration("steal-lease", 0, "how long a stolen job may run before the owner reclaims it (0 = default 30s)")
	peerTimeout := flag.Duration("peer-timeout", 0, "per-request timeout for peer HTTP calls (0 = default 3s)")
	backoffMax := flag.Duration("peer-backoff-max", 0, "cap on a failing peer's circuit-breaker cooldown — bounds how long a recovered peer stays invisible (0 = default 30s)")
	flag.Parse()

	clusterCfg, err := clusterConfig(*peers, *peersFile, *advertise, *readReplicas,
		*heartbeat, *stealInterval, *stealLease, *peerTimeout, *backoffMax)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpp-serve:", err)
		os.Exit(2)
	}

	srv, err := serve.New(serve.Config{
		QueueDepth:        *queue,
		Workers:           *workers,
		CacheEntries:      *cacheEntries,
		MaxJobs:           *maxJobs,
		DefaultJobTimeout: *defaultTimeout,
		MaxJobTimeout:     *maxTimeout,
		ProgressEvery:     *progressEvery,
		DataDir:           *dataDir,
		StoreMaxBytes:     *storeMax,
		FlightRecorder:    *flightRec,
		SLOSolve:          *sloSolve,
		SSEKeepalive:      *sseKeepalive,
		Cluster:           clusterCfg,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpp-serve:", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	err = srv.Run(ctx, *addr, *drainTimeout, func(bound string) {
		fmt.Fprintf(os.Stderr, "gpp-serve: listening on http://%s (healthz, /v1/jobs, /metrics, /debug/pprof)\n", bound)
	})
	if err != nil && ctx.Err() == nil {
		fmt.Fprintln(os.Stderr, "gpp-serve:", err)
		os.Exit(1)
	}
	if err != nil {
		// Forced drain: the grace period expired and in-flight jobs were
		// cancelled. Report it but exit cleanly — the drain completed.
		fmt.Fprintln(os.Stderr, "gpp-serve: drain timeout expired; in-flight jobs cancelled")
	}
}
