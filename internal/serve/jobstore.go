package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"

	"gpp/internal/multilevel"
	"gpp/internal/obs"
	"gpp/internal/partition"
)

// Status is a job's lifecycle state.
type Status string

const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// terminal reports whether the state can no longer change.
func (s Status) terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// Lifecycle event kinds published on a job's progress stream alongside the
// solver's own obs events. They use the JSONL encoder's generic fallback
// (no dedicated payload fields).
const (
	kindJobQueued    obs.Kind = "job_queued"
	kindJobRunning   obs.Kind = "job_running"
	kindJobCacheHit  obs.Kind = "job_cache_hit"
	kindJobDone      obs.Kind = "job_done"
	kindJobFailed    obs.Kind = "job_failed"
	kindJobCancelled obs.Kind = "job_cancelled"
	kindJobStolen    obs.Kind = "job_stolen"    // handed to an idle peer
	kindJobReclaimed obs.Kind = "job_reclaimed" // thief lease expired; re-enqueued
)

// job is one partition request moving through the daemon. The immutable
// request-derived fields are set before the job is published to the store;
// everything mutable sits behind mu.
type job struct {
	id          string
	ref         *circuitRef // shared and read-only; see circuitMemo
	circuitName string
	key         string
	k           int
	restarts    int
	balanced    *float64            // nil = argmax snapping
	ml          *multilevel.Options // nil = flat solve; normalized V-cycle knobs otherwise
	opts        partition.Options
	plan        bool

	// req is the originating request with the circuit payload cleared
	// (the circuit travels separately) — what a steal grant ships so the
	// thief rebuilds the identical job, cache key included.
	req *JobRequest

	ctx    context.Context
	cancel context.CancelFunc
	broker *broker

	// journaled is set once the job has an accept record in the journal
	// (written at admission, or replayed at boot); finish then writes its
	// terminal record.
	journaled atomic.Bool

	// Per-job tracing (zero when Config.FlightRecorder < 0): how many of
	// the newest events in the broker's log the profile shows, the timed
	// span trace feeding that log, the root "job" span, and the in-flight
	// queue_wait span. spanQueue and enqueued are written by the
	// submitter before the queue send and read by the job's one taker
	// after leaveQueue (see enqueue).
	profileCap int
	trace      *obs.Trace
	span       *obs.Span
	spanQueue  *obs.Span
	enqueued   time.Time

	mu        sync.Mutex
	status    Status
	cacheHit  bool
	err       string
	body      []byte // marshaled result, nil until done
	labels    []int
	submitted time.Time
	started   time.Time
	finished  time.Time

	// finishing is the finish claim: once a cluster exists, a job can
	// have two would-be finishers (a thief's posted result and a local
	// re-solve after lease reclaim), and claimFinish lets exactly one
	// through. lookupCounted plays the same role for the job's one cache
	// hit-or-miss count across a steal + reclaim re-run.
	finishing     bool
	lookupCounted bool

	// inQueue is set while the job waits in the queue channel; see
	// leaveQueue.
	inQueue bool
}

// leaveQueue claims a queued job for its one taker: the worker or steal
// handler that received it, or cancelJob finishing it where it waits. It
// reports true once per enqueue, and never for a job whose finish is
// already claimed, so a taker that gets false leaves the job alone.
func (j *job) leaveQueue() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	took := j.inQueue && !j.finishing && !j.status.terminal()
	j.inQueue = false
	return took
}

// claimFinish atomically claims the right to finish this job; exactly one
// caller wins over the job's lifetime. Every terminal transition after
// admission must go through it.
func (j *job) claimFinish() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.finishing || j.status.terminal() {
		return false
	}
	j.finishing = true
	return true
}

// countLookup claims the job's single cache hit-or-miss count; the first
// caller gets true.
func (j *job) countLookup() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.lookupCounted {
		return false
	}
	j.lookupCounted = true
	return true
}

func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("serve: crypto/rand unavailable: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// snapshot returns a consistent copy of the mutable state.
func (j *job) snapshot() (status Status, cacheHit bool, errMsg string, body []byte, labels []int, submitted, started, finished time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status, j.cacheHit, j.err, j.body, j.labels, j.submitted, j.started, j.finished
}

func (j *job) setRunning() {
	j.mu.Lock()
	j.status = StatusRunning
	j.started = time.Now()
	j.mu.Unlock()
	j.broker.publish(obs.Event{Kind: kindJobRunning})
}

// finishOK publishes the result and closes the progress stream. The root
// span ends first, so a finished job's profile always contains it.
func (j *job) finishOK(body []byte, labels []int, fromCache bool) {
	j.mu.Lock()
	j.status = StatusDone
	j.cacheHit = fromCache
	j.body = body
	j.labels = labels
	j.finished = time.Now()
	j.mu.Unlock()
	j.endRootSpan(StatusDone, fromCache)
	if fromCache {
		j.broker.publish(obs.Event{Kind: kindJobCacheHit})
	}
	j.broker.publish(obs.Event{Kind: kindJobDone})
	j.broker.close()
}

// finishErr records a failure (or cancellation) and closes the stream.
func (j *job) finishErr(status Status, err error) {
	j.mu.Lock()
	j.status = status
	j.err = err.Error()
	j.finished = time.Now()
	j.mu.Unlock()
	j.endRootSpan(status, false)
	kind := kindJobFailed
	if status == StatusCancelled {
		kind = kindJobCancelled
	}
	j.broker.publish(obs.Event{Kind: kind})
	j.broker.close()
}

// broker is a job's (or a sweep's) one event log plus the SSE subscribers
// following it live. Every event is stored once, in log, which grows with
// what is recorded up to its capacity and then drops its oldest events;
// it backs the SSE replay and, for a job, the profile, the ops waterfalls
// and the terminal journal record. Close seals the log and trims it to
// its exact length: a finished job's profile is final, and events a
// losing finisher publishes afterwards (a cluster steal race) are
// dropped. Publishes never block the solver: each subscriber has a
// buffered channel and slow consumers drop events (the replay and the
// terminal status frame still give them a complete picture).
type broker struct {
	log *obs.FlightRecorder

	mu     sync.Mutex
	subs   map[chan obs.Event]struct{} // nil until the first subscriber
	closed bool
}

// histCap is the replay depth and the smallest log capacity. With the
// default iter throttle a 4000-iteration solve publishes ~170 events, so
// the cap is headroom, not a working limit; past it the oldest events
// roll off.
const histCap = 1024

// subBuf is each subscriber's channel depth.
const subBuf = 256

// newBroker returns a broker whose log holds the newest
// max(capacity, histCap) events; a job passes its profile window
// (Config.FlightRecorder), so one log serves the replay and the profile.
func newBroker(capacity int) *broker {
	return &broker{log: obs.NewFlightRecorder(max(capacity, histCap))}
}

func (b *broker) publish(e obs.Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.log.Emit(e)
	for ch := range b.subs {
		select {
		case ch <- e:
		default: // slow consumer: drop rather than stall the solve
		}
	}
}

// subscribe returns the newest histCap events so far plus a live channel.
// The channel is closed when the job finishes; if it already has, the
// returned channel is closed immediately and the replay is complete.
// cancel detaches early.
func (b *broker) subscribe() (replay []obs.Event, ch chan obs.Event, cancel func()) {
	b.mu.Lock()
	defer b.mu.Unlock()
	replay, _ = b.log.Last(histCap)
	ch = make(chan obs.Event, subBuf)
	if b.closed {
		close(ch)
		return replay, ch, func() {}
	}
	if b.subs == nil {
		b.subs = make(map[chan obs.Event]struct{})
	}
	b.subs[ch] = struct{}{}
	return replay, ch, func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		if _, ok := b.subs[ch]; ok {
			delete(b.subs, ch)
			close(ch)
		}
	}
}

func (b *broker) close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	b.log.Trim()
	for ch := range b.subs {
		close(ch)
		delete(b.subs, ch)
	}
}

// jobStore is the job registry: id → job plus submission order, bounded
// by evicting the oldest finished job when full.
type jobStore struct {
	mu    sync.Mutex
	max   int
	jobs  map[string]*job
	order []string
}

func newJobStore(max int) *jobStore {
	return &jobStore{max: max, jobs: make(map[string]*job)}
}

func (s *jobStore) add(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.order) >= s.max {
		for i, id := range s.order {
			old := s.jobs[id]
			st, _, _, _, _, _, _, _ := old.snapshot()
			if st.terminal() {
				delete(s.jobs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
		// If nothing was evictable (every job live — impossible beyond
		// queue depth + workers in practice) the registry grows past max
		// rather than dropping a live job.
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
}

// remove deletes a job that never entered the queue (submission rejected).
func (s *jobStore) remove(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.jobs[id]; !ok {
		return
	}
	delete(s.jobs, id)
	for i, o := range s.order {
		if o == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

func (s *jobStore) get(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// list returns the jobs in submission order.
func (s *jobStore) list() []*job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

func (s *jobStore) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs)
}
