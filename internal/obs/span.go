package obs

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span tracing: hierarchical, request-scoped timing built on the same
// event stream as the solver trace. A Trace owns one tree of spans; each
// span records its name, a deterministic ordinal id, its parent's id, an
// append-ordered key=value attribute list, and (on timed traces) its
// start offset and duration from one monotonic clock reading per edge.
// Ending a span emits exactly one KindSpan event into the trace's sink,
// so spans interleave with solver events in JSONL traces, SSE streams,
// and flight recorders without a second transport.
//
// The design constraints mirror the rest of the package:
//
//  1. The disabled path costs nothing. A nil *Trace hands out nil *Spans,
//     and every method on a nil Trace or Span returns immediately without
//     allocating — callers never guard (see TestSpanNilPathAllocFree).
//  2. Span trees are deterministic modulo time. Ids are assigned in Start
//     order, attributes in append order, and the default (untimed) trace
//     omits at_us/dur_us entirely — two traces of bit-identical solves
//     diff clean byte-for-byte at every Workers count. Timed() opts into
//     wall durations for production services.
//  3. Emission happens once, at End. Unended spans are never emitted
//     (they vanish with the trace), and End is idempotent.

// Trace manages one tree of spans feeding a Tracer sink. The zero of the
// type is not used; NewTrace(nil) returns nil, which is the disabled
// trace — every derived span is nil and free.
type Trace struct {
	sink   Tracer
	t0     time.Time
	timed  bool
	nextID atomic.Int64
}

// NewTrace returns a trace emitting span events into sink, untimed (the
// deterministic configuration: no at_us/dur_us fields). A nil sink means
// tracing is off and the returned trace is nil.
func NewTrace(sink Tracer) *Trace {
	if sink == nil {
		return nil
	}
	return &Trace{sink: sink}
}

// Timed stamps every span with its start offset and duration in
// microseconds, measured against one monotonic clock anchored here.
// Returns the trace for chaining; a nil receiver stays nil.
func (t *Trace) Timed() *Trace {
	if t != nil {
		t.timed = true
		t.t0 = time.Now()
	}
	return t
}

// Root starts a top-level span (parent id 0). Nil-safe.
func (t *Trace) Root(name string) *Span { return t.start(name, 0) }

func (t *Trace) start(name string, parent int64) *Span {
	if t == nil {
		return nil
	}
	sp := &Span{tr: t, id: t.nextID.Add(1), psid: parent, name: name}
	if t.timed {
		sp.start = time.Since(t.t0)
	}
	return sp
}

// Span is one node of a trace's span tree. All methods are nil-safe: a
// nil span (from a nil trace) is the disabled path and does nothing.
// A span may be ended on a different goroutine than it was started on
// (the serve queue-wait span crosses the submit→worker handoff); Attr
// and End serialize on the span's own mutex.
type Span struct {
	tr    *Trace
	id    int64
	psid  int64
	name  string
	start time.Duration

	mu    sync.Mutex
	attrs []byte
	ended bool
}

// Child starts a sub-span. Nil-safe: a nil receiver returns nil, so whole
// instrumentation chains hang off one conditional at the top.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tr.start(name, s.id)
}

// Attr appends a key=value attribute. Attributes are encoded in append
// order as one space-separated string, so a fixed call order keeps the
// encoding deterministic. No-op after End, and on nil spans.
func (s *Span) Attr(key, val string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.attrs = appendAttrKey(s.attrs, key)
		s.attrs = append(s.attrs, val...)
	}
	s.mu.Unlock()
}

// AttrInt appends an integer attribute.
func (s *Span) AttrInt(key string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.attrs = appendAttrKey(s.attrs, key)
		s.attrs = strconv.AppendInt(s.attrs, v, 10)
	}
	s.mu.Unlock()
}

// AttrFloat appends a float attribute in the shortest form that round-trips
// ('g' format), so equal values encode to equal bytes.
func (s *Span) AttrFloat(key string, v float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.attrs = appendAttrKey(s.attrs, key)
		s.attrs = strconv.AppendFloat(s.attrs, v, 'g', -1, 64)
	}
	s.mu.Unlock()
}

func appendAttrKey(b []byte, key string) []byte {
	if len(b) > 0 {
		b = append(b, ' ')
	}
	b = append(b, key...)
	return append(b, '=')
}

// End closes the span and emits its KindSpan event. Idempotent: only the
// first End emits; later calls (including a deferred End after an
// explicit one) do nothing.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	e := Event{Kind: KindSpan, Span: s.name, SID: s.id, PSID: s.psid, Attrs: string(s.attrs)}
	s.mu.Unlock()
	if s.tr.timed {
		now := time.Since(s.tr.t0)
		e.AtUS = s.start.Microseconds()
		e.DurUS = (now - s.start).Microseconds()
	}
	s.tr.sink.Emit(e)
}

// FlightRecorder is a bounded in-memory Tracer: a log of the most recent
// events. The serve daemon keeps one per job, so every job — including
// one that failed or was cancelled — carries a retrievable post-mortem of
// its recent spans and solver events, with memory bounded regardless of
// solve length. Storage is allocated on the first Emit and grows with
// what is recorded, never past the capacity; a full recorder becomes a
// ring that overwrites its oldest event in place.
type FlightRecorder struct {
	mu      sync.Mutex
	size    int     // capacity: the most events retained
	buf     []Event // grows by append to size, then wraps
	next    int     // oldest slot once buf is full (the next overwrite)
	dropped int64
}

// DefaultFlightRecorderCap is the capacity NewFlightRecorder uses for
// capacity ≤ 0: enough for a full job lifecycle (spans, lifecycle events,
// throttled iteration samples) without unbounded growth.
const DefaultFlightRecorderCap = 256

// minFlightGrow is the first allocation: a cache-hit job records four
// events, and a cold one grows from here by doubling.
const minFlightGrow = 4

// NewFlightRecorder returns a recorder keeping the last capacity events
// (capacity ≤ 0 means DefaultFlightRecorderCap). It allocates no event
// storage until the first Emit.
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightRecorderCap
	}
	return &FlightRecorder{size: capacity}
}

// Emit records the event, evicting the oldest when the recorder is full.
// Below capacity the storage doubles when it runs out (capped at the
// capacity); at capacity an Emit allocates nothing.
func (r *FlightRecorder) Emit(e Event) {
	r.mu.Lock()
	switch n := len(r.buf); {
	case n == r.size:
		r.buf[r.next] = e
		if r.next++; r.next == r.size {
			r.next = 0
		}
		r.dropped++
	case n == cap(r.buf):
		grown := make([]Event, n, min(max(2*n, minFlightGrow), r.size))
		copy(grown, r.buf)
		r.buf = append(grown, e)
	default:
		r.buf = append(r.buf, e)
	}
	r.mu.Unlock()
}

// Trim copies a log that is not full to storage of its exact length, so a
// finished log keeps no slots its doubling left spare. A full log has
// wrapped and is exact already; it keeps its storage. A later Emit grows
// the log again.
func (r *FlightRecorder) Trim() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) < cap(r.buf) {
		exact := make([]Event, len(r.buf))
		copy(exact, r.buf)
		r.buf = exact
	}
}

// Snapshot returns the retained events oldest-first plus how many older
// events the recorder has evicted.
func (r *FlightRecorder) Snapshot() (events []Event, dropped int64) {
	return r.Last(r.size)
}

// Last returns the newest n retained events oldest-first, plus how many
// recorded events precede them — evicted, or retained but older than the
// n returned.
func (r *FlightRecorder) Last(n int) (events []Event, dropped int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	held := len(r.buf)
	n = max(min(n, held), 0)
	events = make([]Event, 0, n)
	// Logical index i (0 = oldest retained) lives in slot (next+i) mod
	// held; next is 0 until the recorder first wraps.
	for i := held - n; i < held; i++ {
		events = append(events, r.buf[(r.next+i)%held])
	}
	return events, r.dropped + int64(held-n)
}

// Slots reports how many events the recorder's storage holds before it
// next grows: its memory footprint in events, at most the capacity.
func (r *FlightRecorder) Slots() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return cap(r.buf)
}

// Len reports how many events the recorder currently retains.
func (r *FlightRecorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}
