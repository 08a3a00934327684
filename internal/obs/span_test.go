package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// emitSpanTree drives a small fixed span tree into a fresh sink and
// returns the JSONL bytes.
func emitSpanTree(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	tr := NewTrace(sink)
	root := tr.Root("job")
	root.Attr("id", "j1")
	lookup := root.Child("cache_lookup")
	lookup.Attr("outcome", "miss")
	lookup.End()
	solve := root.Child("solve")
	desc := solve.Child("descent")
	desc.AttrInt("iters", 42)
	desc.End()
	solve.End()
	root.End()
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSpanTreeEncodingDeterministic(t *testing.T) {
	a := emitSpanTree(t)
	b := emitSpanTree(t)
	if !bytes.Equal(a, b) {
		t.Errorf("untimed span JSONL not byte-identical:\n%s\nvs\n%s", a, b)
	}
	want := `{"ev":"span","span":"cache_lookup","sid":2,"psid":1,"attrs":"outcome=miss"}
{"ev":"span","span":"descent","sid":4,"psid":3,"attrs":"iters=42"}
{"ev":"span","span":"solve","sid":3,"psid":1}
{"ev":"span","span":"job","sid":1,"psid":0,"attrs":"id=j1"}
`
	if string(a) != want {
		t.Errorf("span JSONL:\n%s\nwant:\n%s", a, want)
	}
}

func TestSpanRoundTrip(t *testing.T) {
	raw := emitSpanTree(t)
	events, err := ReadTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	roots := BuildSpanTree(events)
	if len(roots) != 1 {
		t.Fatalf("roots = %d, want 1", len(roots))
	}
	job := roots[0]
	if job.Event.Span != "job" || len(job.Children) != 2 {
		t.Fatalf("root = %q with %d children, want job with 2", job.Event.Span, len(job.Children))
	}
	if job.Children[0].Event.Span != "cache_lookup" || job.Children[1].Event.Span != "solve" {
		t.Errorf("children out of start order: %q, %q", job.Children[0].Event.Span, job.Children[1].Event.Span)
	}
	if got := job.Children[1].Children[0].Event.Span; got != "descent" {
		t.Errorf("grandchild = %q, want descent", got)
	}
	var w bytes.Buffer
	WriteWaterfall(&w, roots)
	for _, needle := range []string{"job", "├─ cache_lookup [outcome=miss]", "└─ solve", "   └─ descent [iters=42]"} {
		if !strings.Contains(w.String(), needle) {
			t.Errorf("waterfall missing %q:\n%s", needle, w.String())
		}
	}
}

func TestSpanTimed(t *testing.T) {
	var buf Buffer
	tr := NewTrace(&buf).Timed()
	root := tr.Root("job")
	child := root.Child("work")
	time.Sleep(2 * time.Millisecond)
	child.End()
	root.End()
	if len(buf.Events) != 2 {
		t.Fatalf("events = %d, want 2", len(buf.Events))
	}
	work, job := buf.Events[0], buf.Events[1]
	if work.DurUS < 1000 {
		t.Errorf("work dur_us = %d, want ≥ 1000", work.DurUS)
	}
	if job.DurUS < work.DurUS {
		t.Errorf("parent dur_us %d < child dur_us %d", job.DurUS, work.DurUS)
	}
	if work.AtUS < job.AtUS {
		t.Errorf("child at_us %d before parent at_us %d", work.AtUS, job.AtUS)
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	var buf Buffer
	tr := NewTrace(&buf)
	s := tr.Root("once")
	s.End()
	s.End()
	s.Attr("late", "x") // after End: dropped
	if len(buf.Events) != 1 {
		t.Fatalf("events = %d, want 1", len(buf.Events))
	}
	if buf.Events[0].Attrs != "" {
		t.Errorf("post-End attr recorded: %q", buf.Events[0].Attrs)
	}
}

// TestSpanNilPathAllocFree pins the disabled-tracing contract: every
// operation on a nil Trace / nil Span is allocation-free.
func TestSpanNilPathAllocFree(t *testing.T) {
	tr := NewTrace(nil)
	if tr != nil {
		t.Fatal("NewTrace(nil) must return nil")
	}
	allocs := testing.AllocsPerRun(100, func() {
		tr2 := tr.Timed()
		root := tr2.Root("job")
		root.Attr("k", "v")
		root.AttrInt("n", 7)
		c := root.Child("child")
		c.AttrInt("i", 1)
		c.End()
		root.End()
	})
	if allocs != 0 {
		t.Errorf("nil-trace span path allocates %.1f/op, want 0", allocs)
	}
}

func TestFlightRecorderRingBound(t *testing.T) {
	const capacity = 8
	r := NewFlightRecorder(capacity)
	for i := 0; i < 3*capacity; i++ {
		r.Emit(Event{Kind: KindIter, Iter: i})
	}
	if got := r.Len(); got != capacity {
		t.Fatalf("Len = %d, want %d", got, capacity)
	}
	events, dropped := r.Snapshot()
	if len(events) != capacity {
		t.Fatalf("snapshot len = %d, want %d", len(events), capacity)
	}
	if dropped != 2*capacity {
		t.Errorf("dropped = %d, want %d", dropped, 2*capacity)
	}
	for i, e := range events {
		if want := 2*capacity + i; e.Iter != want {
			t.Errorf("events[%d].Iter = %d, want %d (oldest-first)", i, e.Iter, want)
		}
	}
}

func TestFlightRecorderDefaultCap(t *testing.T) {
	r := NewFlightRecorder(0)
	for i := 0; i < DefaultFlightRecorderCap+10; i++ {
		r.Emit(Event{Kind: KindIter, Iter: i})
	}
	if got := r.Len(); got != DefaultFlightRecorderCap {
		t.Errorf("Len = %d, want %d", got, DefaultFlightRecorderCap)
	}
}

// eagerRing is the reference recorder: the whole ring allocated up
// front, evicting the oldest event once full.
type eagerRing struct {
	buf     []Event
	next, n int
	dropped int64
}

func (r *eagerRing) emit(e Event) {
	r.buf[r.next] = e
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	} else {
		r.dropped++
	}
}

func (r *eagerRing) snapshot() ([]Event, int64) {
	out := make([]Event, 0, r.n)
	start := (r.next - r.n + len(r.buf)) % len(r.buf)
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out, r.dropped
}

// TestFlightRecorderGrowsOnDemand: a fresh recorder holds no storage, the
// storage never outgrows the capacity, at every checkpoint the recorder
// keeps exactly what an eagerly allocated ring keeps, and once full it
// records without allocating.
func TestFlightRecorderGrowsOnDemand(t *testing.T) {
	for _, capacity := range []int{1, 3, 32, 100, 256, 1000} {
		r := NewFlightRecorder(capacity)
		if r.Slots() != 0 || r.buf != nil {
			t.Fatalf("cap %d: fresh recorder holds %d slots", capacity, r.Slots())
		}
		ref := &eagerRing{buf: make([]Event, capacity)}
		checkpoints := map[int]bool{0: true, 1: true, 2: true, 5: true,
			capacity - 1: true, capacity: true, capacity + 1: true,
			2*capacity - 1: true, 2 * capacity: true, 3 * capacity: true}
		for n := 0; n <= 3*capacity; n++ {
			if n > 0 {
				e := Event{Kind: KindIter, Iter: n, Span: strings.Repeat("s", n%7)}
				r.Emit(e)
				ref.emit(e)
			}
			if got := r.Slots(); got > capacity {
				t.Fatalf("cap %d after %d emits: %d slots", capacity, n, got)
			}
			if !checkpoints[n] {
				continue
			}
			got, gotDropped := r.Snapshot()
			want, wantDropped := ref.snapshot()
			if len(got) != len(want) || gotDropped != wantDropped || r.Len() != len(want) {
				t.Fatalf("cap %d after %d emits: %d events (Len %d) dropped %d, want %d dropped %d",
					capacity, n, len(got), r.Len(), gotDropped, len(want), wantDropped)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("cap %d after %d emits: event %d = %+v, want %+v", capacity, n, i, got[i], want[i])
				}
			}
			for _, k := range []int{0, 1, capacity / 2, capacity, capacity + 5} {
				last, lastDropped := r.Last(k)
				keep := min(k, len(want))
				if len(last) != keep || lastDropped != wantDropped+int64(len(want)-keep) {
					t.Fatalf("cap %d after %d emits: Last(%d) = %d events dropped %d", capacity, n, k, len(last), lastDropped)
				}
				for i := range last {
					if last[i] != want[len(want)-keep+i] {
						t.Fatalf("cap %d after %d emits: Last(%d)[%d] differs", capacity, n, k, i)
					}
				}
			}
		}
		e := Event{Kind: KindSpan, Span: "solve"}
		if allocs := testing.AllocsPerRun(100, func() { r.Emit(e) }); allocs != 0 {
			t.Errorf("cap %d: Emit into a full recorder allocates %.1f", capacity, allocs)
		}
	}
}

// TestFlightRecorderTrim: a trimmed log that is not full holds its events
// in exactly that many slots, a full log keeps its storage, and either
// keeps recording exactly like an eagerly allocated ring.
func TestFlightRecorderTrim(t *testing.T) {
	const capacity = 32
	for _, n := range []int{0, 1, 5, 17, capacity - 1, capacity, capacity + 3} {
		r := NewFlightRecorder(capacity)
		ref := &eagerRing{buf: make([]Event, capacity)}
		emitted := 0
		emit := func(count int) {
			for ; count > 0; count-- {
				e := Event{Kind: KindIter, Iter: emitted}
				r.Emit(e)
				ref.emit(e)
				emitted++
			}
		}
		check := func(stage string) {
			t.Helper()
			got, gotDropped := r.Snapshot()
			want, wantDropped := ref.snapshot()
			if len(got) != len(want) || gotDropped != wantDropped {
				t.Fatalf("%d events, %s: %d retained, %d dropped; want %d, %d",
					n, stage, len(got), gotDropped, len(want), wantDropped)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%d events, %s: event %d = %+v, want %+v", n, stage, i, got[i], want[i])
				}
			}
		}
		emit(n)
		var storage *Event
		if n >= capacity {
			storage = &r.buf[0]
		}
		r.Trim()
		if r.Len() != min(n, capacity) || r.Slots() != r.Len() {
			t.Fatalf("%d events: trimmed log holds %d in %d slots, want %d in as many",
				n, r.Len(), r.Slots(), min(n, capacity))
		}
		if storage != nil && &r.buf[0] != storage {
			t.Errorf("%d events: trimming a full log replaced its storage", n)
		}
		check("trimmed")
		emit(capacity + 2)
		check("recording after the trim")
	}
}

func TestLogBuckets(t *testing.T) {
	b := LogBuckets(0.001, 60, 3)
	if b[0] != 0.001 {
		t.Errorf("first bound = %g, want 0.001", b[0])
	}
	if last := b[len(b)-1]; last < 60 {
		t.Errorf("last bound = %g, want ≥ 60", last)
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not increasing at %d: %g ≤ %g", i, b[i], b[i-1])
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	if h.Quantile(0.5) != 0 {
		t.Errorf("empty quantile = %g, want 0", h.Quantile(0.5))
	}
	// 100 observations uniform in (0, 4]: 25 per bucket of {1,2,4}... use
	// a simple spread: 50 ≤1, 30 ≤2, 20 ≤4.
	for i := 0; i < 50; i++ {
		h.Observe(0.5)
	}
	for i := 0; i < 30; i++ {
		h.Observe(1.5)
	}
	for i := 0; i < 20; i++ {
		h.Observe(3)
	}
	if q := h.Quantile(0.5); q <= 0 || q > 1 {
		t.Errorf("p50 = %g, want in (0, 1]", q)
	}
	if q := h.Quantile(0.95); q <= 2 || q > 4 {
		t.Errorf("p95 = %g, want in (2, 4]", q)
	}
	// Everything beyond the last bound clamps to it.
	h2 := NewHistogram([]float64{1})
	for i := 0; i < 10; i++ {
		h2.Observe(100)
	}
	if q := h2.Quantile(0.99); q != 1 {
		t.Errorf("+Inf-bucket quantile = %g, want clamp to 1", q)
	}
}
