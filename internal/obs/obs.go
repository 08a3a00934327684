// Package obs is the solver telemetry subsystem: a zero-dependency metrics
// registry (counters, gauges, histograms) with Prometheus-style text
// exposition and an expvar bridge, a structured event Tracer with a JSONL
// sink, and a run-manifest writer that makes every solve reproducible from
// its artifacts.
//
// Design constraints, in order of importance:
//
//  1. The disabled path costs nothing. A nil Tracer in partition.Options
//     adds no allocations and no measurable time to the solver's iteration
//     path (guarded by testing.AllocsPerRun in internal/partition and the
//     `make obs-bench` benchmark gate).
//  2. Traces are deterministic. Event payloads are pure functions of the
//     solver state, which is itself bit-identical at every Options.Workers
//     count; the JSONL encoder is hand-rolled with fixed field order and
//     shortest-round-trip floats, so two traces of the same solve diff
//     clean byte-for-byte (timed span traces, which opt in to durations,
//     are the only exception). Concurrent restarts are buffered per seed
//     and replayed in seed order (see partition.SolvePortfolio).
//  3. Sink failures surface exactly once. A sink latches its first write
//     error, stops writing, and the solver returns it through the normal
//     error path instead of silently dropping the trace.
package obs

// Kind identifies the type of a trace Event.
type Kind string

// Event kinds emitted by the instrumented solver stack. The set is a closed
// vocabulary: gpp-inspect's trace summarizer and the JSONL encoder both
// switch on it.
const (
	// KindSolveStart opens one Algorithm-1 run: seed and problem shape.
	// Deliberately no worker count — the trace stream is byte-identical
	// across Workers settings; the run manifest records the environment.
	KindSolveStart Kind = "solve_start"
	// KindPool reports the kernel shard decomposition the run will use
	// (shard counts depend only on the problem size, never on workers).
	KindPool Kind = "pool"
	// KindIter is one gradient iteration: cost breakdown at entry, the
	// gradient norm, step size, and how many W entries the update clamped.
	KindIter Kind = "iter"
	// KindSnap reports the discrete cost right after argmax snapping,
	// before any refinement.
	KindSnap Kind = "snap"
	// KindRefine is one greedy refinement sweep (pass index, moves made).
	KindRefine Kind = "refine"
	// KindSolveDone closes a run: iteration count, convergence flag, final
	// relaxed and discrete costs.
	KindSolveDone Kind = "solve_done"
	// KindRestartStart / KindRestartDone / KindRestartSkipped bracket one
	// seed of a restart portfolio (skipped = cancelled before it ran or
	// failed before producing a result).
	KindRestartStart   Kind = "restart_start"
	KindRestartDone    Kind = "restart_done"
	KindRestartSkipped Kind = "restart_skipped"
	// KindWinner records the portfolio's deterministic winner selection.
	KindWinner Kind = "winner"
	// KindExperiment tags the start of one experiment-suite solve.
	KindExperiment Kind = "experiment"
	// KindVCycleStart opens one multilevel V-cycle: problem shape plus the
	// hierarchy depth the coarsener produced. Like KindSolveStart it never
	// records the worker count — V-cycle traces are byte-identical across
	// Workers settings.
	KindVCycleStart Kind = "vcycle_start"
	// KindCoarsen reports one heavy-edge-matching contraction: the level
	// index it produced and that level's vertex/edge counts.
	KindCoarsen Kind = "coarsen"
	// KindProject reports one uncoarsening step: W projected onto the
	// finer level (by index) ahead of its band-limited gradient refine.
	KindProject Kind = "project"
	// KindVCycleDone closes a V-cycle: total inner iterations, convergence
	// of the coarsest solve, refinement moves, final discrete cost.
	KindVCycleDone Kind = "vcycle_done"
	// KindSimWave / KindSimActivity are pulse-simulator events.
	KindSimWave     Kind = "sim_wave"
	KindSimActivity Kind = "sim_activity"
	// KindSpan closes one hierarchical span (see span.go): name, ordinal
	// span id, parent span id (0 = root), key=value attrs, and — on timed
	// traces only — start offset and duration in microseconds. Untimed
	// span streams are byte-identical for bit-identical runs.
	KindSpan Kind = "span"
)

// Event is the flat superset of every trace payload. Producers fill only
// the fields meaningful for the Kind; the JSONL encoder writes exactly
// those, in a fixed order. Field tags match the encoder's keys so
// encoding/json can decode what the hand-rolled encoder wrote.
type Event struct {
	Kind Kind `json:"ev"`

	Circuit string `json:"circuit,omitempty"`
	Seed    int64  `json:"seed,omitempty"`
	Restart int    `json:"restart,omitempty"`

	K          int `json:"k,omitempty"`
	Gates      int `json:"gates,omitempty"`
	Edges      int `json:"edges,omitempty"`
	GateShards int `json:"gate_shards,omitempty"`
	EdgeShards int `json:"edge_shards,omitempty"`

	Iter    int     `json:"iter,omitempty"`
	F       float64 `json:"f,omitempty"`
	F1      float64 `json:"f1,omitempty"`
	F2      float64 `json:"f2,omitempty"`
	F3      float64 `json:"f3,omitempty"`
	F4      float64 `json:"f4,omitempty"`
	GradN   float64 `json:"grad_norm,omitempty"`
	Step    float64 `json:"step,omitempty"`
	Clamped int     `json:"clamped,omitempty"`

	Iters       int     `json:"iters,omitempty"`
	Converged   bool    `json:"converged,omitempty"`
	FRelaxed    float64 `json:"f_relaxed,omitempty"`
	FDiscrete   float64 `json:"f_discrete,omitempty"`
	Pass        int     `json:"pass,omitempty"`
	Moves       int     `json:"moves,omitempty"`
	RefineMoves int     `json:"refine_moves,omitempty"`
	Restarts    int     `json:"restarts,omitempty"`

	Pulses   int     `json:"pulses,omitempty"`
	Waves    int     `json:"waves,omitempty"`
	Activity float64 `json:"activity,omitempty"`

	// Multilevel V-cycle fields: Level is a 0-based hierarchy level (0 =
	// the original problem), Levels the hierarchy depth including level 0.
	Level  int `json:"level,omitempty"`
	Levels int `json:"levels,omitempty"`

	// Span fields (KindSpan): name, ordinal span id, parent span id (0 =
	// root), space-separated key=value attrs, and on timed traces the
	// start offset / duration in microseconds from the trace's monotonic
	// anchor.
	Span  string `json:"span,omitempty"`
	SID   int64  `json:"sid,omitempty"`
	PSID  int64  `json:"psid,omitempty"`
	AtUS  int64  `json:"at_us,omitempty"`
	DurUS int64  `json:"dur_us,omitempty"`
	Attrs string `json:"attrs,omitempty"`
}

// Tracer receives structured solver events. Implementations must be safe
// for use from a single goroutine at a time per solve; sinks shared across
// concurrent solves (the JSONL sink, for instance) serialize internally.
//
// A Tracer may additionally implement `Err() error` to report a latched
// sink failure; the solver checks it once per solve via SinkErr.
type Tracer interface {
	Emit(Event)
}

// TracerFunc adapts a plain function to the Tracer interface — the
// adapter the serve subsystem uses to fan solver events into a job's
// progress stream without a named type per consumer.
type TracerFunc func(Event)

// Emit calls f(e).
func (f TracerFunc) Emit(e Event) { f(e) }

// nop discards every event. Its Emit inlines to nothing.
type nop struct{}

func (nop) Emit(Event) {}

// Nop returns the no-op Tracer. A nil Tracer in solver options means the
// same thing and is cheaper still (no interface call at all); Nop exists
// for call sites that want a non-nil default.
func Nop() Tracer { return nop{} }

// Buffer is an in-memory Tracer. The restart portfolio hands each
// concurrently racing seed its own Buffer and replays them in seed order,
// which is what keeps multi-restart traces deterministic at every worker
// count.
type Buffer struct {
	Events []Event
}

// Emit appends the event.
func (b *Buffer) Emit(e Event) { b.Events = append(b.Events, e) }

// ReplayTo re-emits every buffered event, in order, into t.
func (b *Buffer) ReplayTo(t Tracer) {
	for _, e := range b.Events {
		t.Emit(e)
	}
}

// SinkErr returns the latched error of a Tracer that reports one (the
// JSONL sink does), or nil for trackers without an error concept — nil
// Tracers included, so callers can check unconditionally.
func SinkErr(t Tracer) error {
	if t == nil {
		return nil
	}
	if e, ok := t.(interface{ Err() error }); ok {
		return e.Err()
	}
	return nil
}
