package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
)

// JSONL writes one JSON object per event line. The encoder is hand-rolled:
// fields appear in a fixed order per Kind and floats use the shortest
// round-trip representation, so traces of bit-identical solver runs are
// byte-identical.
//
// The sink latches its first write error and drops everything after it;
// Err/Close report that error so the solver can surface it exactly once.
type JSONL struct {
	mu  sync.Mutex
	w   *bufio.Writer
	buf []byte
	err error
}

// NewJSONL returns a sink writing to w.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{w: bufio.NewWriterSize(w, 1<<16)}
}

// Emit encodes and writes one event. After the first write error the sink
// goes quiet; the error is reported by Err and Close.
func (j *JSONL) Emit(e Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	j.buf = appendEvent(j.buf[:0], e)
	if _, err := j.w.Write(j.buf); err != nil {
		j.err = fmt.Errorf("obs: jsonl write: %w", err)
	}
}

// Err returns the latched write error, if any.
func (j *JSONL) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Close flushes the sink and returns the first error seen (write or
// flush). It does not close the underlying writer.
func (j *JSONL) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.w.Flush(); err != nil && j.err == nil {
		j.err = fmt.Errorf("obs: jsonl flush: %w", err)
	}
	return j.err
}

// AppendEvent appends the one-line JSON encoding of e (including the
// trailing newline) to b — the same deterministic encoding the JSONL sink
// writes. The serve subsystem uses it to frame SSE progress payloads so a
// streamed trace diffs clean against a file trace of the same solve.
func AppendEvent(b []byte, e Event) []byte { return appendEvent(b, e) }

// appendEvent encodes e as one JSON line into b. Only the fields
// meaningful for e.Kind are written, always in the same order; unknown
// kinds fall back to encoding/json over the whole struct.
func appendEvent(b []byte, e Event) []byte {
	b = append(b, `{"ev":"`...)
	b = append(b, e.Kind...)
	b = append(b, '"')
	switch e.Kind {
	case KindSolveStart:
		b = appendInt(b, "seed", e.Seed)
		b = appendInt(b, "k", int64(e.K))
		b = appendInt(b, "gates", int64(e.Gates))
		b = appendInt(b, "edges", int64(e.Edges))
	case KindPool:
		b = appendInt(b, "gate_shards", int64(e.GateShards))
		b = appendInt(b, "edge_shards", int64(e.EdgeShards))
	case KindIter:
		b = appendInt(b, "iter", int64(e.Iter))
		b = appendFloat(b, "f", e.F)
		b = appendFloat(b, "f1", e.F1)
		b = appendFloat(b, "f2", e.F2)
		b = appendFloat(b, "f3", e.F3)
		b = appendFloat(b, "f4", e.F4)
		b = appendFloat(b, "grad_norm", e.GradN)
		b = appendFloat(b, "step", e.Step)
		b = appendInt(b, "clamped", int64(e.Clamped))
	case KindSnap:
		b = appendFloat(b, "f_discrete", e.FDiscrete)
	case KindRefine:
		b = appendInt(b, "pass", int64(e.Pass))
		b = appendInt(b, "moves", int64(e.Moves))
	case KindSolveDone:
		b = appendInt(b, "iters", int64(e.Iters))
		b = appendBool(b, "converged", e.Converged)
		b = appendFloat(b, "f_relaxed", e.FRelaxed)
		b = appendFloat(b, "f_discrete", e.FDiscrete)
		b = appendFloat(b, "step", e.Step)
		b = appendInt(b, "refine_moves", int64(e.RefineMoves))
	case KindRestartStart, KindRestartSkipped:
		b = appendInt(b, "restart", int64(e.Restart))
		b = appendInt(b, "seed", e.Seed)
	case KindRestartDone:
		b = appendInt(b, "restart", int64(e.Restart))
		b = appendInt(b, "seed", e.Seed)
		b = appendInt(b, "iters", int64(e.Iters))
		b = appendBool(b, "converged", e.Converged)
		b = appendFloat(b, "f_discrete", e.FDiscrete)
	case KindWinner:
		b = appendInt(b, "seed", e.Seed)
		b = appendInt(b, "restarts", int64(e.Restarts))
		b = appendFloat(b, "f_discrete", e.FDiscrete)
	case KindExperiment:
		b = appendString(b, "circuit", e.Circuit)
		b = appendInt(b, "k", int64(e.K))
		b = appendInt(b, "gates", int64(e.Gates))
		b = appendInt(b, "edges", int64(e.Edges))
	case KindVCycleStart:
		b = appendInt(b, "seed", e.Seed)
		b = appendInt(b, "k", int64(e.K))
		b = appendInt(b, "gates", int64(e.Gates))
		b = appendInt(b, "edges", int64(e.Edges))
		b = appendInt(b, "levels", int64(e.Levels))
	case KindCoarsen:
		b = appendInt(b, "level", int64(e.Level))
		b = appendInt(b, "gates", int64(e.Gates))
		b = appendInt(b, "edges", int64(e.Edges))
	case KindProject:
		b = appendInt(b, "level", int64(e.Level))
		b = appendInt(b, "gates", int64(e.Gates))
	case KindVCycleDone:
		b = appendInt(b, "levels", int64(e.Levels))
		b = appendInt(b, "iters", int64(e.Iters))
		b = appendBool(b, "converged", e.Converged)
		b = appendInt(b, "refine_moves", int64(e.RefineMoves))
		b = appendFloat(b, "f_discrete", e.FDiscrete)
	case KindSimWave:
		b = appendString(b, "circuit", e.Circuit)
		b = appendInt(b, "pulses", int64(e.Pulses))
	case KindSimActivity:
		b = appendString(b, "circuit", e.Circuit)
		b = appendInt(b, "waves", int64(e.Waves))
		b = appendFloat(b, "activity", e.Activity)
	case KindSpan:
		b = appendString(b, "span", e.Span)
		b = appendInt(b, "sid", e.SID)
		b = appendInt(b, "psid", e.PSID)
		// Timing fields only on timed traces: untimed span streams stay
		// byte-identical across runs and worker counts.
		if e.AtUS != 0 || e.DurUS != 0 {
			b = appendInt(b, "at_us", e.AtUS)
			b = appendInt(b, "dur_us", e.DurUS)
		}
		if e.Attrs != "" {
			b = appendString(b, "attrs", e.Attrs)
		}
	default:
		// Unknown kind: re-encode the whole struct (allocates; only hit by
		// foreign event kinds, never by the solver's own).
		raw, err := json.Marshal(e)
		if err == nil {
			return append(b[:0], append(raw, '\n')...)
		}
	}
	return append(b, "}\n"...)
}

func appendInt(b []byte, key string, v int64) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return strconv.AppendInt(b, v, 10)
}

func appendBool(b []byte, key string, v bool) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return strconv.AppendBool(b, v)
}

func appendFloat(b []byte, key string, v float64) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	if math.IsNaN(v) || math.IsInf(v, 0) {
		// JSON has no NaN/Inf; null decodes as "field absent".
		return append(b, "null"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

func appendString(b []byte, key, v string) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	q, _ := json.Marshal(v)
	return append(b, q...)
}

// ReadTrace decodes a JSONL trace back into events. Blank lines are
// skipped; a malformed line fails with its line number.
func ReadTrace(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var events []Event
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(raw, &e); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading trace: %w", err)
	}
	return events, nil
}
