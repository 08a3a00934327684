package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"

	"gpp/internal/obs"
)

// spanSink keeps a traced run's span events in memory; they are written
// out when the run ends. It collects the benchmark's own spans around each
// call into the program together with the spans the program emits below
// them through its public span hooks.
type spanSink struct {
	mu     sync.Mutex
	events []obs.Event
}

// Emit records span events and drops every other kind.
func (s *spanSink) Emit(e obs.Event) {
	if e.Kind != obs.KindSpan {
		return
	}
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

// adopt records root and grafts under it a span tree recorded by another
// trace (a serve job's flight recorder). Ids are remapped into the block's
// private range so they cannot collide with this trace's own, and start
// offsets are shifted onto this trace's clock at root's start.
func (s *spanSink) adopt(root obs.Event, events []obs.Event, block int64) {
	base := (block + 1) << 32
	root.Kind, root.SID, root.PSID = obs.KindSpan, base, 0
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = append(s.events, root)
	for _, e := range events {
		if e.Kind != obs.KindSpan {
			continue
		}
		e.SID += base
		e.AtUS += root.AtUS
		if e.PSID == 0 {
			e.PSID = base
		} else {
			e.PSID += base
		}
		s.events = append(s.events, e)
	}
}

func (s *spanSink) snapshot() []obs.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]obs.Event(nil), s.events...)
}

// layerOf maps a span name to the internal/ module doing the work. The
// benchmark names its own spans after the entry point it calls; the rest
// are the names the program's span hooks emit.
var layerOf = map[string]string{
	"setup":                   "bench",
	"op":                      "bench",
	"request":                 "bench",
	"gen.Benchmark":           "gen",
	"terms.BuildProblem":      "terms",
	"partition.SolveCtx":      "partition",
	"descent":                 "partition",
	"checkpoint":              "partition",
	"multilevel.PartitionCtx": "multilevel",
	"vcycle":                  "multilevel",
	"coarsen":                 "multilevel",
	"level":                   "multilevel",
	"project":                 "multilevel",
	"discrete_refine":         "multilevel",
	"recycle.Evaluate":        "recycle",
	"recycle.BuildPlan":       "recycle",
	"job":                     "serve",
	"queue_wait":              "serve",
	"cache_lookup":            "serve",
	"solve":                   "serve",
	"wal_accept":              "store",
	"persist":                 "store",
}

// layers lists the self-time split's rows in a fixed order.
var layers = []string{"bench", "gen", "terms", "partition", "multilevel", "recycle", "serve", "store", "other"}

// selfTimes returns each layer's self time in microseconds: every span's
// duration minus the durations of its direct children, summed per layer.
// Children of one span run one after another, so their durations never
// overlap.
func selfTimes(events []obs.Event) map[string]float64 {
	childDur := map[int64]int64{}
	for _, e := range events {
		if e.PSID != 0 {
			childDur[e.PSID] += e.DurUS
		}
	}
	out := map[string]float64{}
	for _, e := range events {
		self := e.DurUS - childDur[e.SID]
		if self < 0 {
			self = 0
		}
		layer, ok := layerOf[e.Span]
		if !ok {
			layer = "other"
		}
		out[layer] += float64(self)
	}
	return out
}

// spanDurations returns the durations in milliseconds of every span with
// the given name, in emission order.
func spanDurations(events []obs.Event, name string) []float64 {
	var out []float64
	for _, e := range events {
		if e.Span == name {
			out = append(out, float64(e.DurUS)/1000)
		}
	}
	return out
}

// writeTrace writes the spans as JSONL (the repository's trace format,
// readable by gpp-inspect spans), ordered by start time.
func writeTrace(path string, events []obs.Event) error {
	sort.SliceStable(events, func(i, j int) bool { return events[i].AtUS < events[j].AtUS })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var line []byte
	for _, e := range events {
		line = obs.AppendEvent(line[:0], e)
		if _, err := w.Write(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}
