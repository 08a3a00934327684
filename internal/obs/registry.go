package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Registry is a zero-dependency metrics registry. Instruments are created
// (or fetched) by name; all mutating operations are lock-free atomics, so
// instruments are safe on hot paths and under arbitrary goroutine
// concurrency. WriteProm renders the Prometheus text exposition format;
// PublishExpvar bridges a JSON snapshot into /debug/vars.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	help     map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		help:     map[string]string{},
	}
}

var defaultRegistry = NewRegistry()

// Default is the process-wide registry the solver stack instruments
// (expvar-style). CLIs serve it via -metrics-addr.
func Default() *Registry { return defaultRegistry }

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (n < 0 is a programming error and is
// ignored to keep the monotonicity contract).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float metric that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d (CAS loop; safe under concurrency).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed cumulative buckets
// (Prometheus-style `le` semantics: bucket i counts observations ≤
// bounds[i], with an implicit +Inf bucket).
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last is +Inf
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// NewHistogram returns a standalone histogram (not registered anywhere)
// with the given sorted bucket upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	if !sort.Float64sAreSorted(bounds) {
		panic("obs: histogram bounds not sorted")
	}
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// LogBuckets returns logarithmically spaced bucket bounds from min to at
// least max with perDecade buckets per factor of ten — the natural shape
// for latency histograms, where p99 can sit orders of magnitude above
// p50. Panics on nonsense arguments (instrument construction happens at
// init; a bad spec is a programming error).
func LogBuckets(min, max float64, perDecade int) []float64 {
	if !(min > 0) || !(max > min) || perDecade < 1 {
		panic("obs: invalid LogBuckets spec")
	}
	ratio := math.Pow(10, 1/float64(perDecade))
	var bounds []float64
	for v := min; ; v *= ratio {
		bounds = append(bounds, v)
		if v >= max || len(bounds) > 400 {
			return bounds
		}
	}
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the bucket counts by
// linear interpolation inside the bucket holding the target rank —
// standard Prometheus histogram_quantile semantics. Observations in the
// +Inf bucket clamp to the last finite bound. Returns 0 with no
// observations.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 || len(h.bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum int64
	for i, bound := range h.bounds {
		c := h.counts[i].Load()
		if float64(cum)+float64(c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			if c == 0 {
				return bound
			}
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lo + (bound-lo)*frac
		}
		cum += c
	}
	// Target rank fell in the +Inf bucket: clamp to the last finite bound.
	return h.bounds[len(h.bounds)-1]
}

// validName enforces the Prometheus metric-name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*; instruments are created at package init, so a
// bad name is a programming error worth a panic.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func (r *Registry) checkName(name string) {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
}

// Counter returns the named counter, creating it on first use. The
// optional help string is kept for exposition.
func (r *Registry) Counter(name string, help ...string) *Counter {
	r.checkName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	if len(help) > 0 && r.help[name] == "" {
		r.help[name] = help[0]
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string, help ...string) *Gauge {
	r.checkName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	if len(help) > 0 && r.help[name] == "" {
		r.help[name] = help[0]
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds (must be sorted ascending) on first use. Later calls ignore
// the bounds argument.
func (r *Registry) Histogram(name string, bounds []float64, help ...string) *Histogram {
	r.checkName(name)
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("obs: histogram %q bounds not sorted", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		b := append([]float64(nil), bounds...)
		h = &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
		r.hists[name] = h
	}
	if len(help) > 0 && r.help[name] == "" {
		r.help[name] = help[0]
	}
	return h
}

// WriteProm renders the registry in the Prometheus text exposition format,
// with metric families sorted by name so the output is deterministic.
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.hists {
		names = append(names, n)
	}
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	help := make(map[string]string, len(r.help))
	for n, h := range r.help {
		help[n] = h
	}
	r.mu.Unlock()

	sort.Strings(names)
	var b []byte
	fv := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, n := range names {
		if h := help[n]; h != "" {
			b = append(b, "# HELP "...)
			b = append(b, n...)
			b = append(b, ' ')
			b = append(b, h...)
			b = append(b, '\n')
		}
		switch {
		case counters[n] != nil:
			b = append(b, "# TYPE "...)
			b = append(b, n...)
			b = append(b, " counter\n"...)
			b = append(b, n...)
			b = append(b, ' ')
			b = strconv.AppendInt(b, counters[n].Value(), 10)
			b = append(b, '\n')
		case gauges[n] != nil:
			b = append(b, "# TYPE "...)
			b = append(b, n...)
			b = append(b, " gauge\n"...)
			b = append(b, n...)
			b = append(b, ' ')
			b = append(b, fv(gauges[n].Value())...)
			b = append(b, '\n')
		case hists[n] != nil:
			h := hists[n]
			b = append(b, "# TYPE "...)
			b = append(b, n...)
			b = append(b, " histogram\n"...)
			var cum int64
			for i, bound := range h.bounds {
				cum += h.counts[i].Load()
				b = append(b, n...)
				b = append(b, `_bucket{le="`...)
				b = append(b, fv(bound)...)
				b = append(b, `"} `...)
				b = strconv.AppendInt(b, cum, 10)
				b = append(b, '\n')
			}
			cum += h.counts[len(h.bounds)].Load()
			b = append(b, n...)
			b = append(b, `_bucket{le="+Inf"} `...)
			b = strconv.AppendInt(b, cum, 10)
			b = append(b, '\n')
			b = append(b, n...)
			b = append(b, "_sum "...)
			b = append(b, fv(h.Sum())...)
			b = append(b, '\n')
			b = append(b, n...)
			b = append(b, "_count "...)
			b = strconv.AppendInt(b, h.Count(), 10)
			b = append(b, '\n')
			// Pre-computed quantile gauges: scrape-side
			// histogram_quantile() needs a full PromQL engine; a service
			// being eyeballed with curl does not.
			for _, pq := range [...]struct {
				suffix string
				q      float64
			}{{"_p50", 0.50}, {"_p95", 0.95}, {"_p99", 0.99}} {
				b = append(b, "# TYPE "...)
				b = append(b, n...)
				b = append(b, pq.suffix...)
				b = append(b, " gauge\n"...)
				b = append(b, n...)
				b = append(b, pq.suffix...)
				b = append(b, ' ')
				b = append(b, fv(h.Quantile(pq.q))...)
				b = append(b, '\n')
			}
		}
	}
	_, err := w.Write(b)
	return err
}

// Snapshot returns the registry as a plain map (counters as int64, gauges
// as float64, histograms as {count, sum, buckets}) — the payload the
// expvar bridge serves.
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]any, len(r.counters)+len(r.gauges)+len(r.hists))
	for n, c := range r.counters {
		out[n] = c.Value()
	}
	for n, g := range r.gauges {
		out[n] = g.Value()
	}
	for n, h := range r.hists {
		buckets := make(map[string]int64, len(h.bounds)+1)
		var cum int64
		for i, bound := range h.bounds {
			cum += h.counts[i].Load()
			buckets[strconv.FormatFloat(bound, 'g', -1, 64)] = cum
		}
		cum += h.counts[len(h.bounds)].Load()
		buckets["+Inf"] = cum
		out[n] = map[string]any{"count": h.Count(), "sum": h.Sum(), "buckets": buckets}
	}
	return out
}
