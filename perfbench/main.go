package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gpp/internal/obs"
)

// workload is one named traffic mix. Workers is the kernel worker count
// of each solve, clients the number of concurrent callers; neither may
// exceed the host's CPU count.
type workload struct {
	name    string
	workers int
	clients int
	run     func(*bench) error
}

var workloads = []workload{
	{name: "table1-flat", workers: 1, clients: 1, run: runFlat},
	{name: "vcycle-par200k", workers: 2, clients: 1, run: runVCycle},
	{name: "serve-durable", workers: 1, clients: 2, run: runServe},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// spec is the part of BENCHMARK.json the benchmark reads: the workload
// names, and the metrics an untraced (end_to_end) and a traced (per_layer)
// run print, in output order.
type spec struct {
	Workloads []workloadDef `json:"workloads"`
	EndToEnd  []metricDef   `json:"end_to_end"`
	PerLayer  []metricDef   `json:"per_layer"`
}

type workloadDef struct {
	Name string `json:"name"`
}

// loadSpec reads the benchmark's declaration from path.
func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(sp.EndToEnd) == 0 || len(sp.PerLayer) == 0 {
		return nil, fmt.Errorf("%s declares no end_to_end or per_layer metrics", path)
	}
	return &sp, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: table1-flat, vcycle-par200k or serve-durable")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same op list")
	seconds := fs.Int("seconds", 36, "measurement time in seconds")
	trace := fs.Int("trace", 0, "1 runs traced and prints the per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for traces and scratch files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// run.sh starts the benchmark in the checkout root, beside the file.
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	switch {
	case w == nil || !slices.Contains(sp.Workloads, workloadDef{*name}):
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	case *seconds < 1:
		fmt.Fprintf(stderr, "perfbench: --seconds %d must be at least 1\n", *seconds)
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "perfbench: --trace %d must be 0 or 1\n", *trace)
		return 2
	case w.workers > runtime.NumCPU() || w.clients > runtime.NumCPU():
		fmt.Fprintf(stderr, "perfbench: %s needs %d workers and %d clients, host has %d CPUs\n",
			w.name, w.workers, w.clients, runtime.NumCPU())
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	b := newBench(*w, sp, *seed, *seconds, *trace == 1, *out, stderr)
	if err := w.run(b); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := b.finish(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	return 0
}

// bench is one run's state: configuration, counters, collected metrics
// and, on traced runs, the span sink.
type bench struct {
	w       workload
	spec    *spec
	seed    int64
	seconds time.Duration
	traced  bool
	out     string
	log     io.Writer

	tr   *obs.Trace // nil on untraced runs: every span call is then free
	sink *spanSink
	t0   time.Time // the trace's clock origin

	attempted, failed int
	metrics           map[string]float64
	detail            map[string]any
	calib             []float64
	setups            []float64 // set-up times in seconds; setup_s is their median
}

func newBench(w workload, sp *spec, seed int64, seconds int, traced bool, out string, log io.Writer) *bench {
	b := &bench{
		w: w, spec: sp, seed: seed, seconds: time.Duration(seconds) * time.Second, traced: traced, out: out, log: log,
		metrics: map[string]float64{},
		detail: map[string]any{
			"workload":   w.name,
			"seed":       seed,
			"seconds":    seconds,
			"traced":     traced,
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"workers":    w.workers,
			"clients":    w.clients,
			"go":         runtime.Version(),
			"platform":   runtime.GOOS + "/" + runtime.GOARCH,
		},
	}
	if traced {
		b.sink = &spanSink{}
		b.t0 = time.Now()
		b.tr = obs.NewTrace(b.sink).Timed()
	}
	return b
}

// root opens a top-level benchmark span; nil (free) on untraced runs.
func (b *bench) root(name string) *obs.Span { return b.tr.Root(name) }

// failOp records one failed op.
func (b *bench) failOp(format string, args ...any) {
	b.failed++
	if b.failed <= 20 {
		fmt.Fprintf(b.log, "FAILED: "+format+"\n", args...)
	}
}

func (b *bench) setMetric(name string, v float64) { b.metrics[name] = v }

func (b *bench) note(key string, v any) { b.detail[key] = v }

// calibMul and calibAdd are variables, not constants, so the compiler
// cannot fold the calibration loop away; calibSink keeps its result live.
var calibMul, calibAdd, calibSink = 0.999999, 1e-6, 0.5

// calibrate times a fixed chain of dependent floating-point operations
// owned by the benchmark. Its readings show how fast the host ran between
// ops; they are reported beside the metrics and never used to scale them.
func (b *bench) calibrate() {
	t0 := time.Now()
	x := calibSink
	for i := 0; i < 1<<19; i++ {
		x = x*calibMul + calibAdd
	}
	b.calib = append(b.calib, ms(time.Since(t0)))
	calibSink = x
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// timeSetup runs one set-up and records its time as a setup_s sample.
// Workloads repeat their set-up between ops across the whole run, so that
// setup_s, the median, follows the host over the run rather than over the
// first moments of the process.
func (b *bench) timeSetup(setup func() error) error {
	t0 := time.Now()
	if err := setup(); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	b.setups = append(b.setups, time.Since(t0).Seconds())
	return nil
}

// setLatencies sets the cold or hit percentile pair and records the tail
// the samples support.
func (b *bench) setLatencies(prefix string, samplesMS []float64) {
	b.setMetric(prefix+"_p50_ms", median(samplesMS))
	b.setMetric(prefix+"_p90_ms", percentile(samplesMS, 90))
	if t, ok := tailPercentile(samplesMS); ok {
		b.note(prefix+"_tail", t)
	} else {
		b.note(prefix+"_tail", map[string]int{"n": len(samplesMS)})
	}
}

// finish records the run-wide readings, writes the trace on traced runs,
// and prints the detail line and the result line.
func (b *bench) finish(stdout io.Writer) error {
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	b.setMetric("peak_rss_mb", rss)
	b.setMetric("setup_s", median(b.setups))
	b.note("setup_samples", len(b.setups))
	b.note("setup_quartiles_s", []float64{percentile(b.setups, 25), median(b.setups), percentile(b.setups, 75)})
	b.setMetric("host.calib_ms", median(b.calib))
	b.note("host_calib_ms", median(b.calib))
	b.note("host_calib_samples", len(b.calib))
	if b.traced {
		events := b.sink.snapshot()
		self := selfTimes(events)
		split := map[string]float64{}
		for _, l := range layers {
			split[l] = self[l] / 1000
		}
		b.note("self_ms", split)
		path := filepath.Join(b.out, fmt.Sprintf("trace-%s-seed%d.jsonl", b.w.name, b.seed))
		if err := writeTrace(path, events); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		b.note("trace_file", path)
		fmt.Fprintf(b.log, "self time by layer (ms, whole run):")
		for _, l := range layers {
			fmt.Fprintf(b.log, " %s=%.1f", l, split[l])
		}
		fmt.Fprintln(b.log)
	}
	tbl := b.spec.EndToEnd
	if b.traced {
		tbl = b.spec.PerLayer
	}
	metrics := make(map[string]any, len(tbl))
	for _, d := range tbl {
		v, ok := b.metrics[d.Name]
		if !ok && !b.traced {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
		metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit}
		fmt.Fprintf(b.log, "%-32s %14.6g %s\n", d.Name, v, d.Unit)
	}
	detail, err := json.Marshal(map[string]any{"detail": b.detail})
	if err != nil {
		return err
	}
	line, err := json.Marshal(map[string]any{
		"correct":   b.failed == 0 && b.attempted > 0,
		"attempted": b.attempted,
		"failed":    b.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n%s\n", detail, line)
	return err
}
