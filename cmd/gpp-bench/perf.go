// perf.go implements gpp-bench's -perf mode: a self-contained micro-benchmark
// harness over the solver hot path that appends its measurements to a
// perf-trajectory JSON file (BENCH_PR6.json by default). Each invocation
// records one labelled series — run it once per commit of interest and the
// file accumulates a before/after history that future PRs can extend:
//
//	gpp-bench -perf -perf-label pr3-baseline            # first series
//	gpp-bench -perf -perf-label pr4-fused -perf-append  # append a second
//
// The measured quantities mirror the root-package `go test` benchmarks
// (BenchmarkSolver*, BenchmarkCostGradient) but run at a fixed iteration
// count (Margin is unreachable), so ns/iter is literal: ns_per_op divided by
// the solver iterations performed per op. Workers sweeps {1, 4, NumCPU}
// deduplicated — the determinism invariant makes the outputs bitwise
// identical at every count, so the sweep measures pure dispatch overhead.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"gpp/internal/gen"
	"gpp/internal/multilevel"
	"gpp/internal/partition"
	"gpp/internal/store"
	"gpp/internal/terms"
)

// perfSchema versions the file layout so future PRs can evolve it without
// guessing what an old artifact means.
const perfSchema = "gpp-bench-perf/v1"

type perfBench struct {
	Name        string  `json:"name"`
	Circuit     string  `json:"circuit"`
	K           int     `json:"k"`
	Workers     int     `json:"workers"`
	Ops         int     `json:"ops"`
	NsPerOp     float64 `json:"ns_per_op"`
	ItersPerOp  int     `json:"iters_per_op"`
	NsPerIter   float64 `json:"ns_per_iter"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

type perfSeries struct {
	Label      string      `json:"label"`
	Date       string      `json:"date"`
	GoVersion  string      `json:"go"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	NumCPU     int         `json:"num_cpu"`
	Smoke      bool        `json:"smoke,omitempty"`
	Benchmarks []perfBench `json:"benchmarks"`
}

type perfFile struct {
	Schema string       `json:"schema"`
	Note   string       `json:"note"`
	Series []perfSeries `json:"series"`
}

// perfWorkerSweep is {1, 4, NumCPU} with duplicates removed, order
// preserved — the counts named by the PR-4 acceptance criteria.
func perfWorkerSweep() []int {
	candidates := []int{1, 4, runtime.NumCPU()}
	var out []int
	for _, w := range candidates {
		dup := false
		for _, seen := range out {
			if seen == w {
				dup = true
			}
		}
		if !dup {
			out = append(out, w)
		}
	}
	return out
}

// measureOnce times repeated calls of op until the time budget or the op
// cap is spent (always at least one timed call, after one untimed warm-up)
// and returns per-op wall time and heap-allocation figures. Allocations are
// process-wide deltas from runtime.MemStats, so worker-goroutine allocations
// are charged to the op that caused them — exactly what the alloc-free
// iteration-path guarantee is about.
func measureOnce(op func(), budget time.Duration, maxOps int) (ops int, nsPerOp, allocsPerOp, bytesPerOp float64) {
	op() // warm-up: scratch pools, code paths, branch predictors
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for {
		op()
		ops++
		if ops >= maxOps || time.Since(start) >= budget {
			break
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	n := float64(ops)
	nsPerOp = float64(elapsed.Nanoseconds()) / n
	allocsPerOp = float64(m1.Mallocs-m0.Mallocs) / n
	bytesPerOp = float64(m1.TotalAlloc-m0.TotalAlloc) / n
	return ops, nsPerOp, allocsPerOp, bytesPerOp
}

// measureOp runs measureOnce `perfRepeat` times and reports the repeat with
// the median ns/op (lower middle for even counts — a real measured sample,
// never an interpolation). On shared hosts the occasional multi-second
// hypervisor stall can blanket one whole measurement window and distort a
// cell by several ×; the median of independent windows discards those
// outliers in either direction without inventing numbers.
var perfRepeat = 1

func measureOp(op func(), budget time.Duration, maxOps int) (ops int, nsPerOp, allocsPerOp, bytesPerOp float64) {
	type sample struct {
		ops                         int
		ns, allocsPerOp, bytesPerOp float64
	}
	r := perfRepeat
	if r < 1 {
		r = 1
	}
	samples := make([]sample, 0, r)
	for i := 0; i < r; i++ {
		ops, ns, allocs, bytes := measureOnce(op, budget, maxOps)
		samples = append(samples, sample{ops, ns, allocs, bytes})
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].ns < samples[j].ns })
	med := samples[(len(samples)-1)/2]
	return med.ops, med.ns, med.allocsPerOp, med.bytesPerOp
}

// perfProblem builds a named benchmark circuit as a partition problem;
// gen.Benchmark covers both the Table I names and the par<N> scaling
// synthetics (par6000, par100000, par1000000, …).
func perfProblem(name string, k int) (*partition.Problem, error) {
	c, err := gen.Benchmark(name, nil)
	if err != nil {
		return nil, err
	}
	return partition.FromCircuit(c, k)
}

// runPerf executes the benchmark matrix and writes (or appends to) the
// trajectory file. In smoke mode it shrinks to one tiny circuit and a single
// op per cell — a seconds-long liveness check that keeps the harness wired
// into `make check` without slowing the gate down.
func runPerf(out, label string, appendSeries, smoke bool, budget time.Duration) error {
	solverCircuits := []struct {
		circuit string
		k       int
		iters   int
	}{
		{"KSA32", 5, 40},
		{"C3540", 5, 40},
		{"par6000", 5, 40},
	}
	costGradCircuits := []string{"C432", "par6000"}
	maxOps := 1 << 20
	if smoke {
		solverCircuits = solverCircuits[:0]
		solverCircuits = append(solverCircuits, struct {
			circuit string
			k       int
			iters   int
		}{"KSA4", 5, 2})
		costGradCircuits = []string{"KSA4"}
		maxOps = 1
		budget = 0
		perfRepeat = 1 // liveness check: one window is the point
	}

	series := perfSeries{
		Label:     label,
		Date:      time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Smoke:     smoke,
	}

	for _, sc := range solverCircuits {
		p, err := perfProblem(sc.circuit, sc.k)
		if err != nil {
			return err
		}
		for _, workers := range perfWorkerSweep() {
			opts := partition.Options{
				Seed: 1, MaxIters: sc.iters, Margin: 1e-300, Workers: workers,
			}
			iters := 0
			op := func() {
				res, err := p.Solve(opts)
				if err != nil {
					panic(err)
				}
				iters = res.Iters
			}
			ops, ns, allocs, bytes := measureOp(op, budget, maxOps)
			b := perfBench{
				Name:    fmt.Sprintf("BenchmarkSolver%sK%dW%d", sc.circuit, sc.k, workers),
				Circuit: sc.circuit, K: sc.k, Workers: workers,
				Ops: ops, NsPerOp: ns, ItersPerOp: iters,
				NsPerIter:   ns / float64(iters),
				AllocsPerOp: allocs, BytesPerOp: bytes,
			}
			series.Benchmarks = append(series.Benchmarks, b)
			fmt.Fprintf(os.Stderr, "perf: %-34s %12.0f ns/op %10.0f ns/iter %8.1f allocs/op\n",
				b.Name, b.NsPerOp, b.NsPerIter, b.AllocsPerOp)
		}
	}

	// Checkpoint-interval sweep: the same fixed-iteration solve with the
	// durable snapshot hook off (the baseline every non-durable caller
	// gets — must cost ~0) and firing every N iterations, each firing an
	// encode + atomic fsync'd file replace. ns_per_iter against the
	// baseline prices the crash-safety a -checkpoint run buys.
	ckpt := struct {
		circuit string
		k       int
		iters   int
	}{"KSA32", 5, 200}
	ckptIntervals := []int{0, 10, 100}
	if smoke {
		ckpt.circuit, ckpt.iters = "KSA4", 2
		ckptIntervals = []int{0, 1}
	}
	ckptDir, err := os.MkdirTemp("", "gpp-bench-ckpt-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(ckptDir)
	snapPath := filepath.Join(ckptDir, "bench.snap")
	{
		p, err := perfProblem(ckpt.circuit, ckpt.k)
		if err != nil {
			return err
		}
		for _, every := range ckptIntervals {
			opts := partition.Options{
				Seed: 1, MaxIters: ckpt.iters, Margin: 1e-300, Workers: 1,
			}
			name := fmt.Sprintf("BenchmarkSolverCkpt%sOff", ckpt.circuit)
			if every > 0 {
				opts.CheckpointEvery = every
				opts.Checkpoint = func(s *partition.Snapshot) error {
					return store.WriteFileAtomic(snapPath, partition.EncodeSnapshot(s), 0o644)
				}
				name = fmt.Sprintf("BenchmarkSolverCkpt%sEvery%d", ckpt.circuit, every)
			}
			iters := 0
			op := func() {
				res, err := p.Solve(opts)
				if err != nil {
					panic(err)
				}
				iters = res.Iters
			}
			ops, ns, allocs, bytes := measureOp(op, budget, maxOps)
			b := perfBench{
				Name:    name,
				Circuit: ckpt.circuit, K: ckpt.k, Workers: 1,
				Ops: ops, NsPerOp: ns, ItersPerOp: iters,
				NsPerIter:   ns / float64(iters),
				AllocsPerOp: allocs, BytesPerOp: bytes,
			}
			series.Benchmarks = append(series.Benchmarks, b)
			fmt.Fprintf(os.Stderr, "perf: %-34s %12.0f ns/op %10.0f ns/iter %8.1f allocs/op\n",
				b.Name, b.NsPerOp, b.NsPerIter, b.AllocsPerOp)
		}
	}

	// Registry-kernel cells: the same fixed-iteration KSA32 solve on a
	// problem built through the cost-term registry. The Default cell spells
	// f1..f4 explicitly — it must compile to the historical kernel path, so
	// any gap against BenchmarkSolverCkptKSA32Off is pure registry build
	// overhead (amortized once per solve, never per iteration). The Plane
	// cell activates current_limit with a deliberately binding limit, so
	// its ns/iter prices the per-iteration plane-term finalize/gradient
	// hooks — the dispatch overhead the 10% bench gate now watches.
	regCells := []struct {
		name  string
		specs []partition.TermSpec
	}{
		{"Default", []partition.TermSpec{
			{Name: "f1", Weight: 1}, {Name: "f2", Weight: 1},
			{Name: "f3", Weight: 1}, {Name: "f4", Weight: 1},
		}},
		{"Plane", []partition.TermSpec{{Name: "current_limit", Weight: 1, Param: 10}}},
	}
	regWork := struct {
		circuit string
		k       int
		iters   int
	}{"KSA32", 5, 200}
	if smoke {
		regWork.circuit, regWork.iters = "KSA4", 2
	}
	for _, rc := range regCells {
		c, err := gen.Benchmark(regWork.circuit, nil)
		if err != nil {
			return err
		}
		opts := partition.Options{
			Seed: 1, MaxIters: regWork.iters, Margin: 1e-300, Workers: 1,
			Terms: rc.specs,
		}
		p, opts, err := terms.BuildProblem(c, regWork.k, opts, nil)
		if err != nil {
			return err
		}
		iters := 0
		op := func() {
			res, err := p.Solve(opts)
			if err != nil {
				panic(err)
			}
			iters = res.Iters
		}
		ops, ns, allocs, bytes := measureOp(op, budget, maxOps)
		b := perfBench{
			Name:    fmt.Sprintf("BenchmarkSolverRegistry%s%sW1", rc.name, regWork.circuit),
			Circuit: regWork.circuit, K: regWork.k, Workers: 1,
			Ops: ops, NsPerOp: ns, ItersPerOp: iters,
			NsPerIter:   ns / float64(iters),
			AllocsPerOp: allocs, BytesPerOp: bytes,
		}
		series.Benchmarks = append(series.Benchmarks, b)
		fmt.Fprintf(os.Stderr, "perf: %-34s %12.0f ns/op %10.0f ns/iter %8.1f allocs/op\n",
			b.Name, b.NsPerOp, b.NsPerIter, b.AllocsPerOp)
	}

	// Multilevel V-cycle scale series: the million-gate acceptance path.
	// par6000 anchors the series to the flat solver's benchmark instance;
	// par100000 sweeps the worker counts (bitwise-identical outputs, so the
	// sweep prices dispatch overhead exactly like the flat-solver cells);
	// par1000000 runs once at full parallelism — wall time per op is the
	// headline number the README scale table quotes.
	mlCells := []struct {
		circuit string
		workers []int
		maxOps  int
	}{
		{"par6000", []int{1}, 3},
		{"par100000", perfWorkerSweep(), 3},
		{"par1000000", []int{runtime.NumCPU()}, 1},
	}
	if smoke {
		mlCells = mlCells[:0]
		mlCells = append(mlCells, struct {
			circuit string
			workers []int
			maxOps  int
		}{"KSA16", []int{1}, 1})
	}
	for _, mc := range mlCells {
		p, err := perfProblem(mc.circuit, 5)
		if err != nil {
			return err
		}
		for _, workers := range mc.workers {
			opts := multilevel.Options{}
			opts.Solver.Seed = 1
			opts.Solver.Workers = workers
			iters := 0
			op := func() {
				res, err := multilevel.Partition(p, opts)
				if err != nil {
					panic(err)
				}
				iters = res.Iters
			}
			ops, ns, allocs, bytes := measureOp(op, budget, mc.maxOps)
			b := perfBench{
				Name:    fmt.Sprintf("BenchmarkVCycle%sK5W%d", mc.circuit, workers),
				Circuit: mc.circuit, K: 5, Workers: workers,
				Ops: ops, NsPerOp: ns, ItersPerOp: iters,
				NsPerIter:   ns / float64(iters),
				AllocsPerOp: allocs, BytesPerOp: bytes,
			}
			series.Benchmarks = append(series.Benchmarks, b)
			fmt.Fprintf(os.Stderr, "perf: %-34s %12.0f ns/op %10.0f ns/iter %8.1f allocs/op\n",
				b.Name, b.NsPerOp, b.NsPerIter, b.AllocsPerOp)
		}
	}

	for _, circuit := range costGradCircuits {
		p, err := perfProblem(circuit, 5)
		if err != nil {
			return err
		}
		w := p.NewW()
		for i := range w {
			w[i] = 1.0 / 5
		}
		grad := make([]float64, len(w))
		coeffs := partition.DefaultCoeffs()
		for _, workers := range perfWorkerSweep() {
			workers := workers
			op := func() {
				_ = p.CostParallel(w, coeffs, workers)
				p.GradientParallel(w, coeffs, partition.GradientExact, grad, workers)
			}
			ops, ns, allocs, bytes := measureOp(op, budget, maxOps)
			b := perfBench{
				Name:    fmt.Sprintf("BenchmarkCostGradient%sW%d", circuit, workers),
				Circuit: circuit, K: 5, Workers: workers,
				Ops: ops, NsPerOp: ns, ItersPerOp: 1, NsPerIter: ns,
				AllocsPerOp: allocs, BytesPerOp: bytes,
			}
			series.Benchmarks = append(series.Benchmarks, b)
			fmt.Fprintf(os.Stderr, "perf: %-34s %12.0f ns/op %10.0f ns/iter %8.1f allocs/op\n",
				b.Name, b.NsPerOp, b.NsPerIter, b.AllocsPerOp)
		}
	}

	file := perfFile{
		Schema: perfSchema,
		Note: "Solver hot-path perf trajectory. One series per measured commit; " +
			"ns_per_iter = ns_per_op / solver iterations per op (fixed-iteration solves).",
	}
	if appendSeries {
		if raw, err := os.ReadFile(out); err == nil {
			var existing perfFile
			if err := json.Unmarshal(raw, &existing); err != nil {
				return fmt.Errorf("perf: cannot append to %s: %w", out, err)
			}
			file.Series = existing.Series
			if existing.Note != "" {
				file.Note = existing.Note
			}
		}
	}
	// Re-running a label replaces that series in place (same position), so
	// iterating on a measurement never duplicates history.
	replaced := false
	for i := range file.Series {
		if file.Series[i].Label == label {
			file.Series[i] = series
			replaced = true
			break
		}
	}
	if !replaced {
		file.Series = append(file.Series, series)
	}

	enc, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if out == "-" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(out, enc, 0o644)
}
