package partition

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"gpp/internal/gen"
)

// requireIdenticalResults asserts bitwise equality of everything the
// determinism contract covers: labels, iteration counts, convergence flag,
// the full relaxed matrix, and every field of both cost breakdowns.
func requireIdenticalResults(t *testing.T, name string, a, b *Result) {
	t.Helper()
	if a.Iters != b.Iters {
		t.Errorf("%s: iters differ: %d vs %d", name, a.Iters, b.Iters)
	}
	if a.Converged != b.Converged {
		t.Errorf("%s: converged differs: %v vs %v", name, a.Converged, b.Converged)
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatalf("%s: label[%d] differs: %d vs %d", name, i, a.Labels[i], b.Labels[i])
		}
	}
	for i := range a.W {
		if a.W[i] != b.W[i] {
			t.Fatalf("%s: w[%d] differs bitwise: %v vs %v", name, i, a.W[i], b.W[i])
		}
	}
	requireIdenticalBreakdown(t, name+" relaxed", a.Relaxed, b.Relaxed)
	requireIdenticalBreakdown(t, name+" discrete", a.Discrete, b.Discrete)
}

func requireIdenticalBreakdown(t *testing.T, name string, a, b Breakdown) {
	t.Helper()
	if a.F1 != b.F1 || a.F2 != b.F2 || a.F3 != b.F3 || a.F4 != b.F4 || a.Total != b.Total {
		t.Errorf("%s: breakdown differs exactly: %+v vs %+v", name, a, b)
	}
}

// TestSolveWorkersDeterminismTableI is the headline determinism regression:
// for every Table-I benchmark circuit, a fully serial solve (Workers: 1)
// and a solve on all CPUs must produce bit-identical labels, iteration
// counts, relaxed matrices, and cost breakdowns for the same seed. The
// fixed-shard-order merge makes this exact — no tolerances anywhere.
func TestSolveWorkersDeterminismTableI(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite determinism sweep skipped in -short mode")
	}
	for _, name := range gen.BenchmarkNames {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c, err := gen.Benchmark(name, nil)
			if err != nil {
				t.Fatal(err)
			}
			p, err := FromCircuit(c, 5)
			if err != nil {
				t.Fatal(err)
			}
			// Determinism must hold at every iterate, converged or not; the
			// cap keeps the largest circuits fast under -race.
			base := Options{Seed: 1, MaxIters: 60}
			serial := base
			serial.Workers = 1
			parallel := base
			// NumCPU, but at least 4 so single-core hosts still exercise a
			// real multi-goroutine pool (extra workers beyond the shard
			// count are simply not spawned).
			parallel.Workers = runtime.NumCPU()
			if parallel.Workers < 4 {
				parallel.Workers = 4
			}
			a, err := p.Solve(serial)
			if err != nil {
				t.Fatal(err)
			}
			b, err := p.Solve(parallel)
			if err != nil {
				t.Fatal(err)
			}
			requireIdenticalResults(t, name, a, b)
		})
	}
}

// TestSolveWorkersDeterminismOptionCross sweeps the solver's option arms
// (momentum, renormalize, reduce-dims, paper gradients, refinement) across
// odd worker counts on a problem large enough to span many shards.
func TestSolveWorkersDeterminismOptionCross(t *testing.T) {
	p := randProblem(t, 700, 5, 2600, 11)
	variants := []Options{
		{Seed: 3, MaxIters: 40},
		{Seed: 3, MaxIters: 40, Momentum: 0.5},
		{Seed: 3, MaxIters: 40, Renormalize: true},
		{Seed: 3, MaxIters: 40, ReduceDims: true},
		{Seed: 3, MaxIters: 40, Gradient: GradientPaper},
		{Seed: 3, MaxIters: 40, Refine: true},
	}
	for vi, base := range variants {
		serial := base
		serial.Workers = 1
		want, err := p.Solve(serial)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 2, 3, 7, 16} {
			o := base
			o.Workers = workers
			got, err := p.Solve(o)
			if err != nil {
				t.Fatal(err)
			}
			requireIdenticalResults(t, fmt.Sprintf("variant %d workers %d", vi, workers), want, got)
		}
	}
}

// TestSolveWorkersDeterminismSweep pins the PR-4 acceptance sweep: Workers
// = 1, 2, and NumCPU produce bitwise identical Results on real circuits,
// with the persistent-group dispatch on the fused iteration kernel. (The
// option-cross test above covers odd counts; this one is the named
// contract.)
func TestSolveWorkersDeterminismSweep(t *testing.T) {
	counts := []int{1, 2, runtime.NumCPU()}
	for _, circuit := range []string{"KSA16", "C499"} {
		c, err := gen.Benchmark(circuit, nil)
		if err != nil {
			t.Fatal(err)
		}
		p, err := FromCircuit(c, 5)
		if err != nil {
			t.Fatal(err)
		}
		var want *Result
		for _, workers := range counts {
			got, err := p.Solve(Options{Seed: 1, MaxIters: 80, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
				continue
			}
			requireIdenticalResults(t, fmt.Sprintf("%s workers %d", circuit, workers), want, got)
		}
	}
}

// tailProblem builds a random problem spanning several gate and edge
// shards. isolateTail confines every edge (and all bias/area) to a core no
// larger than one gate shard, leaving an edge-free zero-attribute tail:
// under F4 alone those rows clamp to one-hot vertices and stop moving
// while the edged core keeps descending.
func tailProblem(t testing.TB, seed int64, g, e, k int, isolateTail bool) *Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	bias := make([]float64, g)
	area := make([]float64, g)
	span := g
	if isolateTail {
		span = min(g/2, gateChunk)
	}
	for i := range bias {
		if i < span || !isolateTail {
			bias[i] = 0.2 + rng.Float64()
			area[i] = 0.001 + 0.004*rng.Float64()
		}
	}
	var edges [][2]int
	if span >= 2 {
		for len(edges) < e {
			a, b := rng.Intn(span), rng.Intn(span)
			if a != b {
				edges = append(edges, [2]int{a, b})
			}
		}
	}
	p, err := NewProblem("tail", k, bias, area, edges)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestBlockedKernelDeterminismSweep pins the cache-blocked kernels to
// bitwise identical results at Workers 1, 2, and NumCPU on problems that
// span several gate and edge shards, including shapes the circuit sweeps
// never reach: an edge-free problem, a learn rate that slams the frozen
// tail into the clamp bounds (normalized gradients scale like 1/(G·K), so
// rates in the thousands are what clamp), and heavy-ball momentum.
func TestBlockedKernelDeterminismSweep(t *testing.T) {
	cases := []struct {
		name        string
		seed        int64
		g, e, k     int
		isolateTail bool
		opts        Options
	}{
		{"isolated-tail", 5, 700, 2200, 5, true, Options{Seed: 3, MaxIters: 90, LearnRate: 0.2}},
		{"no-edges", 3, 300, 0, 2, false, Options{Seed: 3, MaxIters: 70, LearnRate: 0.5}},
		{"frozen-tail/learn-rate=2000", 9, 768, 600, 4, true, Options{Seed: 9, MaxIters: 100, LearnRate: 2000}},
		{"momentum=0.9", 11, 520, 2500, 5, false, Options{Seed: 11, MaxIters: 50, Momentum: 0.9}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tailProblem(t, tc.seed, tc.g, tc.e, tc.k, tc.isolateTail)
			var want *Result
			for _, workers := range []int{1, 2, runtime.NumCPU()} {
				o := tc.opts
				o.Margin, o.Workers = 1e-12, workers
				res, err := p.Solve(o)
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = res
					continue
				}
				requireIdenticalResults(t, fmt.Sprintf("workers %d", workers), want, res)
			}
		})
	}
}

// TestSolveNoGoroutineLeak bounds runtime.NumGoroutine across repeated
// multi-worker solves: each solve's persistent group must tear its workers
// down synchronously on return (Group.Close waits for worker exit), so the
// goroutine count cannot creep with solve count.
func TestSolveNoGoroutineLeak(t *testing.T) {
	if raceEnabled {
		t.Skip("goroutine accounting is noisy under -race")
	}
	p := randProblem(t, 300, 5, 900, 21)
	opts := Options{Seed: 1, MaxIters: 5, Margin: 1e-300, Workers: 8}
	if _, err := p.Solve(opts); err != nil { // warm-up: lazy runtime goroutines
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 25; i++ {
		if _, err := p.Solve(opts); err != nil {
			t.Fatal(err)
		}
	}
	// Solve returns only after Group.Close's exited.Wait, but a worker's
	// deferred Done runs before the goroutine finishes unwinding, so the
	// runtime may count it for a moment longer. Poll briefly, as the pool's
	// own Close test does: a parked, leaked worker never drops out.
	deadline := time.Now().Add(2 * time.Second)
	for {
		after := runtime.NumGoroutine()
		if after <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew across 25 solves: %d before, %d after", before, after)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCostParallelBitIdentical checks the cost kernel alone across worker
// counts, including non-divisors of the shard count.
func TestCostParallelBitIdentical(t *testing.T) {
	p := randProblem(t, 900, 4, 3100, 12)
	w := randW(p, 13)
	c := Coeffs{C1: 1.2, C2: 0.6, C3: 0.8, C4: 1.1}
	want := p.Cost(w, c)
	if math.IsNaN(want.Total) {
		t.Fatal("serial cost is NaN")
	}
	for _, workers := range []int{0, 2, 3, 5, 8, 64} {
		got := p.CostParallel(w, c, workers)
		requireIdenticalBreakdown(t, fmt.Sprintf("workers %d", workers), want, got)
	}
}

// TestGradientParallelBitIdentical checks the gradient kernel elementwise
// across worker counts for both gradient modes.
func TestGradientParallelBitIdentical(t *testing.T) {
	p := randProblem(t, 900, 4, 3100, 14)
	w := randW(p, 15)
	c := Coeffs{C1: 1.2, C2: 0.6, C3: 0.8, C4: 1.1}
	for _, mode := range []GradientMode{GradientExact, GradientPaper} {
		want := make([]float64, p.G*p.K)
		p.Gradient(w, c, mode, want)
		for _, workers := range []int{0, 2, 3, 5, 8, 64} {
			got := make([]float64, p.G*p.K)
			p.GradientParallel(w, c, mode, got, workers)
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("mode %v workers %d: grad[%d] differs bitwise: %v vs %v",
						mode, workers, i, want[i], got[i])
				}
			}
		}
	}
}
