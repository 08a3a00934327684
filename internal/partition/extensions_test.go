package partition

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"gpp/internal/gen"
)

func TestBalancedAssignRespectsCapacity(t *testing.T) {
	p := randProblem(t, 100, 5, 180, 23)
	res, err := p.Solve(Options{Seed: 1, MaxIters: 400})
	if err != nil {
		t.Fatal(err)
	}
	const slack = 0.05
	labels := p.BalancedAssign(res.W, slack)
	bias, _ := p.PlaneTotals(labels)
	cap := p.MeanBias * (1 + slack)
	// Random per-gate bias ≈ 1 mA is far below the per-plane capacity, so
	// no fallback placement should be needed and every plane stays within
	// the bound.
	for k, b := range bias {
		if b > cap+1e-9 {
			t.Errorf("plane %d bias %.3f exceeds capacity %.3f", k, b, cap)
		}
	}
}

func TestBalancedAssignTightensBMax(t *testing.T) {
	p := randProblem(t, 120, 5, 220, 24)
	res, err := p.Solve(Options{Seed: 2, MaxIters: 400})
	if err != nil {
		t.Fatal(err)
	}
	argmax := p.Assign(res.W)
	balanced := p.BalancedAssign(res.W, 0.02)
	bmax := func(labels []int) float64 {
		bias, _ := p.PlaneTotals(labels)
		m := 0.0
		for _, b := range bias {
			if b > m {
				m = b
			}
		}
		return m
	}
	if bmax(balanced) > bmax(argmax)+1e-9 {
		t.Errorf("balanced B_max %.3f worse than argmax %.3f", bmax(balanced), bmax(argmax))
	}
}

func TestBalancedAssignNegativeSlackClamped(t *testing.T) {
	p := randProblem(t, 40, 4, 70, 25)
	res, err := p.Solve(Options{Seed: 1, MaxIters: 200})
	if err != nil {
		t.Fatal(err)
	}
	labels := p.BalancedAssign(res.W, -1)
	for _, lb := range labels {
		if lb < 0 || lb >= p.K {
			t.Fatal("labels out of range with clamped slack")
		}
	}
}

func TestBalancedAssignOverfullFallback(t *testing.T) {
	// One giant gate forces the fallback path: its bias alone exceeds any
	// plane's capacity, so it must land on the least-loaded plane rather
	// than loop forever.
	bias := []float64{100, 1, 1, 1}
	area := []float64{1, 1, 1, 1}
	p, err := NewProblem("giant", 2, bias, area, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	w := p.NewW()
	for i := 0; i < p.G; i++ {
		w[i*2] = 0.9
		w[i*2+1] = 0.1
	}
	labels := p.BalancedAssign(w, 0)
	for _, lb := range labels {
		if lb < 0 || lb >= 2 {
			t.Fatal("labels out of range")
		}
	}
	// The three small gates cannot share the giant's plane (capacity
	// 51.5·1.0), so they end up on the other one.
	giant := labels[0]
	for i := 1; i < 4; i++ {
		if labels[i] == giant {
			t.Errorf("small gate %d sharing the giant's plane despite capacity", i)
		}
	}
}

// balancedAssignSorted is BalancedAssign as it was written with a fresh
// sort.SliceStable per gate: the reference for the plane preference order.
func balancedAssignSorted(p *Problem, w W, capacitySlack float64) []int {
	capacity := p.MeanBias * (1 + math.Max(capacitySlack, 0))
	type cand struct {
		gate int
		gap  float64
	}
	cands := make([]cand, p.G)
	for i := 0; i < p.G; i++ {
		best, second := -1.0, -1.0
		for _, v := range w[i*p.K : (i+1)*p.K] {
			if v > best {
				best, second = v, best
			} else if v > second {
				second = v
			}
		}
		cands[i] = cand{gate: i, gap: best - second}
	}
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].gap > cands[b].gap })
	labels := make([]int, p.G)
	load := make([]float64, p.K)
	for _, cd := range cands {
		i := cd.gate
		row := w[i*p.K : (i+1)*p.K]
		order := make([]int, p.K)
		for k := range order {
			order[k] = k
		}
		sort.SliceStable(order, func(a, b int) bool { return row[order[a]] > row[order[b]] })
		placed := false
		for _, k := range order {
			if load[k]+p.Bias[i] <= capacity {
				labels[i], placed = k, true
				load[k] += p.Bias[i]
				break
			}
		}
		if !placed {
			min := 0
			for k := 1; k < p.K; k++ {
				if load[k] < load[min] {
					min = k
				}
			}
			labels[i] = min
			load[min] += p.Bias[i]
		}
	}
	return labels
}

// TestBalancedAssignMatchesSortedOrder: picking the highest-w plane with
// room in one scan gives bitwise the labels of the per-gate
// sort.SliceStable preference order on C3540 at K = 8, for a seeded
// continuous W and for one quantized to four levels, whose rows tie often
// and so exercise the stable tie order.
func TestBalancedAssignMatchesSortedOrder(t *testing.T) {
	c, err := gen.Benchmark("C3540", nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := FromCircuit(c, 8)
	if err != nil {
		t.Fatal(err)
	}
	smooth := randW(p, 5)
	ties := p.NewW()
	rng := rand.New(rand.NewSource(6))
	for i := range ties {
		ties[i] = float64(rng.Intn(4)) / 3
	}
	for name, w := range map[string]W{"seeded": smooth, "ties": ties} {
		for _, slack := range []float64{0, 0.05, 0.5} {
			got, want := p.BalancedAssign(w, slack), balancedAssignSorted(p, w, slack)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s W, slack %g: gate %d on plane %d, sorted order puts it on %d", name, slack, i, got[i], want[i])
				}
			}
		}
	}
}

// TestBalancedAssignAllocsFlat: BalancedAssign allocates a fixed number of
// buffers per call, not per gate.
func TestBalancedAssignAllocsFlat(t *testing.T) {
	allocs := func(g int) float64 {
		p := randProblem(t, g, 8, 2*g, 27)
		w := randW(p, 7)
		return testing.AllocsPerRun(5, func() { p.BalancedAssign(w, 0.05) })
	}
	small, large := allocs(50), allocs(4000)
	if large != small || large > 10 {
		t.Fatalf("BalancedAssign allocates %g times at G = 4000 and %g at G = 50, want the same few", large, small)
	}
}

func TestSolveBalancedIntegration(t *testing.T) {
	p := randProblem(t, 80, 4, 150, 26)
	res, err := p.SolveBalanced(Options{Seed: 1, MaxIters: 400}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Labels) != p.G {
		t.Fatal("labels missing")
	}
	bias, _ := p.PlaneTotals(res.Labels)
	cap := p.MeanBias * 1.05
	for k, b := range bias {
		if b > cap+1e-9 {
			t.Errorf("plane %d bias %.3f above capacity %.3f", k, b, cap)
		}
	}
	if math.IsNaN(res.Discrete.Total) {
		t.Error("discrete cost not recomputed")
	}
}

func TestReduceDimsKeepsRowsStochastic(t *testing.T) {
	p := randProblem(t, 50, 4, 90, 31)
	res, err := p.Solve(Options{Seed: 1, ReduceDims: true, MaxIters: 500})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p.G; i++ {
		var sum float64
		for k := 0; k < p.K; k++ {
			v := res.W[i*p.K+k]
			if v < -1e-12 || v > 1+1e-12 {
				t.Fatalf("w[%d,%d] = %g outside [0,1]", i, k, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d sums to %g under ReduceDims", i, sum)
		}
	}
	for _, lb := range res.Labels {
		if lb < 0 || lb >= p.K {
			t.Fatal("labels out of range")
		}
	}
}

func TestReduceDimsProducesComparableQuality(t *testing.T) {
	p := randProblem(t, 80, 5, 150, 32)
	full, err := p.Solve(Options{Seed: 1, MaxIters: 600})
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := p.Solve(Options{Seed: 1, ReduceDims: true, MaxIters: 600})
	if err != nil {
		t.Fatal(err)
	}
	// Both must clearly beat a uniform-random assignment; the variants
	// may rank either way on a given instance.
	rnd := make([]int, p.G)
	rng := rand.New(rand.NewSource(9))
	for i := range rnd {
		rnd[i] = rng.Intn(p.K)
	}
	c := DefaultCoeffs()
	randCost := p.DiscreteCost(rnd, c).Total
	if full.Discrete.Total >= randCost {
		t.Errorf("full-dim solve (%g) no better than random (%g)", full.Discrete.Total, randCost)
	}
	if reduced.Discrete.Total >= randCost {
		t.Errorf("reduced-dim solve (%g) no better than random (%g)", reduced.Discrete.Total, randCost)
	}
}

func TestMomentumConvergesFasterOrEqual(t *testing.T) {
	p := randProblem(t, 150, 5, 280, 41)
	plain, err := p.Solve(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mom, err := p.Solve(Options{Seed: 1, Momentum: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	for _, lb := range mom.Labels {
		if lb < 0 || lb >= p.K {
			t.Fatal("momentum labels out of range")
		}
	}
	// Momentum should not be dramatically slower; usually it is faster.
	if mom.Iters > 2*plain.Iters {
		t.Errorf("momentum ran %d iters vs plain %d", mom.Iters, plain.Iters)
	}
	// And the result quality must stay in the same league.
	c := DefaultCoeffs()
	if pm, pp := p.DiscreteCost(mom.Labels, c).Total, p.DiscreteCost(plain.Labels, c).Total; pm > pp+0.1 {
		t.Errorf("momentum cost %g far above plain %g", pm, pp)
	}
}

func TestMomentumValidation(t *testing.T) {
	p := randProblem(t, 10, 2, 15, 42)
	if _, err := p.Solve(Options{Momentum: 1.0}); err == nil {
		t.Error("momentum ≥ 1 accepted")
	}
	if _, err := p.Solve(Options{Momentum: -0.5}); err == nil {
		t.Error("negative momentum other than MomentumAuto accepted")
	}
	if _, err := p.Solve(Options{Momentum: MomentumAuto}); err != nil {
		t.Errorf("MomentumAuto rejected: %v", err)
	}
}

// TestMomentumAutoResolves: MomentumAuto is bitwise the heavy-ball solve at
// autoMomentum on a problem without plane terms and bitwise the plain
// Algorithm-1 solve on a problem with one, under every solve flavor that
// goes through SolveCtx.
func TestMomentumAutoResolves(t *testing.T) {
	plain := randProblem(t, 150, 5, 280, 41)
	limited := randProblem(t, 150, 5, 280, 41)
	limited.PlaneTerms = []PlaneTerm{{Kind: PlaneCurrentLimit, Weight: 1, Limit: 20}}
	cases := []struct {
		name string
		p    *Problem
		want float64
	}{
		{"no-plane-terms", plain, autoMomentum},
		{"plane-terms", limited, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := tc.p.Solve(Options{Seed: 3, Momentum: tc.want})
			if err != nil {
				t.Fatal(err)
			}
			got, err := tc.p.Solve(Options{Seed: 3, Momentum: MomentumAuto})
			if err != nil {
				t.Fatal(err)
			}
			resultsIdentical(t, "auto-vs-explicit", want, got)
			bal, err := tc.p.SolveBalanced(Options{Seed: 3, Momentum: tc.want}, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			balAuto, err := tc.p.SolveBalanced(Options{Seed: 3, Momentum: MomentumAuto}, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			resultsIdentical(t, "balanced auto-vs-explicit", bal, balAuto)
		})
	}
}
