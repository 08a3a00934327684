package partition

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gpp/internal/pool"
)

// tinyProblem: 4 gates in a chain, K = 2, distinct bias/area.
func tinyProblem(t *testing.T) *Problem {
	t.Helper()
	p, err := NewProblem("tiny", 2,
		[]float64{1, 2, 3, 4},
		[]float64{0.1, 0.2, 0.3, 0.4},
		[][2]int{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func randProblem(t *testing.T, g, k, e int, seed int64) *Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	bias := make([]float64, g)
	area := make([]float64, g)
	for i := range bias {
		bias[i] = 0.5 + rng.Float64()
		area[i] = 0.001 + 0.005*rng.Float64()
	}
	edges := make([][2]int, 0, e)
	for len(edges) < e {
		a := rng.Intn(g)
		b := rng.Intn(g)
		if a != b {
			edges = append(edges, [2]int{a, b})
		}
	}
	p, err := NewProblem("rand", k, bias, area, edges)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func randW(p *Problem, seed int64) W {
	rng := rand.New(rand.NewSource(seed))
	w := p.NewW()
	for i := 0; i < p.G; i++ {
		row := w[i*p.K : (i+1)*p.K]
		var sum float64
		for k := range row {
			row[k] = rng.Float64()
			sum += row[k]
		}
		for k := range row {
			row[k] /= sum
		}
	}
	return w
}

func TestNewProblemValidation(t *testing.T) {
	bias := []float64{1, 1, 1}
	area := []float64{1, 1, 1}
	cases := []struct {
		name string
		fn   func() (*Problem, error)
	}{
		{"empty", func() (*Problem, error) { return NewProblem("x", 2, nil, nil, nil) }},
		{"len mismatch", func() (*Problem, error) { return NewProblem("x", 2, bias, area[:2], nil) }},
		{"K too small", func() (*Problem, error) { return NewProblem("x", 1, bias, area, nil) }},
		{"K exceeds G", func() (*Problem, error) { return NewProblem("x", 4, bias, area, nil) }},
		{"negative bias", func() (*Problem, error) {
			return NewProblem("x", 2, []float64{-1, 1, 1}, area, nil)
		}},
		{"negative area", func() (*Problem, error) {
			return NewProblem("x", 2, bias, []float64{-1, 1, 1}, nil)
		}},
		{"edge out of range", func() (*Problem, error) {
			return NewProblem("x", 2, bias, area, [][2]int{{0, 9}})
		}},
		{"self loop", func() (*Problem, error) {
			return NewProblem("x", 2, bias, area, [][2]int{{1, 1}})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.fn(); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestNormalizationConstants(t *testing.T) {
	p := tinyProblem(t)
	// N1 = |E|(K−1)^4 = 3·1 = 3; B̄ = 10/2 = 5; N2 = 1·25; Ā = 0.5;
	// N3 = 0.25; N4 = G(K−1)² = 4.
	if p.N1 != 3 {
		t.Errorf("N1 = %g, want 3", p.N1)
	}
	if p.N2 != 25 {
		t.Errorf("N2 = %g, want 25", p.N2)
	}
	if math.Abs(p.N3-0.25) > 1e-12 {
		t.Errorf("N3 = %g, want 0.25", p.N3)
	}
	if p.N4 != 4 {
		t.Errorf("N4 = %g, want 4", p.N4)
	}
	if p.MeanBias != 5 || math.Abs(p.MeanArea-0.5) > 1e-12 {
		t.Errorf("means = %g, %g", p.MeanBias, p.MeanArea)
	}
}

func TestDegenerateNormalizers(t *testing.T) {
	// No edges, zero bias, zero area: terms must be zero, not NaN.
	p, err := NewProblem("degen", 2, []float64{0, 0}, []float64{0, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := randW(p, 1)
	bd := p.Cost(w, DefaultCoeffs())
	if math.IsNaN(bd.Total) || math.IsInf(bd.Total, 0) {
		t.Fatalf("degenerate cost = %v", bd)
	}
	if bd.F1 != 0 || bd.F2 != 0 || bd.F3 != 0 {
		t.Errorf("degenerate terms nonzero: %+v", bd)
	}
}

func TestLabelsEquation3(t *testing.T) {
	p := tinyProblem(t)
	w := p.NewW()
	// Gate 0 fully on plane 1 (index 0) → l = 1; gate 1 fully on plane 2
	// → l = 2; gate 2 half and half → l = 1.5.
	w[0*2+0] = 1
	w[1*2+1] = 1
	w[2*2+0], w[2*2+1] = 0.5, 0.5
	w[3*2+0] = 1
	l := p.Labels(w)
	want := []float64{1, 2, 1.5, 1}
	for i := range want {
		if math.Abs(l[i]-want[i]) > 1e-12 {
			t.Errorf("l[%d] = %g, want %g", i, l[i], want[i])
		}
	}
}

func TestCostHandComputed(t *testing.T) {
	p := tinyProblem(t)
	w := p.NewW()
	// One-hot: gates 0,1 on plane 0; gates 2,3 on plane 1.
	w[0*2+0] = 1
	w[1*2+0] = 1
	w[2*2+1] = 1
	w[3*2+1] = 1
	bd := p.Cost(w, Coeffs{C1: 1, C2: 1, C3: 1, C4: 1})
	// F1: edges (0,1) d=0, (1,2) d=1, (2,3) d=0 → (0+1+0)/3.
	if math.Abs(bd.F1-1.0/3) > 1e-12 {
		t.Errorf("F1 = %g, want 1/3", bd.F1)
	}
	// F2: B = (3, 7), mean 5, var sum 8; F2 = 8/(2·25) = 0.16.
	if math.Abs(bd.F2-0.16) > 1e-12 {
		t.Errorf("F2 = %g, want 0.16", bd.F2)
	}
	// F3: A = (0.3, 0.7), mean 0.5, var sum 0.08; F3 = 0.08/(2·0.25) = 0.16.
	if math.Abs(bd.F3-0.16) > 1e-12 {
		t.Errorf("F3 = %g, want 0.16", bd.F3)
	}
	// F4 at one-hot rows: per gate (sum−1)² − (1/K)Σ(w−w̄)² = 0 − (1/2)(0.5)
	// = −0.25; total −1; normalized by N4=4 → −0.25.
	if math.Abs(bd.F4-(-0.25)) > 1e-12 {
		t.Errorf("F4 = %g, want -0.25", bd.F4)
	}
	if math.Abs(bd.Total-(1.0/3+0.16+0.16-0.25)) > 1e-12 {
		t.Errorf("Total = %g", bd.Total)
	}
}

func TestF4PrefersVertices(t *testing.T) {
	p := tinyProblem(t)
	oneHot := p.NewW()
	uniform := p.NewW()
	for i := 0; i < p.G; i++ {
		oneHot[i*2] = 1
		uniform[i*2], uniform[i*2+1] = 0.5, 0.5
	}
	c := Coeffs{C4: 1}
	vo := p.Cost(oneHot, c).F4
	vu := p.Cost(uniform, c).F4
	if vo >= vu {
		t.Errorf("F4(one-hot) = %g should be < F4(uniform) = %g", vo, vu)
	}
}

func TestDiscreteCostMatchesRelaxedAtVertices(t *testing.T) {
	p := randProblem(t, 30, 4, 60, 3)
	rng := rand.New(rand.NewSource(4))
	labels := make([]int, p.G)
	w := p.NewW()
	for i := range labels {
		labels[i] = rng.Intn(p.K)
		w[i*p.K+labels[i]] = 1
	}
	c := DefaultCoeffs()
	relaxed := p.Cost(w, c)
	discrete := p.DiscreteCost(labels, c)
	for _, pair := range [][2]float64{
		{relaxed.F1, discrete.F1},
		{relaxed.F2, discrete.F2},
		{relaxed.F3, discrete.F3},
		{relaxed.F4, discrete.F4},
		{relaxed.Total, discrete.Total},
	} {
		if math.Abs(pair[0]-pair[1]) > 1e-9 {
			t.Fatalf("relaxed %g vs discrete %g", pair[0], pair[1])
		}
	}
}

// TestGradientMatchesFiniteDifference is the key correctness check for the
// solver: the analytic exact-mode gradient must agree with central finite
// differences of the cost at random interior points.
func TestGradientMatchesFiniteDifference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		p := randProblem(t, 12, 3, 20, seed)
		w := randW(p, seed*7)
		c := Coeffs{C1: 1.3, C2: 0.7, C3: 0.9, C4: 1.1}
		grad := make([]float64, p.G*p.K)
		p.Gradient(w, c, GradientExact, grad)

		const h = 1e-6
		for probe := 0; probe < 25; probe++ {
			idx := (probe * 7919) % len(w)
			orig := w[idx]
			w[idx] = orig + h
			up := p.Cost(w, c).Total
			w[idx] = orig - h
			dn := p.Cost(w, c).Total
			w[idx] = orig
			fd := (up - dn) / (2 * h)
			if math.Abs(fd-grad[idx]) > 1e-5*(1+math.Abs(fd)) {
				t.Errorf("seed %d idx %d: analytic %g vs finite-diff %g", seed, idx, grad[idx], fd)
			}
		}
	}
}

// TestGradientParallelMatchesFiniteDifference repeats the finite-difference
// validation against the sharded kernels on a problem large enough to span
// many gate and edge shards, for several worker counts — a shard-boundary
// bug (an edge or gate dropped or double-counted at a chunk seam) cannot
// hide from the derivative check. The GradientPaper mode is deliberately
// not the exact derivative (documented deviation), so for it the parallel
// kernel is instead pinned elementwise to the serial paper-mode kernel at
// the same probes.
func TestGradientParallelMatchesFiniteDifference(t *testing.T) {
	// 700 gates / 2600 edges → multiple 256-gate and 1024-edge shards.
	p := randProblem(t, 700, 4, 2600, 31)
	w := randW(p, 32)
	c := Coeffs{C1: 1.3, C2: 0.7, C3: 0.9, C4: 1.1}
	for _, workers := range []int{2, 3, 8} {
		grad := make([]float64, p.G*p.K)
		p.GradientParallel(w, c, GradientExact, grad, workers)

		const h = 1e-6
		for probe := 0; probe < 40; probe++ {
			idx := (probe * 7919) % len(w)
			orig := w[idx]
			w[idx] = orig + h
			up := p.CostParallel(w, c, workers).Total
			w[idx] = orig - h
			dn := p.CostParallel(w, c, workers).Total
			w[idx] = orig
			fd := (up - dn) / (2 * h)
			if math.Abs(fd-grad[idx]) > 1e-4*(1+math.Abs(fd)) {
				t.Errorf("workers %d idx %d: analytic %g vs finite-diff %g", workers, idx, grad[idx], fd)
			}
		}

		paperSerial := make([]float64, p.G*p.K)
		paperPar := make([]float64, p.G*p.K)
		p.Gradient(w, c, GradientPaper, paperSerial)
		p.GradientParallel(w, c, GradientPaper, paperPar, workers)
		for i := range paperSerial {
			if paperSerial[i] != paperPar[i] {
				t.Fatalf("workers %d: paper-mode grad[%d] differs from serial: %v vs %v",
					workers, i, paperSerial[i], paperPar[i])
			}
		}
	}
}

// The paper's printed formulas are NOT the exact derivatives (documented
// deviation); this test pins down that they differ at a generic point, so
// the two modes are genuinely distinct ablation arms.
func TestPaperGradientDiffersFromExact(t *testing.T) {
	p := randProblem(t, 10, 3, 15, 9)
	w := randW(p, 10)
	c := DefaultCoeffs()
	exact := make([]float64, p.G*p.K)
	paper := make([]float64, p.G*p.K)
	p.Gradient(w, c, GradientExact, exact)
	p.Gradient(w, c, GradientPaper, paper)
	var diff float64
	for i := range exact {
		diff += math.Abs(exact[i] - paper[i])
	}
	if diff < 1e-9 {
		t.Error("paper-mode gradient identical to exact mode; ablation arm is vacuous")
	}
}

func TestGradientModeString(t *testing.T) {
	if GradientExact.String() != "exact" || GradientPaper.String() != "paper" {
		t.Error("gradient mode names wrong")
	}
	if GradientMode(9).String() != "unknown" {
		t.Error("unknown mode name wrong")
	}
}

func TestAssignArgmax(t *testing.T) {
	p := tinyProblem(t)
	w := p.NewW()
	w[0*2+0], w[0*2+1] = 0.7, 0.3
	w[1*2+0], w[1*2+1] = 0.2, 0.8
	w[2*2+0], w[2*2+1] = 0.5, 0.5 // tie → lowest index
	w[3*2+0], w[3*2+1] = 0.0, 1.0
	got := p.Assign(w)
	want := []int{0, 1, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("label[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestPlaneTotals(t *testing.T) {
	p := tinyProblem(t)
	bias, area := p.PlaneTotals([]int{0, 0, 1, 1})
	if bias[0] != 3 || bias[1] != 7 {
		t.Errorf("bias = %v", bias)
	}
	if math.Abs(area[0]-0.3) > 1e-12 || math.Abs(area[1]-0.7) > 1e-12 {
		t.Errorf("area = %v", area)
	}
}

// Property: F1 is zero iff all labels coincide (for one-hot w), and always
// non-negative.
func TestF1Properties(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		k := int(kRaw%4) + 2
		p := randProblem(t, 15, k, 25, seed)
		labels := make([]int, p.G)
		same := p.DiscreteCost(labels, Coeffs{C1: 1}) // all zero labels
		if same.F1 != 0 {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		for i := range labels {
			labels[i] = rng.Intn(k)
		}
		return p.DiscreteCost(labels, Coeffs{C1: 1}).F1 >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: variance terms are invariant under plane relabeling
// (permutation), while F1 generally is not — the ordering of planes is
// physical (serial stack).
func TestF2F3PermutationInvariant(t *testing.T) {
	p := randProblem(t, 20, 3, 30, 5)
	rng := rand.New(rand.NewSource(6))
	labels := make([]int, p.G)
	for i := range labels {
		labels[i] = rng.Intn(3)
	}
	perm := []int{2, 0, 1}
	permuted := make([]int, p.G)
	for i := range labels {
		permuted[i] = perm[labels[i]]
	}
	a := p.DiscreteCost(labels, Coeffs{C2: 1, C3: 1})
	b := p.DiscreteCost(permuted, Coeffs{C2: 1, C3: 1})
	if math.Abs(a.F2-b.F2) > 1e-12 || math.Abs(a.F3-b.F3) > 1e-12 {
		t.Errorf("variance terms not permutation invariant: %+v vs %+v", a, b)
	}
}

// TestFastUpdateMatchesGeneral drives the descent kernels by hand and, on
// every iteration, runs the update pass twice from the same state: once
// through gradUpdate (which picks a fast path) and once through the general
// path. W and the velocity must agree bit for bit, and so must the Σg²
// partials and clamp counts a traced solve reports — the telemetry the
// golden digests do not cover. The problems span the fast
// paths' inputs: edge weights, an active plane term, and gates without
// edges (whose zero neighbor sum takes the all-zero F1 factors).
func TestFastUpdateMatchesGeneral(t *testing.T) {
	ksa := traceProblem(t, "KSA16", 5)
	limited := traceProblem(t, "KSA16", 5)
	var totalBias float64
	for _, b := range limited.Bias {
		totalBias += b
	}
	// A budget below the mean plane load keeps the hinge active.
	limited.PlaneTerms = []PlaneTerm{{Kind: PlaneCurrentLimit, Weight: 1, Limit: 0.8 * totalBias / 5}}
	isolated := func() *Problem {
		rng := rand.New(rand.NewSource(8))
		g := 600
		bias := make([]float64, g)
		area := make([]float64, g)
		for i := range bias {
			bias[i] = 0.5 + rng.Float64()
			area[i] = 0.001 + 0.005*rng.Float64()
		}
		var edges [][2]int
		for len(edges) < 500 {
			if a, b := rng.Intn(g/2), rng.Intn(g/2); a != b {
				edges = append(edges, [2]int{a, b})
			}
		}
		p, err := NewProblem("isolated-tail", 4, bias, area, edges)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}()
	problems := map[string]*Problem{
		"KSA16":         ksa,
		"weighted":      goldenWeightedProblem(t),
		"plane-term":    limited,
		"isolated-tail": isolated,
	}
	c := DefaultCoeffs()
	for name, p := range problems {
		for _, mom := range []float64{0, 0.9} {
			for _, traced := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/momentum=%g/traced=%v", name, mom, traced), func(t *testing.T) {
					checkFastUpdate(t, p, c, mom, traced)
				})
			}
		}
	}
}

func checkFastUpdate(t *testing.T, p *Problem, c Coeffs, mom float64, traced bool) {
	t.Helper()
	sc := p.newScratch(pool.Ephemeral(1))
	sc.wantNorm = traced
	w := p.NewW()
	p.randomInitW(w, 5)
	var vel []float64
	if mom > 0 {
		vel = make([]float64, len(w))
	}
	grad := make([]float64, len(w))
	p.gradientWith(w, c, GradientExact, grad, sc)
	maxAbs := 0.0
	for _, g := range grad {
		maxAbs = math.Max(maxAbs, math.Abs(g))
	}
	// A larger first move than the solver's default drives rows into the
	// clamp bounds early, so the clamp counts are exercised.
	sc.setDescentState(p, c, GradientExact, 0.2/maxAbs, mom, vel, false, false)
	shards := pool.Shards(p.G, gateChunk)
	bitsEqual := func(a, b []float64) bool {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return len(a) == len(b)
	}
	clamps := 0
	for iter := 0; iter < 60; iter++ {
		p.evalIter(w, c, GradientExact, sc)
		gw := append(W(nil), w...)
		var gv []float64
		if vel != nil {
			gv = append([]float64(nil), vel...)
		}
		sc.w, sc.velocity = gw, gv
		for s := 0; s < shards; s++ {
			p.gradUpdateGeneralShard(sc, s)
		}
		gNorm := append([]float64(nil), sc.partNorm...)
		gClamp := append([]int(nil), sc.clamp...)

		sc.w, sc.velocity = w, vel
		p.gradUpdate(sc)
		switch {
		case !bitsEqual(w, gw):
			t.Fatalf("iteration %d: W differs from the general path", iter)
		case !bitsEqual(vel, gv):
			t.Fatalf("iteration %d: velocity differs from the general path", iter)
		}
		if traced {
			if !bitsEqual(sc.partNorm, gNorm) {
				t.Fatalf("iteration %d: Σg² partials %v, general path %v", iter, sc.partNorm, gNorm)
			}
			if fmt.Sprint(sc.clamp) != fmt.Sprint(gClamp) {
				t.Fatalf("iteration %d: clamp counts %v, general path %v", iter, sc.clamp, gClamp)
			}
			for _, n := range gClamp {
				clamps += n
			}
		}
	}
	if traced && clamps == 0 {
		t.Error("no entry was ever clamped; the clamp counts went untested")
	}
}
