package partition

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"
)

func TestNormalizeFillsDefaults(t *testing.T) {
	n, err := Options{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.Coeffs != DefaultCoeffs() {
		t.Errorf("coeffs not defaulted: %+v", n.Coeffs)
	}
	if n.Margin != 1e-4 {
		t.Errorf("margin = %g, want 1e-4", n.Margin)
	}
	if n.MaxIters != 4000 {
		t.Errorf("max iters = %d, want 4000", n.MaxIters)
	}
	if n.Seed != 1 {
		t.Errorf("seed = %d, want 1", n.Seed)
	}
	if n.RefinePasses != 8 {
		t.Errorf("refine passes = %d, want 8", n.RefinePasses)
	}
	if n.InitStep != 0 {
		t.Errorf("K-independent Normalize must leave InitStep unset, got %g", n.InitStep)
	}
}

func TestNormalizeForResolvesInitStep(t *testing.T) {
	n, err := Options{}.NormalizeFor(5)
	if err != nil {
		t.Fatal(err)
	}
	if n.InitStep != 0.25/5 {
		t.Errorf("init step = %g, want %g", n.InitStep, 0.25/5)
	}
	// An explicit InitStep survives.
	n, err = Options{InitStep: 0.125}.NormalizeFor(5)
	if err != nil {
		t.Fatal(err)
	}
	if n.InitStep != 0.125 {
		t.Errorf("explicit init step overwritten: %g", n.InitStep)
	}
}

func TestNormalizeRejectsBadOptions(t *testing.T) {
	bad := []Options{
		{Margin: math.NaN()},
		{Margin: math.Inf(1)},
		{Margin: 1.5},
		{LearnRate: math.NaN()},
		{LearnRate: -0.1},
		{InitStep: math.Inf(-1)},
		{Momentum: 1.0},
		{Workers: -1},
		{MaxIters: -1},
		{RefinePasses: -2},
		{Renormalize: true, ReduceDims: true},
	}
	for i, o := range bad {
		if _, err := o.Normalize(); err == nil {
			t.Errorf("case %d: Normalize accepted invalid options %+v", i, o)
		}
		if _, err := o.Fingerprint(); err == nil {
			t.Errorf("case %d: Fingerprint accepted invalid options %+v", i, o)
		}
	}
}

// TestFingerprintSpellingEquivalence is the cache-key contract: two
// spellings of the same solve hash identically, and execution-only knobs
// (Workers, Tracer, TraceCost) never change the hash.
func TestFingerprintSpellingEquivalence(t *testing.T) {
	base, err := Options{}.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	spelled, err := Options{
		Coeffs:       DefaultCoeffs(),
		Margin:       1e-4,
		MaxIters:     4000,
		Seed:         1,
		RefinePasses: 8,
	}.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if base != spelled {
		t.Errorf("explicit-default spelling hashes differently:\n zero: %s\n full: %s", base, spelled)
	}
	execOnly, err := Options{Workers: 16, TraceCost: true}.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if execOnly != base {
		t.Error("Workers/TraceCost changed the fingerprint; they must be excluded")
	}
}

func TestFingerprintSeparatesSolves(t *testing.T) {
	base, err := Options{}.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	distinct := []Options{
		{Seed: 2},
		{Margin: 1e-3},
		{MaxIters: 100},
		{LearnRate: 0.05},
		{InitStep: 0.01},
		{Momentum: 0.5},
		{Momentum: autoMomentum},
		{Momentum: MomentumAuto},
		{Renormalize: true},
		{ReduceDims: true},
		{Gradient: GradientPaper},
		{Refine: true},
		{Coeffs: Coeffs{C1: 2, C2: 1, C3: 1, C4: 1}},
	}
	seen := map[string]int{base: -1}
	for i, o := range distinct {
		fp, err := o.Fingerprint()
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if prev, dup := seen[fp]; dup {
			t.Errorf("case %d collides with case %d: %+v", i, prev, o)
		}
		seen[fp] = i
	}
}

func TestSolveCtxCancellation(t *testing.T) {
	p := randProblem(t, 40, 4, 70, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.SolveCtx(ctx, Options{Seed: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled solve returned %v, want context.Canceled", err)
	}
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := p.SolveCtx(dctx, Options{Seed: 1}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired solve returned %v, want context.DeadlineExceeded", err)
	}
}

func TestSolveCtxMatchesSolve(t *testing.T) {
	p := randProblem(t, 40, 4, 70, 3)
	a, err := p.Solve(Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.SolveCtx(context.Background(), Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.Iters != b.Iters {
		t.Fatalf("iters differ: %d vs %d", a.Iters, b.Iters)
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatalf("label %d differs between Solve and SolveCtx", i)
		}
	}
}
