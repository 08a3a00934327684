package partition

import (
	"context"
	"errors"
	"runtime"
	"testing"
)

// TestSolvePortfolioMatchesSerialBest races the portfolio on every CPU
// against a plain serial loop of Solve over the same seeds: the lowest
// discrete cost wins, and the lowest seed wins ties.
func TestSolvePortfolioMatchesSerialBest(t *testing.T) {
	p := randProblem(t, 60, 4, 110, 21)
	opts := Options{Seed: 5, MaxIters: 120}
	const restarts = 6
	var want *Result
	var wantSeed int64
	for r := 0; r < restarts; r++ {
		o := opts
		o.Seed = opts.Seed + int64(r)
		res, err := p.Solve(o)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil || res.Discrete.Total < want.Discrete.Total {
			want, wantSeed = res, o.Seed
		}
	}
	pf, err := p.SolvePortfolio(context.Background(), opts, PortfolioOptions{Restarts: restarts, Workers: runtime.NumCPU()})
	if err != nil {
		t.Fatal(err)
	}
	if pf.BestSeed != wantSeed || pf.Best.Discrete.Total != want.Discrete.Total {
		t.Errorf("portfolio best seed %d cost %g, serial best seed %d cost %g",
			pf.BestSeed, pf.Best.Discrete.Total, wantSeed, want.Discrete.Total)
	}
	for i := range want.Labels {
		if pf.Best.Labels[i] != want.Labels[i] {
			t.Fatalf("portfolio best labels diverge from serial best at %d", i)
		}
	}
	if len(pf.Seeds) != restarts {
		t.Fatalf("got %d seed summaries, want %d", len(pf.Seeds), restarts)
	}
	bestTotal := pf.Seeds[0].Discrete.Total
	for r, sr := range pf.Seeds {
		if sr.Seed != opts.Seed+int64(r) {
			t.Errorf("summary %d has seed %d, want %d", r, sr.Seed, opts.Seed+int64(r))
		}
		if sr.Iters <= 0 {
			t.Errorf("summary %d reports %d iterations", r, sr.Iters)
		}
		if sr.Discrete.Total < bestTotal {
			bestTotal = sr.Discrete.Total
		}
	}
	if pf.Best.Discrete.Total != bestTotal {
		t.Errorf("Best.Discrete.Total %g is not the minimum summary total %g", pf.Best.Discrete.Total, bestTotal)
	}
}

func TestSolvePortfolioDeterministicAcrossWorkers(t *testing.T) {
	p := randProblem(t, 80, 5, 150, 22)
	opts := Options{Seed: 9, MaxIters: 100}
	po := PortfolioOptions{Restarts: 5, Workers: 1}
	want, err := p.SolvePortfolio(context.Background(), opts, po)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 3, 8} {
		po.Workers = workers
		got, err := p.SolvePortfolio(context.Background(), opts, po)
		if err != nil {
			t.Fatal(err)
		}
		if got.BestSeed != want.BestSeed {
			t.Errorf("workers %d: best seed %d, want %d", workers, got.BestSeed, want.BestSeed)
		}
		requireIdenticalResults(t, "portfolio best", want.Best, got.Best)
		for r := range want.Seeds {
			if want.Seeds[r] != got.Seeds[r] {
				t.Errorf("workers %d: seed summary %d differs: %+v vs %+v", workers, r, want.Seeds[r], got.Seeds[r])
			}
		}
	}
}

func TestSolvePortfolioTieBreaksToLowestSeed(t *testing.T) {
	// A problem with no edges and uniform gates: every seed converges to
	// the same discrete cost, so the winner must be the first seed.
	bias := make([]float64, 20)
	area := make([]float64, 20)
	for i := range bias {
		bias[i], area[i] = 1, 1
	}
	p, err := NewProblem("flat", 2, bias, area, nil)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := p.SolvePortfolio(context.Background(), Options{Seed: 7, MaxIters: 50},
		PortfolioOptions{Restarts: 4, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range pf.Seeds {
		if sr.Discrete.Total != pf.Seeds[0].Discrete.Total {
			t.Skip("seeds did not tie; tie-break not exercised")
		}
	}
	if pf.BestSeed != 7 {
		t.Errorf("tie broke to seed %d, want the lowest seed 7", pf.BestSeed)
	}
}

func TestSolvePortfolioCancellation(t *testing.T) {
	p := randProblem(t, 40, 3, 70, 23)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := p.SolvePortfolio(ctx, Options{Seed: 1, MaxIters: 50},
		PortfolioOptions{Restarts: 8, Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestSolvePortfolioValidation(t *testing.T) {
	p := randProblem(t, 20, 3, 30, 24)
	if _, err := p.SolvePortfolio(context.Background(), Options{}, PortfolioOptions{Restarts: 0}); err == nil {
		t.Error("zero restarts accepted")
	}
	if _, err := p.SolvePortfolio(context.Background(), Options{}, PortfolioOptions{Restarts: -3}); err == nil {
		t.Error("negative restarts accepted")
	}
	if _, err := p.SolvePortfolio(context.Background(), Options{}, PortfolioOptions{Restarts: 2, Workers: -1}); err == nil {
		t.Error("negative portfolio workers accepted")
	}
	if _, err := p.SolvePortfolio(context.Background(), Options{Workers: -2}, PortfolioOptions{Restarts: 2}); err == nil {
		t.Error("invalid base options accepted")
	}
	// nil context must behave as context.Background(), not panic.
	if _, err := p.SolvePortfolio(nil, Options{Seed: 1, MaxIters: 20}, PortfolioOptions{Restarts: 2}); err != nil {
		t.Errorf("nil context: %v", err)
	}
}

func TestSolvePortfolioImprovesOnWorstSeed(t *testing.T) {
	p := randProblem(t, 70, 4, 130, 25)
	pf, err := p.SolvePortfolio(context.Background(), Options{Seed: 1, MaxIters: 200},
		PortfolioOptions{Restarts: 5, Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	worst := pf.Seeds[0].Discrete.Total
	for _, sr := range pf.Seeds {
		if sr.Discrete.Total > worst {
			worst = sr.Discrete.Total
		}
	}
	if pf.Best.Discrete.Total > worst {
		t.Errorf("best %g exceeds worst seed %g", pf.Best.Discrete.Total, worst)
	}
}
