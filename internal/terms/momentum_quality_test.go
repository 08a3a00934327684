package terms_test

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"gpp/internal/gen"
	"gpp/internal/partition"
	"gpp/internal/recycle"
	"gpp/internal/terms"
)

// The momentum quality gate. MomentumAuto is the serve daemon's default, so
// on every objective the daemon serves it must be at least as good as the
// paper's plain steps: testdata/momentum_quality.json records the
// momentum-0 means over Table I × seeds 1–3 at K = 5, and the auto means
// may not have a higher I_comp or A_FS or a lower d≤1. Objectives with
// plane terms (current_limit) resolve to plain steps, so there every auto
// solve must also be bitwise the momentum-0 solve.
var updateMomentumQuality = flag.Bool("update-momentum-quality", false,
	"rewrite testdata/momentum_quality.json from momentum-0 solves")

const momentumQualityPath = "testdata/momentum_quality.json"

// qualityObjectives are the serve-durable objectives: the default term set
// and each regime term on its own.
var qualityObjectives = []string{"default", "xesfq", "current_limit", "timing_critical"}

// qualityMeans are one objective's means over the 39 Table I solves.
type qualityMeans struct {
	ICompPct      float64 `json:"icomp_pct"`
	AFSPct        float64 `json:"afs_pct"`
	DLE1Pct       float64 `json:"dle1_pct"`
	ItersPerSolve float64 `json:"iters_per_solve"`
}

type qualitySolve struct {
	res *partition.Result
	m   *recycle.Metrics
}

// solveObjective runs every Table I circuit at seeds 1–3 under one
// objective and momentum, spread over a few goroutines; the results come
// back in (circuit, seed) order.
func solveObjective(t *testing.T, objective string, momentum float64) []qualitySolve {
	t.Helper()
	type job struct {
		circuit string
		seed    int64
	}
	var jobs []job
	for _, name := range gen.BenchmarkNames {
		for seed := int64(1); seed <= 3; seed++ {
			jobs = append(jobs, job{name, seed})
		}
	}
	out := make([]qualitySolve, len(jobs))
	errs := make([]error, len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(runtime.NumCPU(), 4); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = solveOne(jobs[i].circuit, objective, jobs[i].seed, momentum)
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s/%s seed %d: %v", objective, jobs[i].circuit, jobs[i].seed, err)
		}
	}
	return out
}

func solveOne(circuit, objective string, seed int64, momentum float64) (qualitySolve, error) {
	c, err := gen.Benchmark(circuit, nil)
	if err != nil {
		return qualitySolve{}, err
	}
	opts := partition.Options{Seed: seed, Workers: 1, Momentum: momentum}
	if objective != "default" {
		opts.Terms = []partition.TermSpec{{Name: objective}}
	}
	p, opts, err := terms.BuildProblem(c, 5, opts, nil)
	if err != nil {
		return qualitySolve{}, err
	}
	res, err := p.Solve(opts)
	if err != nil {
		return qualitySolve{}, err
	}
	m, err := recycle.Evaluate(p, res.Labels)
	if err != nil {
		return qualitySolve{}, err
	}
	return qualitySolve{res, m}, nil
}

func means(solves []qualitySolve) qualityMeans {
	var q qualityMeans
	for _, s := range solves {
		q.ICompPct += s.m.ICompPct
		q.AFSPct += s.m.AFreePct
		q.DLE1Pct += s.m.DistLEPct(1)
		q.ItersPerSolve += float64(s.res.Iters)
	}
	n := float64(len(solves))
	q.ICompPct /= n
	q.AFSPct /= n
	q.DLE1Pct /= n
	q.ItersPerSolve /= n
	return q
}

// TestMomentumAutoQualityGate is the gate described above. It is skipped
// under -short: 195 full-length Table I solves take several seconds.
func TestMomentumAutoQualityGate(t *testing.T) {
	if testing.Short() {
		t.Skip("momentum quality gate runs full Table I solves; skipped in -short mode")
	}
	if *updateMomentumQuality {
		writeMomentumQuality(t)
		return
	}
	raw, err := os.ReadFile(momentumQualityPath)
	if err != nil {
		t.Fatalf("%v (run with -update-momentum-quality to create it)", err)
	}
	var recorded map[string]json.RawMessage
	if err := json.Unmarshal(raw, &recorded); err != nil {
		t.Fatal(err)
	}
	for _, objective := range qualityObjectives {
		objective := objective
		t.Run(objective, func(t *testing.T) {
			var base qualityMeans
			msg, ok := recorded[objective]
			if !ok {
				t.Fatalf("no momentum-0 means recorded for %s", objective)
			}
			if err := json.Unmarshal(msg, &base); err != nil {
				t.Fatal(err)
			}
			auto := solveObjective(t, objective, partition.MomentumAuto)
			got := means(auto)
			t.Logf("%s: momentum 0 → auto: iters/solve %.0f → %.0f, I_comp %.2f → %.2f %%, A_FS %.2f → %.2f %%, d≤1 %.2f → %.2f %%",
				objective, base.ItersPerSolve, got.ItersPerSolve, base.ICompPct, got.ICompPct,
				base.AFSPct, got.AFSPct, base.DLE1Pct, got.DLE1Pct)
			if got.ICompPct > base.ICompPct {
				t.Errorf("mean I_comp %.4f %% above the momentum-0 %.4f %%", got.ICompPct, base.ICompPct)
			}
			if got.AFSPct > base.AFSPct {
				t.Errorf("mean A_FS %.4f %% above the momentum-0 %.4f %%", got.AFSPct, base.AFSPct)
			}
			if got.DLE1Pct < base.DLE1Pct {
				t.Errorf("mean d≤1 %.4f %% below the momentum-0 %.4f %%", got.DLE1Pct, base.DLE1Pct)
			}
			if objective != "current_limit" {
				return
			}
			plain := solveObjective(t, objective, 0)
			for i := range plain {
				a, b := auto[i].res, plain[i].res
				if !reflect.DeepEqual(a.W, b.W) || !reflect.DeepEqual(a.Labels, b.Labels) ||
					a.Iters != b.Iters || a.Relaxed != b.Relaxed || a.Discrete != b.Discrete ||
					math.Float64bits(a.StepSize) != math.Float64bits(b.StepSize) {
					t.Fatalf("solve %d: MomentumAuto is not bitwise the momentum-0 solve", i)
				}
			}
		})
	}
}

func writeMomentumQuality(t *testing.T) {
	out := map[string]any{
		"_comment": "Momentum-0 means for TestMomentumAutoQualityGate: Table I (13 circuits) × seeds 1–3 at K = 5, Workers 1, one objective per entry, metrics from recycle.Evaluate on the compiled problem. MomentumAuto solves may not exceed icomp_pct or afs_pct or fall below dle1_pct. iters_per_solve is informational. Regenerate with go test ./internal/terms -run TestMomentumAutoQualityGate -update-momentum-quality only when the momentum-0 solver itself changes.",
	}
	for _, objective := range qualityObjectives {
		q := means(solveObjective(t, objective, 0))
		out[objective] = q
		t.Logf("%s: %+v", objective, q)
	}
	raw, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(momentumQualityPath, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", momentumQualityPath)
}
