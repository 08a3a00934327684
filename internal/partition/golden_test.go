package partition

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"gpp/internal/gen"
	"gpp/internal/obs"
)

// The golden kernel hashes pin the solver's exact floating-point output.
// They were generated by the pre-PR-9 full-sweep kernel via -update-golden
// and every kernel rewrite since (incremental dirty-shard skipping, the
// fused gradient+update pass, the specialized row kernels) must keep
// reproducing them bit for bit: the hash covers the full W matrix bits,
// labels, iteration count, convergence flag, step size, both cost
// breakdowns, and the cost trace when present. Regenerate ONLY when an
// intentional result-changing algorithm change ships (none so far).
var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden_kernel.json from the current kernel's output")

const goldenPath = "testdata/golden_kernel.json"

// goldenHash digests everything Result promises deterministically.
func goldenHash(res *Result) string {
	h := sha256.New()
	var buf [8]byte
	putU := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putF := func(v float64) { putU(math.Float64bits(v)) }
	putU(uint64(res.Iters))
	if res.Converged {
		putU(1)
	} else {
		putU(0)
	}
	putF(res.StepSize)
	for _, v := range res.W {
		putF(v)
	}
	for _, lb := range res.Labels {
		putU(uint64(lb))
	}
	for _, bd := range []Breakdown{res.Relaxed, res.Discrete} {
		putF(bd.F1)
		putF(bd.F2)
		putF(bd.F3)
		putF(bd.F4)
		putF(bd.Total)
	}
	putU(uint64(res.RefineMoves))
	putU(uint64(len(res.CostTrace)))
	for _, v := range res.CostTrace {
		putF(v)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

type goldenCase struct {
	name    string
	problem func(t *testing.T) *Problem
	opts    Options
	slow    bool // full-length / large-circuit legs, skipped in -short
}

func tableIProblem(circuit string, k int) func(t *testing.T) *Problem {
	return func(t *testing.T) *Problem {
		t.Helper()
		c, err := gen.Benchmark(circuit, nil)
		if err != nil {
			t.Fatal(err)
		}
		p, err := FromCircuit(c, k)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
}

// goldenWeightedProblem is a fixed synthetic with explicit edge weights so
// the weighted kernel branches are pinned too.
func goldenWeightedProblem(t *testing.T) *Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	g, e := 640, 2200
	bias := make([]float64, g)
	area := make([]float64, g)
	for i := range bias {
		bias[i] = 0.5 + rng.Float64()
		area[i] = 0.001 + 0.005*rng.Float64()
	}
	edges := make([][2]int, 0, e)
	weights := make([]float64, 0, e)
	for len(edges) < e {
		a, b := rng.Intn(g), rng.Intn(g)
		if a != b {
			edges = append(edges, [2]int{a, b})
			weights = append(weights, 1+float64(rng.Intn(3)))
		}
	}
	p, err := NewWeightedProblem("golden-weighted", 5, bias, area, edges, weights)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	// Every Table-I circuit at default options, bounded iterations.
	for _, circuit := range gen.BenchmarkNames {
		cases = append(cases, goldenCase{
			name:    "tableI/" + circuit,
			problem: tableIProblem(circuit, 5),
			opts:    Options{MaxIters: 120},
		})
	}
	// Option variants on two mid-size circuits: each exercises a distinct
	// update/gradient code path that must survive the kernel rewrite.
	variants := []struct {
		name string
		opts Options
	}{
		{"momentum", Options{MaxIters: 120, Momentum: 0.5}},
		{"reduceDims", Options{MaxIters: 120, ReduceDims: true}},
		{"renormalize", Options{MaxIters: 120, Renormalize: true}},
		{"paper", Options{MaxIters: 120, Gradient: GradientPaper}},
		{"refine", Options{MaxIters: 120, Refine: true}},
		{"learnRate", Options{MaxIters: 120, LearnRate: 0.05}},
		{"trace", Options{MaxIters: 120, TraceCost: true}},
		{"momentum+paper+refine", Options{MaxIters: 120, Momentum: 0.9,
			Gradient: GradientPaper, Refine: true}},
		{"seed7", Options{MaxIters: 120, Seed: 7}},
	}
	for _, circuit := range []string{"KSA16", "C499"} {
		for _, v := range variants {
			cases = append(cases, goldenCase{
				name:    "variant/" + circuit + "/" + v.name,
				problem: tableIProblem(circuit, 5),
				opts:    v.opts,
			})
		}
	}
	cases = append(cases, goldenCase{
		name:    "weighted/default",
		problem: func(t *testing.T) *Problem { return goldenWeightedProblem(t) },
		opts:    Options{MaxIters: 120},
	})
	cases = append(cases, goldenCase{
		name:    "weighted/momentum",
		problem: func(t *testing.T) *Problem { return goldenWeightedProblem(t) },
		opts:    Options{MaxIters: 120, Momentum: 0.5},
	})
	// Slow tier: full-length convergence runs plus the 100k-gate synthetic
	// the acceptance contract names explicitly.
	for _, circuit := range []string{"KSA32", "C3540"} {
		cases = append(cases, goldenCase{
			name:    "full/" + circuit,
			problem: tableIProblem(circuit, 5),
			opts:    Options{},
			slow:    true,
		})
	}
	cases = append(cases, goldenCase{
		name:    "full/par100000",
		problem: tableIProblem("par100000", 5),
		opts:    Options{MaxIters: 40},
		slow:    true,
	})
	return cases
}

// TestGoldenKernelParity solves every golden case at Workers 1, 2 and 4,
// untraced and again under a no-op Tracer (the configuration every served
// job runs in), and requires the digest of each run to equal the recorded
// golden — proving in one shot that (a) the current kernel is bitwise
// identical to the pre-PR-9 kernel, (b) the worker count still never
// changes a bit, and (c) the traced update paths (which also accumulate
// the Σg² and clamp-count telemetry) are bitwise equal to the untraced
// ones.
func TestGoldenKernelParity(t *testing.T) {
	golden := map[string]string{}
	if !*updateGolden {
		raw, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("golden file missing (run with -update-golden to create): %v", err)
		}
		if err := json.Unmarshal(raw, &golden); err != nil {
			t.Fatal(err)
		}
	}
	updated := map[string]string{}
	for _, tc := range goldenCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if tc.slow && testing.Short() {
				t.Skip("slow golden leg skipped in -short mode")
			}
			p := tc.problem(t)
			var first string
			for _, tracer := range []obs.Tracer{nil, obs.Nop()} {
				for _, workers := range []int{1, 2, 4} {
					opts := tc.opts
					opts.Workers = workers
					opts.Tracer = tracer
					res, err := p.Solve(opts)
					if err != nil {
						t.Fatal(err)
					}
					hash := goldenHash(res)
					if first == "" {
						first = hash
					} else if hash != first {
						t.Fatalf("workers=%d traced=%v hash %s differs from untraced workers=1 hash %s",
							workers, tracer != nil, hash, first)
					}
				}
			}
			if *updateGolden {
				updated[tc.name] = first
				return
			}
			want, ok := golden[tc.name]
			if !ok {
				t.Fatalf("no golden recorded for %s (run with -update-golden)", tc.name)
			}
			if first != want {
				t.Fatalf("kernel output diverged from pre-PR-9 golden:\n got %s\nwant %s", first, want)
			}
		})
	}
	if *updateGolden {
		if testing.Short() {
			t.Fatal("-update-golden must run without -short (the slow legs need goldens too)")
		}
		// Merge so a partial -run filter never drops existing entries.
		if raw, err := os.ReadFile(goldenPath); err == nil {
			old := map[string]string{}
			if err := json.Unmarshal(raw, &old); err == nil {
				for k, v := range old {
					if _, ok := updated[k]; !ok {
						updated[k] = v
					}
				}
			}
		}
		names := make([]string, 0, len(updated))
		for k := range names {
			_ = k
		}
		for k := range updated {
			names = append(names, k)
		}
		sort.Strings(names)
		ordered := make(map[string]string, len(updated))
		for _, k := range names {
			ordered[k] = updated[k]
		}
		raw, err := json.MarshalIndent(ordered, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d goldens to %s", len(updated), goldenPath)
	}
}
