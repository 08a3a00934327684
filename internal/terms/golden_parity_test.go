package terms_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"

	"gpp/internal/gen"
	"gpp/internal/multilevel"
	"gpp/internal/partition"
	"gpp/internal/terms"
)

// The registry's acceptance bar: the default term set — f1..f4 spelled
// explicitly — must compile to *exactly* the historical kernel path. These
// tests prove it against the same pre-PR-9 golden hashes the partition
// package pins, across worker counts and through the multilevel V-cycle.

// defaultSet spells the paper objective through the registry instead of
// relying on the empty-Terms fast path: the weights must fold away into
// the default coefficients without moving a bit.
func defaultSet() []partition.TermSpec {
	return []partition.TermSpec{
		{Name: "f1", Weight: 1}, {Name: "f2", Weight: 1},
		{Name: "f3", Weight: 1}, {Name: "f4", Weight: 1},
	}
}

// parityHash mirrors the partition package's goldenHash: a digest of
// everything Result promises deterministically.
func parityHash(res *partition.Result) string {
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
	for _, bd := range []partition.Breakdown{res.Relaxed, res.Discrete} {
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

func parityWorkers() []int {
	out := []int{1, 2}
	if n := runtime.NumCPU(); n != 1 && n != 2 {
		out = append(out, n)
	}
	return out
}

// TestRegistryDefaultSetGoldenParity solves every Table-I golden fixture
// with the default set spelled through the registry and requires the
// digest to equal the recorded pre-PR-9 golden at Workers 1, 2 and
// NumCPU — the registry adds zero drift to the historical kernel.
func TestRegistryDefaultSetGoldenParity(t *testing.T) {
	raw, err := os.ReadFile("../partition/testdata/golden_kernel.json")
	if err != nil {
		t.Fatalf("golden fixtures missing: %v", err)
	}
	golden := map[string]string{}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	for _, circuit := range gen.BenchmarkNames {
		circuit := circuit
		t.Run(circuit, func(t *testing.T) {
			want, ok := golden["tableI/"+circuit]
			if !ok {
				t.Fatalf("no golden recorded for tableI/%s", circuit)
			}
			c, err := gen.Benchmark(circuit, nil)
			if err != nil {
				t.Fatal(err)
			}
			opts := partition.Options{MaxIters: 120, Terms: defaultSet()}
			p, n, err := terms.BuildProblem(c, 5, opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(n.Terms) != 0 {
				t.Fatalf("default set survived normalization: %+v", n.Terms)
			}
			for _, workers := range parityWorkers() {
				o := n
				o.Workers = workers
				res, err := p.Solve(o)
				if err != nil {
					t.Fatal(err)
				}
				if got := parityHash(res); got != want {
					t.Fatalf("workers=%d: registry default set diverged from golden:\n got %s\nwant %s",
						workers, got, want)
				}
			}
		})
	}
}

// TestRegistryDefaultSetMultilevelParity: the V-cycle on a registry-built
// problem reproduces the V-cycle on the direct problem exactly.
func TestRegistryDefaultSetMultilevelParity(t *testing.T) {
	c, err := gen.Benchmark("KSA32", nil)
	if err != nil {
		t.Fatal(err)
	}
	solver := partition.Options{MaxIters: 120}
	legacy, err := partition.FromCircuit(c, 5)
	if err != nil {
		t.Fatal(err)
	}
	mo := multilevel.Options{Solver: solver}
	want, err := multilevel.Partition(legacy, mo)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := terms.BuildProblem(c, 5, partition.Options{MaxIters: 120, Terms: defaultSet()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := multilevel.Partition(p, mo)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Labels) != len(want.Labels) {
		t.Fatalf("label count %d != %d", len(got.Labels), len(want.Labels))
	}
	for i := range want.Labels {
		if got.Labels[i] != want.Labels[i] {
			t.Fatalf("label %d: registry %d != direct %d", i, got.Labels[i], want.Labels[i])
		}
	}
	if math.Float64bits(got.Discrete.Total) != math.Float64bits(want.Discrete.Total) {
		t.Fatalf("discrete total %x != %x",
			math.Float64bits(got.Discrete.Total), math.Float64bits(want.Discrete.Total))
	}
}

// FuzzTermWeightsFingerprint (satellite): distinct canonical weight
// vectors must produce distinct option fingerprints — the property the
// serve cache and the sweep cell keys lean on — and equal vectors must
// collide. Weights/params are kept positive so the 0-means-default rule
// never aliases two spellings.
func FuzzTermWeightsFingerprint(f *testing.F) {
	f.Add(1.0, 2.0, 80.0, 120.0)
	f.Add(0.5, 0.5, 100.0, 100.0)
	f.Add(3.0, 1e-3, 60.0, 90.0)
	f.Fuzz(func(t *testing.T, w1, w2, p1, p2 float64) {
		pos := func(v float64) bool { return v > 0 && !math.IsInf(v, 0) }
		if !pos(w1) || !pos(w2) || !pos(p1) || !pos(p2) {
			t.Skip("weights/params restricted to positive finite values")
		}
		fp := func(specs ...partition.TermSpec) string {
			o := partition.Options{Terms: specs}
			s, err := o.Fingerprint()
			if err != nil {
				t.Fatalf("fingerprint %+v: %v", specs, err)
			}
			return s
		}
		a := fp(partition.TermSpec{Name: "current_limit", Weight: w1, Param: p1})
		b := fp(partition.TermSpec{Name: "current_limit", Weight: w2, Param: p2})
		if same := w1 == w2 && p1 == p2; same != (a == b) {
			t.Fatalf("weight vectors (%g,%g) vs (%g,%g): fingerprints equal=%v, want %v",
				w1, p1, w2, p2, a == b, same)
		}
		// Adding a term always changes the identity.
		c := fp(
			partition.TermSpec{Name: "current_limit", Weight: w1, Param: p1},
			partition.TermSpec{Name: "timing_critical", Weight: w2},
		)
		if c == a {
			t.Fatalf("adding timing_critical:%g did not change the fingerprint", w2)
		}
	})
}
