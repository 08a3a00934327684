package multilevel

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"unsafe"

	"gpp/internal/partition"
)

// TestVFingerprintMatchesParent pins the fingerprint a V-cycle writes into
// its checkpoints at values computed while every coarse level was still a
// Problem: the recorded level shapes hash the same, so V-cycle snapshots
// written before levels became compact still resume.
func TestVFingerprintMatchesParent(t *testing.T) {
	errStop := errors.New("stop after the first checkpoint")
	for _, c := range []struct {
		circuit string
		k       int
		want    string
	}{
		{"par2000", 4, "b51407971d1468ca2e23727584d586932d6e9df3fd8081c7ac83dfbdd29e6a40"},
		{"C1908", 5, "679148b1b6e5f229c476a23f3c1c79e50c20c1e83bf2760e33c77509f316a4d7"},
	} {
		p := benchProblem(t, c.circuit, c.k)
		var got string
		_, err := Partition(p, Options{
			Solver:          partition.Options{Seed: 1},
			CheckpointEvery: 1,
			Checkpoint: func(s *VSnapshot) error {
				got = s.Fingerprint
				return errStop
			},
		})
		if !errors.Is(err, errStop) {
			t.Fatalf("%s: V-cycle returned %v, want the checkpoint's stop", c.circuit, err)
		}
		if got != c.want {
			t.Errorf("%s K=%d: fingerprint %s, want %s", c.circuit, c.k, got, c.want)
		}
	}
}

// requireExact fails the test unless every slice of lv has cap == len.
func requireExact(t *testing.T, what string, lv level) {
	t.Helper()
	for name, lc := range map[string][2]int{
		"bias":         {len(lv.bias), cap(lv.bias)},
		"area":         {len(lv.area), cap(lv.area)},
		"edges":        {len(lv.edges), cap(lv.edges)},
		"weight":       {len(lv.weight), cap(lv.weight)},
		"fineToCoarse": {len(lv.fineToCoarse), cap(lv.fineToCoarse)},
	} {
		if lc[0] != lc[1] {
			t.Fatalf("%s %s: len %d, cap %d", what, name, lc[0], lc[1])
		}
	}
}

// TestHierarchyCompact: every coarse level is held once, in exactly sized
// compact arrays — 8 B per bias and area entry, 16 B per edge (int32 pair)
// and weight, 4 B per projection-map entry — and its recorded shape
// matches its data.
func TestHierarchyCompact(t *testing.T) {
	p := benchProblem(t, "par20000", 5)
	opts := Options{}.Normalize(p.K)
	h, err := buildHierarchy(p, opts, opts.Solver.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.levels) < 3 || len(h.shapes) != len(h.levels)+1 {
		t.Fatalf("%d levels, %d shapes", len(h.levels), len(h.shapes))
	}
	if h.shapes[0] != (shape{p.G, len(p.Edges)}) {
		t.Fatalf("level 0 shape %+v, problem %d/%d", h.shapes[0], p.G, len(p.Edges))
	}
	var retained, v, e, f int
	for li, lv := range h.levels {
		requireExact(t, fmt.Sprintf("level %d", li+1), lv)
		retained += cap(lv.bias)*int(unsafe.Sizeof(float64(0))) +
			cap(lv.area)*int(unsafe.Sizeof(float64(0))) +
			cap(lv.edges)*int(unsafe.Sizeof([2]int32{})) +
			cap(lv.weight)*int(unsafe.Sizeof(float64(0))) +
			cap(lv.fineToCoarse)*int(unsafe.Sizeof(int32(0)))
		sh := h.shapes[li+1]
		if len(lv.bias) != sh.g || len(lv.area) != sh.g || len(lv.edges) != sh.e || len(lv.weight) != sh.e {
			t.Errorf("level %d holds %d vertices / %d edges, recorded shape %+v", li+1, len(lv.bias), len(lv.edges), sh)
		}
		if len(lv.fineToCoarse) != h.shapes[li].g {
			t.Errorf("level %d map has %d entries for %d finer vertices", li+1, len(lv.fineToCoarse), h.shapes[li].g)
		}
		v += sh.g
		e += sh.e
		f += len(lv.fineToCoarse)
	}
	if want := 16*v + 16*e + 4*f; retained != want {
		t.Errorf("hierarchy retains %d B, want 16·%d + 16·%d + 4·%d = %d B", retained, v, e, f, want)
	}
}

// runHeld is PartitionCtx without spans, returning the hierarchy the cycle
// walked so a test can inspect what it still holds afterwards.
func runHeld(t *testing.T, p *partition.Problem, opts Options) (*Result, *hierarchy) {
	t.Helper()
	opts = opts.withDefaults(p.K)
	sNorm, err := opts.Solver.NormalizeFor(p.K)
	if err != nil {
		t.Fatal(err)
	}
	sNorm.Refine = false
	h, err := buildHierarchy(p, opts, sNorm.Seed)
	if err != nil {
		t.Fatal(err)
	}
	vfp, err := vFingerprint(p, opts, sNorm, h)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runVCycle(context.Background(), p, opts, sNorm, h, vfp)
	if err != nil {
		t.Fatal(err)
	}
	return res, h
}

// TestVCycleReleasesLevels: once a V-cycle finishes — run whole, or
// resumed in the middle of the hierarchy — no level still holds its
// arrays or its projection map.
func TestVCycleReleasesLevels(t *testing.T) {
	p := benchProblem(t, "C1908", 5)
	base := Options{Solver: partition.Options{Seed: 1, MaxIters: 80}}
	want, snaps := captureVCycle(t, p, base, 10)

	requireReleased := func(what string, h *hierarchy) {
		t.Helper()
		for li, lv := range h.levels {
			if lv.bias != nil || lv.area != nil || lv.edges != nil || lv.weight != nil || lv.fineToCoarse != nil {
				t.Errorf("%s: level %d still holds arrays", what, li+1)
			}
		}
	}
	got, h := runHeld(t, p, base)
	requireIdenticalVResults(t, "full cycle", want, got)
	requireReleased("full cycle", h)

	resumed := false
	for _, raw := range snaps {
		vs, err := DecodeVSnapshot(raw)
		if err != nil {
			t.Fatal(err)
		}
		if vs.Level == 0 || vs.Level == vs.Levels-1 || vs.Inner.Iter == 0 {
			continue // want a kill inside a refine level between the ends
		}
		ropts := base
		ropts.Resume = vs
		got, h := runHeld(t, p, ropts)
		requireIdenticalVResults(t, "resumed cycle", want, got)
		requireReleased("resumed cycle", h)
		resumed = true
		break
	}
	if !resumed {
		t.Fatalf("no mid-refine snapshot inside the hierarchy among %d", len(snaps))
	}
}

// FuzzCoarsen holds one contraction to its invariants on random weighted
// multigraphs (n ≤ 64, ≤ 256 edges, no self loops, small integer weights,
// biases and areas, so every sum is exact): sorted simple output edges
// whose weights sum the uncontracted input edges, conserved bias and area,
// one or two fine vertices per coarse vertex with a matched pair joined by
// an input edge, and exactly sized output slices.
func FuzzCoarsen(f *testing.F) {
	f.Add([]byte{4, 1, 2, 3, 4, 0, 1, 1, 1, 2, 2, 2, 3, 3}, int64(1), false)
	f.Add([]byte{3, 0xff, 0x10, 0x01, 0, 1, 0, 0, 1, 5, 1, 2, 7, 0, 2, 1}, int64(7), false)
	f.Add([]byte{6, 1, 1, 1, 1, 1, 1, 0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 4, 0, 0, 5, 0}, int64(3), true)
	f.Add([]byte{1, 9}, int64(2), false)
	f.Add([]byte{8, 1, 2, 3, 4, 5, 6, 7, 8}, int64(5), true)
	f.Fuzz(func(t *testing.T, data []byte, seed int64, unweighted bool) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%64
		data = data[1:]
		bias, area := make([]float64, n), make([]float64, n)
		for v := 0; v < n && v < len(data); v++ {
			bias[v], area[v] = float64(data[v]&15), float64(data[v]>>4)
		}
		data = data[min(n, len(data)):]
		var edges [][2]int32
		var weight []float64
		for i := 0; i+2 < len(data) && len(edges) < 256; i += 3 {
			a, b := int32(int(data[i])%n), int32(int(data[i+1])%n)
			if a == b {
				continue
			}
			edges = append(edges, [2]int32{a, b})
			weight = append(weight, float64(1+data[i+2]%8))
		}
		if unweighted {
			weight = nil
		}
		wt := func(i int) float64 {
			if weight == nil {
				return 1
			}
			return weight[i]
		}

		lv, ok := coarsen(bias, area, edges, weight, seed)
		if ok != (len(edges) > 0) {
			t.Fatalf("ok = %v with %d edges", ok, len(edges))
		}
		if !ok {
			return
		}
		nc := len(lv.bias)
		requireExact(t, "coarse level", lv)
		if len(lv.area) != nc || len(lv.fineToCoarse) != n || len(lv.weight) != len(lv.edges) {
			t.Fatalf("lengths: %d bias, %d area, %d map for %d vertices, %d edges, %d weights",
				nc, len(lv.area), len(lv.fineToCoarse), n, len(lv.edges), len(lv.weight))
		}

		// Preimages: one or two fine vertices per coarse vertex, a pair
		// joined by an input edge, and coarse bias/area their sums.
		pre := make([][]int32, nc)
		for v, c := range lv.fineToCoarse {
			if c < 0 || int(c) >= nc {
				t.Fatalf("vertex %d maps to %d of %d", v, c, nc)
			}
			pre[c] = append(pre[c], int32(v))
		}
		joined := map[[2]int32]bool{}
		for _, e := range edges {
			joined[[2]int32{min(e[0], e[1]), max(e[0], e[1])}] = true
		}
		var biasIn, areaIn, biasOut, areaOut float64
		for c, vs := range pre {
			var b, a float64
			for _, v := range vs {
				b += bias[v]
				a += area[v]
			}
			switch {
			case len(vs) != 1 && len(vs) != 2:
				t.Fatalf("coarse vertex %d has %d preimages", c, len(vs))
			case len(vs) == 2 && !joined[[2]int32{min(vs[0], vs[1]), max(vs[0], vs[1])}]:
				t.Fatalf("coarse vertex %d merges %v, which share no edge", c, vs)
			case lv.bias[c] != b || lv.area[c] != a:
				t.Fatalf("coarse vertex %d: bias/area %g/%g, preimages sum to %g/%g", c, lv.bias[c], lv.area[c], b, a)
			}
		}
		for v := range bias {
			biasIn += bias[v]
			areaIn += area[v]
		}
		for c := range lv.bias {
			biasOut += lv.bias[c]
			areaOut += lv.area[c]
		}
		if biasIn != biasOut || areaIn != areaOut {
			t.Fatalf("totals: bias %g → %g, area %g → %g", biasIn, biasOut, areaIn, areaOut)
		}

		// Edges: strictly increasing (a, b) pairs with a < b, each weighing
		// the input edges it collapses; the uncontracted input weight is
		// the output weight.
		want := map[[2]int32]float64{}
		var wIn, wOut float64
		for i, e := range edges {
			a, b := lv.fineToCoarse[e[0]], lv.fineToCoarse[e[1]]
			if a == b {
				continue
			}
			want[[2]int32{min(a, b), max(a, b)}] += wt(i)
			wIn += wt(i)
		}
		for i, e := range lv.edges {
			if e[0] >= e[1] || e[0] < 0 || int(e[1]) >= nc {
				t.Fatalf("output edge %d = %v", i, e)
			}
			if i > 0 {
				if p := lv.edges[i-1]; p[0] > e[0] || (p[0] == e[0] && p[1] >= e[1]) {
					t.Fatalf("output edges %d, %d out of order: %v, %v", i-1, i, p, e)
				}
			}
			if lv.weight[i] != want[e] {
				t.Fatalf("output edge %v weighs %g, its input edges %g", e, lv.weight[i], want[e])
			}
			wOut += lv.weight[i]
		}
		if len(lv.edges) != len(want) || wIn != wOut {
			t.Fatalf("%d output edges weighing %g, want %d weighing %g", len(lv.edges), wOut, len(want), wIn)
		}
	})
}
