package multilevel

import (
	"fmt"
	"math/rand"

	"gpp/internal/partition"
)

// level is one coarsened instance in the compact form the coarsener
// produces, plus the projection map from the finer level: levels[i] holds
// the data of level i+1 and the fineToCoarse map indexed by level-i
// vertices. Every slice is allocated at its exact length. The arrays live
// until the uncoarsening reaches the level (see hierarchy.buildProblem),
// the map until W has been projected through it.
type level struct {
	bias, area   []float64
	edges        [][2]int32
	weight       []float64
	fineToCoarse []int32 // indexed by finer-level vertex
}

// shape is one level's vertex and edge count, recorded when the level is
// built: the fingerprint, resume checks, Result and trace events read it
// while the level's own data may already be released.
type shape struct{ g, e int }

// hierarchy is the full coarsening chain: shapes[0] is the original
// problem's shape and shapes[i+1] the shape of the instance levels[i]
// holds.
type hierarchy struct {
	levels []level
	shapes []shape
}

// levelSeed derives one contraction's matching-order seed from the solver
// seed and the level index with a splitmix64-style finalizer. Each level's
// matching is therefore a pure function of (Solver.Seed, level) — the same
// deterministic RNG discipline as the solver's initialization, where the
// seed alone pins the entire stream. (The historical implementation
// threaded one shared *rand.Rand through every contraction, so a level's
// permutation depended on how many draws earlier levels consumed — an
// accident of hierarchy shape rather than a declared function of the
// options.)
func levelSeed(seed int64, level int) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*uint64(level+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// buildHierarchy coarsens the problem down to Options.CoarsestSize
// vertices (or until MaxLevels / no contraction), keeping every coarse
// level in its compact arrays; no coarse Problem exists yet. A level with
// fewer vertices than planes fails here, before any solve. Deterministic:
// the chain depends only on the problem and (seed, CoarsestSize,
// MaxLevels).
func buildHierarchy(p *partition.Problem, opts Options, seed int64) (*hierarchy, error) {
	h := &hierarchy{shapes: []shape{{p.G, len(p.Edges)}}}
	bias, area, edges, weight := p.Bias, p.Area, p.Edges, p.EdgeWeight
	for len(bias) > opts.CoarsestSize && len(h.levels) < opts.MaxLevels-1 {
		lv, ok := coarsen(bias, area, edges, weight, levelSeed(seed, len(h.levels)))
		if !ok {
			break // no contraction possible (edgeless residue)
		}
		li := len(h.levels) + 1
		if p.K > len(lv.bias) {
			// Coarsening can undershoot K on tiny inputs; pad is not
			// possible, so surface a clear error.
			return nil, fmt.Errorf("multilevel: level %q has %d vertices for K=%d", levelName(p, li), len(lv.bias), p.K)
		}
		h.levels = append(h.levels, lv)
		h.shapes = append(h.shapes, shape{len(lv.bias), len(lv.edges)})
		bias, area, edges, weight = lv.bias, lv.area, lv.edges, lv.weight
	}
	return h, nil
}

func levelName(p *partition.Problem, li int) string { return fmt.Sprintf("%s@L%d", p.Name, li) }

// buildProblem materializes level li as a weighted partition.Problem
// (level 0 is p itself) and releases the level's compact arrays, so the
// Problem is the level's only copy. An edge of weight w contributes to the
// cost exactly like w parallel connections (partition.NewWeightedProblem),
// without materializing the replicas. Coarse instances inherit the fine
// problem's compiled plane terms: contraction sums vertex biases, so
// per-plane bias sums — all these terms read — are preserved level by
// level. (Bias scaling and edge drops/weights were compiled into p before
// coarsening, so those regime effects propagate structurally.)
func (h *hierarchy) buildProblem(p *partition.Problem, li int) (*partition.Problem, error) {
	if li == 0 {
		return p, nil
	}
	lv := &h.levels[li-1]
	edges := make([][2]int, len(lv.edges))
	for i, e := range lv.edges {
		edges[i] = [2]int{int(e[0]), int(e[1])}
	}
	prob, err := partition.NewWeightedProblem(levelName(p, li), p.K, lv.bias, lv.area, edges, lv.weight)
	if err != nil {
		return nil, err
	}
	prob.PlaneTerms = p.PlaneTerms
	lv.bias, lv.area, lv.edges, lv.weight = nil, nil, nil, nil
	return prob, nil
}

// release drops every level coarser than li — their data and the map that
// projects level li onto them — for a cycle resumed at level li.
func (h *hierarchy) release(li int) {
	for i := li; i < len(h.levels); i++ {
		h.levels[i] = level{}
	}
}

// coarsen performs one heavy-edge-matching contraction. It reads a
// Problem's own types — a nil weight means every edge has weight 1 — and
// returns ok=false when no edge allows any contraction. The adjacency is
// CSR (two counted passes, no per-vertex append slices) and the edge
// collapse sorts packed (a,b) keys instead of accumulating into a map, so a
// contraction is O(E log E) with flat allocations — the difference between
// a hierarchy build in milliseconds and one in seconds at a million gates.
func coarsen(bias, area []float64, edges [][2]int32, weight []float64, seed int64) (level, bool) {
	n := len(bias)
	wt := func(i int) float64 {
		if weight == nil {
			return 1
		}
		return weight[i]
	}
	// CSR adjacency, neighbor entries in edge order per vertex (parallel
	// edges stay separate entries, matching by single-edge weight).
	deg := make([]int32, n+1)
	for _, e := range edges {
		if e[0] != e[1] {
			deg[e[0]+1]++
			deg[e[1]+1]++
		}
	}
	for i := 0; i < n; i++ {
		deg[i+1] += deg[i]
	}
	adjV := make([]int32, deg[n])
	adjW := make([]float64, deg[n])
	cursor := make([]int32, n)
	copy(cursor, deg[:n])
	for i, e := range edges {
		if e[0] == e[1] {
			continue
		}
		a, b := e[0], e[1]
		adjV[cursor[a]], adjW[cursor[a]] = b, wt(i)
		cursor[a]++
		adjV[cursor[b]], adjW[cursor[b]] = a, wt(i)
		cursor[b]++
	}

	match := make([]int32, n)
	for i := range match {
		match[i] = -1
	}
	order := rand.New(rand.NewSource(seed)).Perm(n)
	matched := 0
	for _, v := range order {
		if match[v] >= 0 {
			continue
		}
		best, bestW := int32(-1), 0.0
		for idx := deg[v]; idx < deg[v+1]; idx++ {
			u := adjV[idx]
			if int(u) != v && match[u] < 0 && adjW[idx] > bestW {
				best, bestW = u, adjW[idx]
			}
		}
		if best >= 0 {
			match[v] = best
			match[best] = int32(v)
			matched++
		}
	}
	if matched == 0 {
		return level{}, false
	}

	// Assign coarse IDs in vertex order (deterministic); the ID array is
	// the projection map.
	coarseID := make([]int32, n)
	for i := range coarseID {
		coarseID[i] = -1
	}
	next := int32(0)
	for v := 0; v < n; v++ {
		if coarseID[v] >= 0 {
			continue
		}
		coarseID[v] = next
		if m := match[v]; m >= 0 {
			coarseID[m] = next
		}
		next++
	}
	lv := level{
		bias:         make([]float64, next),
		area:         make([]float64, next),
		fineToCoarse: coarseID,
	}
	for v := 0; v < n; v++ {
		cv := coarseID[v]
		lv.bias[cv] += bias[v]
		lv.area[cv] += area[v]
	}

	// Collapse edges: pack each surviving coarse pair into one sortable
	// key, radix-sort, and merge equal-key runs into a single weighted
	// edge. The output is ordered by (a, b) by construction and allocated
	// at its distinct-key count.
	keys := make([]uint64, 0, len(edges))
	ws := make([]float64, 0, len(edges))
	for i, e := range edges {
		a, b := coarseID[e[0]], coarseID[e[1]]
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		keys = append(keys, uint64(uint32(a))<<32|uint64(uint32(b)))
		ws = append(ws, wt(i))
	}
	radixSortEdges(keys, ws)
	distinct := 0
	for i := range keys {
		if i == 0 || keys[i] != keys[i-1] {
			distinct++
		}
	}
	lv.edges = make([][2]int32, 0, distinct)
	lv.weight = make([]float64, 0, distinct)
	for i := 0; i < len(keys); {
		j := i + 1
		w := ws[i]
		for j < len(keys) && keys[j] == keys[i] {
			w += ws[j]
			j++
		}
		lv.edges = append(lv.edges, [2]int32{int32(keys[i] >> 32), int32(uint32(keys[i]))})
		lv.weight = append(lv.weight, w)
		i = j
	}
	return lv, true
}

// radixSortEdges sorts the packed coarse-pair keys ascending, carrying the
// weights in lockstep: LSD counting passes over the significant bytes,
// O(E) per contraction. The comparison sort it replaced (reflection-based
// sort.Slice swaps) dominated million-gate hierarchy builds. Stable, so
// equal keys keep their input order and the weight summation order — and
// with it the merged float weights — is a pure function of the input.
func radixSortEdges(keys []uint64, ws []float64) {
	n := len(keys)
	if n < 64 {
		for i := 1; i < n; i++ {
			k, w := keys[i], ws[i]
			j := i - 1
			for ; j >= 0 && keys[j] > k; j-- {
				keys[j+1], ws[j+1] = keys[j], ws[j]
			}
			keys[j+1], ws[j+1] = k, w
		}
		return
	}
	var maxKey uint64
	for _, k := range keys {
		if k > maxKey {
			maxKey = k
		}
	}
	tmpK := make([]uint64, n)
	tmpW := make([]float64, n)
	src, dst := keys, tmpK
	srcW, dstW := ws, tmpW
	var count [256]int
	for shift := uint(0); maxKey>>shift > 0; shift += 8 {
		for i := range count {
			count[i] = 0
		}
		for _, k := range src {
			count[(k>>shift)&0xFF]++
		}
		sum := 0
		for i, c := range count {
			count[i] = sum
			sum += c
		}
		for i, k := range src {
			pos := count[(k>>shift)&0xFF]
			count[(k>>shift)&0xFF]++
			dst[pos], dstW[pos] = k, srcW[i]
		}
		src, dst = dst, src
		srcW, dstW = dstW, srcW
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
		copy(ws, srcW)
	}
}

// projectW spreads the coarse relaxed matrix onto the finer level: every
// fine vertex inherits its supervertex's row. Serial and index-ordered —
// trivially deterministic.
func projectW(coarseW partition.W, fineToCoarse []int32, k int) partition.W {
	fine := make(partition.W, len(fineToCoarse)*k)
	for v, cv := range fineToCoarse {
		copy(fine[v*k:(v+1)*k], coarseW[int(cv)*k:(int(cv)+1)*k])
	}
	return fine
}
