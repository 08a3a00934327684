package partition

import (
	"math"

	"gpp/internal/pool"
)

// Shard sizes for the parallel kernels. The shard layout is a pure function
// of the problem size — never of the worker count — so per-shard partial
// sums merged in shard-index order associate identically for Workers = 1
// and Workers = N, and every worker count produces bitwise identical
// results (see DESIGN.md §7).
const (
	gateChunk = 256
	edgeChunk = 1024
)

// scratch holds the reusable buffers of the cost/gradient kernels plus the
// executor they dispatch on (a persistent pool.Group inside Solve, a
// one-shot pool.Ephemeral for the stateless entry points). Solve allocates
// one scratch up front and threads it through every iteration, so the
// descent loop itself is allocation-free (guarded by
// TestSolveIterationPathAllocFree and the obs-bench benchmarks).
//
// The public one-shot entry points (Cost, CostParallel, Gradient, Labels,
// …) allocate a fresh scratch per call, which preserves their stateless
// contract — and, because a fresh scratch is all zeros, makes the buffered
// kernels bitwise identical to the historical allocating ones. Each entry
// point allocates only the buffers and kernel closures its passes actually
// touch (newLabelsScratch / newPlaneScratch / newCostScratch /
// newGradScratch below); newScratch is the full solver set.
// Kernel pass identifiers for the single dispatch closure (scratch.run).
// One closure switching on the pass replaces the seven per-pass closures the
// scratch used to carry — same dispatch cost, six fewer setup allocations.
const (
	passLabels = iota
	passPlane
	passFusedGate
	passEdgeIter
	passNS
	passNSGather
	passGrad
	passGradUpdate
	passFusedGate32
	passGradUpdate32
)

type scratch struct {
	ex pool.Executor // dispatch target for every kernel in this scratch

	l        []float64 // G continuous labels
	ns       []float64 // G neighbor sums (F1 gradient)
	rsum     []float64 // G row sums stored by the fused gate sweep (F4 reuse)
	cube     []float64 // |E| per-edge (l_i−l_j)³ terms (fused F1 → gather)
	partEdge []float64 // edge-shard partials (F1 cost)
	partGate []float64 // gate-shard partials (F4 cost)
	partB    []float64 // gateShards×K per-plane bias partials
	partA    []float64 // gateShards×K per-plane area partials
	partNorm []float64 // gate-shard Σg² partials (traced solves only)
	bk, ak   []float64 // K per-plane sums
	bf, af   []float64 // K per-plane gradient factors (F2/F3)
	f1k      []float64 // K precomputed scale1·(k+1) F1 row factors
	zeroK    []float64 // K zeros: the F1 factors of a row whose neighbor sum is 0
	gRow     []float64 // gateShards×K per-shard gradient row staging
	clamp    []int     // gate-shard clamp counts (update step)

	// Incremental descent state (see incremental.go). dirtyGate[s] is set
	// by the fused gradient+update pass when any w entry of gate shard s
	// changed; the skip masks, when non-nil, tell the cost-side passes
	// which shards can keep their stored partials from the previous
	// iteration. nil masks mean a full sweep.
	dirtyGate []bool // per gate shard: last update changed some w entry
	skipGate  []bool // fused gate sweep skip mask (nil = run all)
	skipEdge  []bool // edge sweep skip mask
	skipGath  []bool // neighbor-sum gather skip mask
	maskGate  []bool // backing storage for skipGate
	maskEdge  []bool // backing storage for skipEdge
	maskGath  []bool // backing storage for skipGath
	sinceSync int    // iterations since the last full sweep

	// Bound kernel inputs, set by the *With entry points before each
	// dispatch. The shard kernels read them through the scratch pointer so
	// the dispatch closure can be built once, here, and reused for the
	// whole solve: a dispatched fn escapes, so a closure literal at the
	// call site would heap-allocate on every kernel call — several
	// allocations per descent iteration.
	w        W            // assignment matrix the kernels read
	w32      []float32    // float32-tier matrix, SoA: w32[k*G+i] (cost32.go)
	vel32    []float32    // float32-tier momentum state, same layout
	grad     []float64    // gradient output row block
	c        Coeffs       // coefficients for the gradient pass
	mode     GradientMode // gradient mode for F1/F4 terms
	hasNS    bool         // F1 gradient term active (sc.ns / sc.cube valid)
	hasBA    bool         // F2/F3 gradient terms active (sc.bf/sc.af valid)
	wantNorm bool         // gradient pass also fills sc.partNorm

	// Fused gradient+update inputs (descent loop only).
	step       float64   // learning rate
	mom        float64   // momentum coefficient (0 = plain steps)
	velocity   []float64 // momentum state, nil when mom == 0
	reduceDims bool      // K−1 free coordinates per row (Section IV-C)
	renorm     bool      // re-project rows onto the simplex after the step

	pass int       // which kernel the dispatch closure runs
	kern func(int) // the one dispatch closure, built by the constructors
}

// run dispatches one shard kernel over the executor.
func (sc *scratch) run(shards, pass int) {
	sc.pass = pass
	sc.ex.Run(shards, sc.kern)
}

func (p *Problem) dispatch(sc *scratch) func(int) {
	return func(s int) {
		switch sc.pass {
		case passLabels:
			p.labelsShard(sc, s)
		case passPlane:
			p.planeSumsShard(sc, s)
		case passFusedGate:
			if sc.skipGate == nil || !sc.skipGate[s] {
				p.fusedGateShard(sc, s)
			}
		case passEdgeIter:
			if sc.skipEdge == nil || !sc.skipEdge[s] {
				p.edgeIterShard(sc, s)
			}
		case passNS:
			p.neighborSumsShard(sc, s)
		case passNSGather:
			if sc.skipGath == nil || !sc.skipGath[s] {
				p.nsGatherShard(sc, s)
			}
		case passGrad:
			p.gradientShard(sc, s)
		case passGradUpdate:
			p.gradUpdateShard(sc, s)
		case passFusedGate32:
			if sc.skipGate == nil || !sc.skipGate[s] {
				p.fusedGate32Shard(sc, s)
			}
		case passGradUpdate32:
			p.gradUpdate32Shard(sc, s)
		}
	}
}

// newLabelsScratch carries exactly what the labels pass touches.
func (p *Problem) newLabelsScratch(ex pool.Executor) *scratch {
	sc := &scratch{ex: ex, l: make([]float64, p.G)}
	sc.kern = p.dispatch(sc)
	return sc
}

// newPlaneScratch carries exactly what the per-plane sum pass touches.
func (p *Problem) newPlaneScratch(ex pool.Executor) *scratch {
	gs := pool.Shards(p.G, gateChunk)
	sc := &scratch{
		ex:    ex,
		partB: make([]float64, gs*p.K),
		partA: make([]float64, gs*p.K),
		bk:    make([]float64, p.K),
		ak:    make([]float64, p.K),
	}
	sc.kern = p.dispatch(sc)
	return sc
}

// newCostScratch carries the buffers of one cost evaluation (fused gate
// pass + F1 edge pass) — no gradient, neighbor-sum, or update state. No
// rsum buffer on purpose: that keeps the one-shot entry points on the
// historical row-major gate sweep; the column-blocked form (which needs
// the stored row sums) only wins when the descent loop reuses the block
// across an iteration's passes.
func (p *Problem) newCostScratch(ex pool.Executor) *scratch {
	gs := pool.Shards(p.G, gateChunk)
	es := pool.Shards(len(p.Edges), edgeChunk)
	sc := &scratch{
		ex:       ex,
		l:        make([]float64, p.G),
		partEdge: make([]float64, es),
		partGate: make([]float64, gs),
		partB:    make([]float64, gs*p.K),
		partA:    make([]float64, gs*p.K),
		bk:       make([]float64, p.K),
		ak:       make([]float64, p.K),
	}
	sc.kern = p.dispatch(sc)
	return sc
}

// newGradScratch carries the buffers of one gradient evaluation (labels,
// neighbor sums computed directly from the labels, plane sums, row pass).
func (p *Problem) newGradScratch(ex pool.Executor) *scratch {
	gs := pool.Shards(p.G, gateChunk)
	sc := &scratch{
		ex:    ex,
		l:     make([]float64, p.G),
		ns:    make([]float64, p.G),
		partB: make([]float64, gs*p.K),
		partA: make([]float64, gs*p.K),
		bk:    make([]float64, p.K),
		ak:    make([]float64, p.K),
		bf:    make([]float64, p.K),
		af:    make([]float64, p.K),
	}
	sc.kern = p.dispatch(sc)
	return sc
}

// newScratch is the full solver scratch: everything the fused iteration
// evaluation (evalIter), the calibration gradient, the fused
// gradient+update pass, and the final cost need. All float64 buffers come
// out of one backing slab and the bool masks out of another — the whole
// solver working set is a handful of setup allocations, and the descent
// loop itself allocates nothing.
func (p *Problem) newScratch(ex pool.Executor) *scratch {
	gs := pool.Shards(p.G, gateChunk)
	es := pool.Shards(len(p.Edges), edgeChunk)
	K := p.K
	slab := make([]float64, 3*p.G+len(p.Edges)+es+2*gs+3*gs*K+6*K)
	cut := func(n int) []float64 {
		b := slab[:n:n]
		slab = slab[n:]
		return b
	}
	bools := make([]bool, 3*gs+es)
	cutB := func(n int) []bool {
		b := bools[:n:n]
		bools = bools[n:]
		return b
	}
	sc := &scratch{
		ex:       ex,
		l:        cut(p.G),
		ns:       cut(p.G),
		rsum:     cut(p.G),
		cube:     cut(len(p.Edges)),
		partEdge: cut(es),
		partGate: cut(gs),
		partNorm: cut(gs),
		partB:    cut(gs * K),
		partA:    cut(gs * K),
		gRow:     cut(gs * K),
		bk:       cut(K),
		ak:       cut(K),
		bf:       cut(K),
		af:       cut(K),
		f1k:      cut(K),
		zeroK:    cut(K),
		clamp:    make([]int, gs),

		dirtyGate: cutB(gs),
		maskGate:  cutB(gs),
		maskGath:  cutB(gs),
		maskEdge:  cutB(es),
	}
	sc.kern = p.dispatch(sc)
	return sc
}

// W is the relaxed assignment matrix, stored row-major: w[i*K+k] is
// w_{i,k}, the degree to which gate i belongs to plane k (planes are
// 0-based internally; the label value used in the distance cost is k+1,
// matching the paper's 1..K convention).
type W []float64

// NewW allocates a zero matrix for the problem.
func (p *Problem) NewW() W { return make(W, p.G*p.K) }

// At returns w_{i,k}.
func (w W) At(i, k, K int) float64 { return w[i*K+k] }

// Labels computes the continuous labels l_i = Σ_k (k+1)·w_{i,k} (Eq. 3).
func (p *Problem) Labels(w W) []float64 {
	sc := p.newLabelsScratch(pool.Ephemeral(1))
	p.labelsInto(w, sc)
	return sc.l
}

// labelsInto fills sc.l with the continuous labels of w.
func (p *Problem) labelsInto(w W, sc *scratch) {
	sc.w = w
	sc.run(pool.Shards(p.G, gateChunk), passLabels)
}

func (p *Problem) labelsShard(sc *scratch, s int) {
	w, l := sc.w, sc.l
	lo, hi := pool.ShardRange(p.G, gateChunk, s)
	for i := lo; i < hi; i++ {
		row := w[i*p.K : (i+1)*p.K]
		var sum float64
		for k, v := range row {
			sum += float64(k+1) * v
		}
		l[i] = sum
	}
}

// planeSums computes B_k = Σ_i b_i·w_{i,k} and A_k likewise. Each shard
// accumulates into its own K-vector; the partials are merged in shard
// order, so the totals are identical for every worker count.
func (p *Problem) planeSums(w W, workers int) (bk, ak []float64) {
	sc := p.newPlaneScratch(pool.Ephemeral(workers))
	p.planeSumsInto(w, sc)
	return sc.bk, sc.ak
}

// planeSumsInto fills sc.bk / sc.ak. Shard partials are zeroed inside the
// shard body (so a reused scratch behaves exactly like a fresh one) and
// merged in shard-index order, keeping the totals bitwise identical for
// every worker count.
func (p *Problem) planeSumsInto(w W, sc *scratch) {
	shards := pool.Shards(p.G, gateChunk)
	sc.w = w
	sc.run(shards, passPlane)
	for k := 0; k < p.K; k++ {
		sc.bk[k], sc.ak[k] = 0, 0
	}
	for s := 0; s < shards; s++ {
		for k := 0; k < p.K; k++ {
			sc.bk[k] += sc.partB[s*p.K+k]
			sc.ak[k] += sc.partA[s*p.K+k]
		}
	}
}

func (p *Problem) planeSumsShard(sc *scratch, s int) {
	w := sc.w
	lo, hi := pool.ShardRange(p.G, gateChunk, s)
	pb := sc.partB[s*p.K : (s+1)*p.K]
	pa := sc.partA[s*p.K : (s+1)*p.K]
	for k := range pb {
		pb[k], pa[k] = 0, 0
	}
	for i := lo; i < hi; i++ {
		b, a := p.Bias[i], p.Area[i]
		row := w[i*p.K : (i+1)*p.K]
		for k, v := range row {
			pb[k] += b * v
			pa[k] += a * v
		}
	}
}

// Cost evaluates the relaxed cost F and its components at w (serially —
// shorthand for CostParallel with one worker).
func (p *Problem) Cost(w W, c Coeffs) Breakdown { return p.CostParallel(w, c, 1) }

// CostParallel evaluates the relaxed cost on `workers` goroutines (≤ 0 =
// one per CPU). The fixed shard decomposition makes the result bitwise
// identical for every worker count.
func (p *Problem) CostParallel(w W, c Coeffs, workers int) Breakdown {
	sc := p.newCostScratch(pool.Ephemeral(pool.Resolve(workers)))
	return p.costWith(w, c, sc)
}

// costWith is CostParallel against caller-owned scratch buffers — the
// allocation-free form the descent loop's final evaluation uses. It is the
// cost half of iterWith: one fused gate sweep (labels + plane-sum + F4
// partials) and one edge sweep (F1 partials).
func (p *Problem) costWith(w W, c Coeffs, sc *scratch) Breakdown {
	sc.w = w
	sc.hasNS = false // cost only: the edge pass skips the cube fill
	sc.skipGate, sc.skipEdge, sc.skipGath = nil, nil, nil
	sc.run(pool.Shards(p.G, gateChunk), passFusedGate)
	f4 := p.mergeGatePartials(sc)
	f2, f3 := p.varianceF2F3(sc.bk, sc.ak)
	f1 := p.costF1(sc)
	return p.finishBreakdown(c, f1, f2, f3, f4, sc.bk)
}

// fusedGateShard is the single gate sweep shared by every cost/iteration
// evaluation: one pass over the rows of w produces the continuous labels
// (Eq. 3), the per-plane bias/area partial sums (F2/F3), and the F4 vertex
// penalty partials. Each quantity keeps its own accumulator and its
// historical accumulation order, so the fused sweep is bitwise identical to
// the three separate sweeps it replaces — it just reads w once instead of
// three times.
func (p *Problem) fusedGateShard(sc *scratch, s int) {
	if sc.rsum != nil {
		p.fusedGateShardBlocked(sc, s)
		return
	}
	w := sc.w
	lo, hi := pool.ShardRange(p.G, gateChunk, s)
	pb := sc.partB[s*p.K : (s+1)*p.K]
	pa := sc.partA[s*p.K : (s+1)*p.K]
	for k := range pb {
		pb[k], pa[k] = 0, 0
	}
	invK := 1.0 / float64(p.K)
	var f4 float64
	for i := lo; i < hi; i++ {
		b, a := p.Bias[i], p.Area[i]
		row := w[i*p.K : (i+1)*p.K]
		var lsum, rowSum float64
		for k, v := range row {
			lsum += float64(k+1) * v
			pb[k] += b * v
			pa[k] += a * v
			rowSum += v
		}
		sc.l[i] = lsum
		mean := rowSum * invK
		t1 := rowSum - 1 // K·w̄_i − 1
		var varSum float64
		for _, v := range row {
			d := v - mean
			varSum += d * d
		}
		f4 += t1*t1 - invK*varSum
	}
	sc.partGate[s] = f4
}

// fusedGateShardBlocked is the cache-blocked column-major form of the fused
// gate sweep, used whenever the scratch carries a row-sum buffer (the
// solver path): instead of walking each row once with four interleaved
// accumulators — whose serial FP add chains bound the sweep by add latency,
// not throughput — it sweeps the shard's w block one plane column at a
// time, accumulating the per-plane sums in registers and the labels/row
// sums elementwise, then finishes the F4 variance per row. Every
// accumulator still adds the exact same values in the exact same order
// (l[i] and rsum[i] over k ascending, pb[k]/pa[k] over i ascending, varSum
// and f4 as before), so the blocked form is bitwise identical to the
// row-major one; the shard block (gateChunk rows) stays resident in L1
// across the K column passes.
func (p *Problem) fusedGateShardBlocked(sc *scratch, s int) {
	w := sc.w
	K := p.K
	lo, hi := pool.ShardRange(p.G, gateChunk, s)
	pb := sc.partB[s*K : (s+1)*K]
	pa := sc.partA[s*K : (s+1)*K]
	l := sc.l[lo:hi]
	rsum := sc.rsum[lo:hi]
	bias := p.Bias[lo:hi]
	area := p.Area[lo:hi]
	clear(l)
	clear(rsum)
	for k := 0; k < K; k++ {
		kf := float64(k + 1)
		var pbk, pak float64
		col := w[lo*K+k:]
		idx := 0
		for i := range l {
			v := col[idx]
			idx += K
			l[i] += kf * v
			rsum[i] += v
			pbk += bias[i] * v
			pak += area[i] * v
		}
		pb[k], pa[k] = pbk, pak
	}
	invK := 1.0 / float64(K)
	var f4 float64
	for i := range l {
		rowSum := rsum[i]
		mean := rowSum * invK
		t1 := rowSum - 1 // K·w̄_i − 1
		row := w[(lo+i)*K : (lo+i+1)*K]
		var varSum float64
		for _, v := range row {
			d := v - mean
			varSum += d * d
		}
		f4 += t1*t1 - invK*varSum
	}
	sc.partGate[s] = f4
}

// mergeGatePartials folds the fused gate sweep's shard partials in
// shard-index order: per-plane sums into sc.bk/sc.ak and the normalized F4
// total as the return value.
func (p *Problem) mergeGatePartials(sc *scratch) (f4 float64) {
	shards := pool.Shards(p.G, gateChunk)
	for k := 0; k < p.K; k++ {
		sc.bk[k], sc.ak[k] = 0, 0
	}
	var total float64
	for s := 0; s < shards; s++ {
		total += sc.partGate[s]
		for k := 0; k < p.K; k++ {
			sc.bk[k] += sc.partB[s*p.K+k]
			sc.ak[k] += sc.partA[s*p.K+k]
		}
	}
	return total / p.N4
}

// costF1 runs the edge sweep (reading the labels from sc.l) and merges its
// partials. When sc.hasNS is set the sweep also fills sc.cube with the
// per-edge cubed differences the gradient's neighbor-sum gather reuses.
func (p *Problem) costF1(sc *scratch) float64 {
	ne := len(p.Edges)
	if ne == 0 {
		return 0
	}
	sc.run(pool.Shards(ne, edgeChunk), passEdgeIter)
	var total float64
	for _, v := range sc.partEdge {
		total += v
	}
	return total / p.N1
}

// edgeIterShard accumulates the F1 cost partial of one edge shard and — on
// the fused iteration path — stores each edge's cubed label difference for
// the neighbor-sum gather, so the gradient never recomputes l_i − l_j. The
// cube values match the historical per-gate recomputation bitwise: d²·d
// pairs the multiplications exactly as (d·d)·d did, and the paper-mode
// |d|³ keeps its left-to-right association. Weighted problems fold the
// edge multiplicity into both the cost term and the cube, so the gather
// (nsGatherShard) and the gradient row pass stay weight-agnostic; the
// unweighted loops are untouched and stay bitwise identical to history.
func (p *Problem) edgeIterShard(sc *scratch, s int) {
	l := sc.l
	ne := len(p.Edges)
	lo, hi := pool.ShardRange(ne, edgeChunk, s)
	var sum float64
	ew := p.EdgeWeight
	switch {
	case !sc.hasNS:
		if ew == nil {
			for _, e := range p.Edges[lo:hi] {
				d := l[e[0]] - l[e[1]]
				d2 := d * d
				sum += d2 * d2
			}
		} else {
			for ei := lo; ei < hi; ei++ {
				e := p.Edges[ei]
				d := l[e[0]] - l[e[1]]
				d2 := d * d
				sum += ew[ei] * (d2 * d2)
			}
		}
	case sc.mode == GradientExact:
		cube := sc.cube
		if ew == nil {
			for ei := lo; ei < hi; ei++ {
				e := p.Edges[ei]
				d := l[e[0]] - l[e[1]]
				d2 := d * d
				sum += d2 * d2
				cube[ei] = d2 * d
			}
		} else {
			for ei := lo; ei < hi; ei++ {
				e := p.Edges[ei]
				d := l[e[0]] - l[e[1]]
				d2 := d * d
				sum += ew[ei] * (d2 * d2)
				cube[ei] = ew[ei] * (d2 * d)
			}
		}
	default: // GradientPaper: |l_i − l_j|³ (Eq. 10 as printed)
		cube := sc.cube
		if ew == nil {
			for ei := lo; ei < hi; ei++ {
				e := p.Edges[ei]
				d := l[e[0]] - l[e[1]]
				d2 := d * d
				sum += d2 * d2
				t := math.Abs(d)
				cube[ei] = t * t * t
			}
		} else {
			for ei := lo; ei < hi; ei++ {
				e := p.Edges[ei]
				d := l[e[0]] - l[e[1]]
				d2 := d * d
				sum += ew[ei] * (d2 * d2)
				t := math.Abs(d)
				cube[ei] = ew[ei] * (t * t * t)
			}
		}
	}
	sc.partEdge[s] = sum
}

// varianceF2F3 finishes F2/F3 from the per-plane sums (K is small, so this
// stays serial).
func (p *Problem) varianceF2F3(bk, ak []float64) (f2, f3 float64) {
	var bMean, aMean float64
	for k := 0; k < p.K; k++ {
		bMean += bk[k]
		aMean += ak[k]
	}
	bMean /= float64(p.K)
	aMean /= float64(p.K)
	var bVar, aVar float64
	for k := 0; k < p.K; k++ {
		db := bk[k] - bMean
		da := ak[k] - aMean
		bVar += db * db
		aVar += da * da
	}
	f2 = bVar / (float64(p.K) * p.N2)
	f3 = aVar / (float64(p.K) * p.N3)
	return f2, f3
}

// GradientMode selects between the analytically exact gradients and the
// formulas as literally printed in the paper's Eq. 10 (which drop the sign
// of (l_i − l_j) in ∂F1 and disagree with d F4/dw by a K(1−w_ik) term; see
// DESIGN.md). The exact mode is the default and is validated against finite
// differences in the tests.
type GradientMode int

const (
	// GradientExact uses analytic derivatives of Eqs. 4–6, 9.
	GradientExact GradientMode = iota
	// GradientPaper uses the formulas exactly as printed in Eq. 10.
	GradientPaper
)

// String names the gradient mode.
func (m GradientMode) String() string {
	switch m {
	case GradientExact:
		return "exact"
	case GradientPaper:
		return "paper"
	default:
		return "unknown"
	}
}

// Gradient writes ∂F/∂w into grad (same layout as w), combining the four
// terms with the coefficients. grad must have length G*K. Serial shorthand
// for GradientParallel with one worker.
func (p *Problem) Gradient(w W, c Coeffs, mode GradientMode, grad []float64) {
	p.GradientParallel(w, c, mode, grad, 1)
}

// GradientParallel writes ∂F/∂w into grad using `workers` goroutines (≤ 0 =
// one per CPU). The global reductions (labels, per-plane sums, neighbor
// sums) run as shard-merged kernels and the per-gate row writes are
// conflict-free, so the result is bitwise identical for every worker count.
//
// Per-term math (see the serial derivation the kernels preserve):
//
// F1 exact: ∂F1/∂w_{i,k} = (4(k+1)/N1) Σ_{j ~ i} (l_i − l_j)³, where j
// ranges over all neighbors of i (each parallel edge counted separately).
// F1 paper (Eq. 10): same but with |l_i − l_j|³ and the incoming sum
// subtracted from the outgoing sum.
//
// F2/F3: ∂F2/∂w_{i,k} = 2·b_i·(B_k − B̄)/(K·N2) — the paper's printed
// formula is also the exact derivative (the mean-shift terms cancel because
// Σ_k (B_k − B̄) = 0). Same for F3 with areas.
//
// F4 exact: ∂F4/∂w_{i,k} = (2/N4)·[(K·w̄_i − 1) − (w_{i,k} − w̄_i)/K].
// F4 paper (Eq. 10): (2/N4)·[(K + 1/K)(w̄_i − w_{i,k}) + K − 1].
func (p *Problem) GradientParallel(w W, c Coeffs, mode GradientMode, grad []float64, workers int) {
	sc := p.newGradScratch(pool.Ephemeral(pool.Resolve(workers)))
	p.gradientWith(w, c, mode, grad, sc)
}

// gradientWith is GradientParallel against caller-owned scratch buffers.
// The descent loop proper uses the fused iterWith instead; this standalone
// form serves the one-shot entry points and the solver's step
// auto-calibration, computing the neighbor sums directly from the labels
// (no cube buffer required).
func (p *Problem) gradientWith(w W, c Coeffs, mode GradientMode, grad []float64, sc *scratch) {
	// Global quantities shared by all rows.
	sc.hasNS = c.C1 != 0 && len(p.Edges) > 0 // F1 neighbor sums Σ_j (l_i − l_j)³
	if sc.hasNS {
		p.labelsInto(w, sc)
		sc.mode = mode
		sc.run(pool.Shards(p.G, gateChunk), passNS)
	}
	sc.hasBA = c.C2 != 0 || c.C3 != 0 || len(p.PlaneTerms) > 0 // per-plane F2/F3 + plane-term factors
	if sc.hasBA {
		p.planeSumsInto(w, sc)
		p.planeFactors(c, sc)
	}
	sc.w, sc.grad, sc.c, sc.mode = w, grad, c, mode
	sc.run(pool.Shards(p.G, gateChunk), passGrad)
}

// evalIter is the cost side of one descent iteration: one fused gate sweep
// (labels + plane sums + F4 partials + stored row sums), one edge sweep (F1
// cost + per-edge cubes), the neighbor-sum gather, and the F2/F3 row
// factors — everything the fused gradient+update pass (gradUpdate) needs,
// plus the cost Breakdown the stopping test reads. Splitting the evaluation
// here lets the solver check the margin before any gradient work: on the
// converged iteration the historical kernel computed a gradient and threw
// it away, so skipping it is bitwise invisible.
//
// When the incremental skip masks are armed (see incremental.go), shards
// whose inputs provably did not change since the previous iteration keep
// their stored labels, cubes, neighbor sums, and partial sums; the
// shard-order merges below read the same bytes a full sweep would have
// written, so the result stays bitwise identical to a full sweep. Every
// individual accumulator keeps its historical association, so the fused
// evaluation is also bitwise identical to the historical two-pass
// cost+gradient form at every worker count (see DESIGN.md §10, §15).
func (p *Problem) evalIter(w W, c Coeffs, mode GradientMode, sc *scratch) Breakdown {
	sc.w, sc.mode = w, mode
	sc.hasNS = c.C1 != 0 && len(p.Edges) > 0
	gateShards := pool.Shards(p.G, gateChunk)

	// Cost-side reductions (also the gradient's shared global quantities).
	sc.run(gateShards, passFusedGate)
	f4 := p.mergeGatePartials(sc)
	f2, f3 := p.varianceF2F3(sc.bk, sc.ak)
	f1 := p.costF1(sc) // fills sc.cube for the gather below (hasNS)

	// Gradient-side finishing passes on the shared reductions.
	if sc.hasNS {
		sc.run(gateShards, passNSGather)
	}
	sc.hasBA = c.C2 != 0 || c.C3 != 0 || len(p.PlaneTerms) > 0
	if sc.hasBA {
		p.planeFactors(c, sc)
	}
	sc.c = c
	return p.finishBreakdown(c, f1, f2, f3, f4, sc.bk)
}

// gradUpdate runs the fused gradient+update pass over every gate shard:
// each row's gradient is computed from the reductions evalIter left in the
// scratch and applied (momentum, step, clamp, optional renormalize /
// dimension reduction) immediately, without materializing a G×K gradient
// array. Row i's gradient depends only on its own w row plus the global
// ns/bf/af/rsum quantities — never on another row's updated values — so the
// per-row interleave is element-for-element identical to the historical
// separate gradient pass + update pass. The pass also records per-shard
// clamp counts, Σg² partials (traced solves), and the dirty flags the
// incremental tier reads.
func (p *Problem) gradUpdate(sc *scratch) {
	sc.run(pool.Shards(p.G, gateChunk), passGradUpdate)
}

func (p *Problem) gradUpdateShard(sc *scratch, s int) {
	w, c, mode := sc.w, sc.c, sc.mode
	K := p.K
	var ns []float64
	if sc.hasNS {
		ns = sc.ns
	}
	var bf, af []float64
	if sc.hasBA {
		bf, af = sc.bf, sc.af
	}
	invK := 1.0 / float64(K)
	scale4 := 2 * c.C4 / p.N4
	f1k, rsum := sc.f1k, sc.rsum
	step := sc.step
	lo, hi := pool.ShardRange(p.G, gateChunk, s)
	changed := false

	// Fast paths: all four terms active, exact gradients, clamped steps
	// without renormalize or dimension reduction. Momentum and traced
	// solves take gradUpdateFastShard; plain untraced steps take the loop
	// below. One loop computes each gradient entry with the historical
	// association — (f1k[k]·ns_i) + (b·bf[k] + a·af[k]) + scale4·(…)
	// associates exactly like the historical g = f1; g += f23; g += f4
	// sequence — and applies the step in place, so the w row is read and
	// written once with no gradient array traffic at all. Everything else
	// — the paper's ablation modes and problems that lack a cost term —
	// takes the general path.
	if ns != nil && bf != nil && c.C4 != 0 && mode == GradientExact &&
		!sc.reduceDims && !sc.renorm {
		if sc.velocity != nil || sc.wantNorm {
			p.gradUpdateFastShard(sc, s)
			return
		}
		// Reslice the K-wide factor vectors to their exact length so the
		// compiler can prove k < K == len and drop the bounds checks from
		// the inner loop.
		f1k, bf, af := f1k[:K:K], bf[:K:K], af[:K:K]
		// The clamp counter is only ever read under a tracer, and the fast
		// path requires !wantNorm (no tracer), so it skips the counting.
		for i := lo; i < hi; i++ {
			base := i * K
			row := w[base : base+K : base+K]
			b, a := p.Bias[i], p.Area[i]
			nsi := ns[i]
			rowSum := rsum[i]
			mean := rowSum * invK
			t1 := rowSum - 1
			if nsi != 0 {
				for k := 0; k < K; k++ {
					gk := f1k[k]*nsi + (b*bf[k] + a*af[k]) + scale4*(t1-(row[k]-mean)*invK)
					v := row[k] - step*gk
					if v < 0 {
						v = 0
					} else if v > 1 {
						v = 1
					}
					if v != row[k] {
						changed = true
					}
					row[k] = v
				}
			} else {
				for k := 0; k < K; k++ {
					gk := 0.0
					gk += b*bf[k] + a*af[k]
					gk += scale4 * (t1 - (row[k]-mean)*invK)
					v := row[k] - step*gk
					if v < 0 {
						v = 0
					} else if v > 1 {
						v = 1
					}
					if v != row[k] {
						changed = true
					}
					row[k] = v
				}
			}
		}
		sc.clamp[s] = 0
		sc.dirtyGate[s] = changed
		return
	}
	p.gradUpdateGeneralShard(sc, s)
}

// gradUpdateGeneralShard is the update pass for every configuration the
// fast paths do not cover.
func (p *Problem) gradUpdateGeneralShard(sc *scratch, s int) {
	w, c, mode := sc.w, sc.c, sc.mode
	K := p.K
	var ns []float64
	if sc.hasNS {
		ns = sc.ns
	}
	var bf, af []float64
	if sc.hasBA {
		bf, af = sc.bf, sc.af
	}
	invK := 1.0 / float64(K)
	scale4 := 2 * c.C4 / p.N4
	kf := float64(K)
	f1k, rsum := sc.f1k, sc.rsum
	step := sc.step
	lo, hi := pool.ShardRange(p.G, gateChunk, s)
	clamped := 0
	changed := false

	// General path: stage the gradient row in the shard's gRow slot with
	// exactly the historical term order (F1, then F2+F3, then F4, then the
	// Σg² partial, then momentum), then apply the historical update row
	// logic. Everything is per-row local, so the staging buffer is K wide.
	g := sc.gRow[s*K : (s+1)*K]
	vel := sc.velocity
	mom := sc.mom
	var normSum float64
	last := K - 1
	for i := lo; i < hi; i++ {
		base := i * K
		row := w[base : base+K : base+K]
		if ns != nil && ns[i] != 0 {
			nsi := ns[i]
			for k := 0; k < K; k++ {
				g[k] = f1k[k] * nsi
			}
		} else {
			for k := 0; k < K; k++ {
				g[k] = 0
			}
		}
		if bf != nil {
			b, a := p.Bias[i], p.Area[i]
			for k := 0; k < K; k++ {
				g[k] += b*bf[k] + a*af[k]
			}
		}
		if c.C4 != 0 {
			rowSum := rsum[i]
			mean := rowSum * invK
			switch mode {
			case GradientExact:
				t1 := rowSum - 1
				for k := 0; k < K; k++ {
					g[k] += scale4 * (t1 - (row[k]-mean)*invK)
				}
			case GradientPaper:
				for k := 0; k < K; k++ {
					g[k] += scale4 * ((kf+invK)*(mean-row[k]) + kf - 1)
				}
			}
		}
		if sc.wantNorm {
			for k := 0; k < K; k++ {
				normSum += g[k] * g[k]
			}
		}
		if vel != nil {
			for k := 0; k < K; k++ {
				vel[base+k] = mom*vel[base+k] + g[k]
				g[k] = vel[base+k]
			}
		}
		if sc.reduceDims {
			// K−1 free coordinates per row; the last is derived.
			gLast := g[last]
			var sum float64
			for k := 0; k < last; k++ {
				ov := row[k]
				v := ov - step*(g[k]-gLast)
				if v < 0 {
					v = 0
					clamped++
				} else if v > 1 {
					v = 1
					clamped++
				}
				if v != ov {
					changed = true
				}
				row[k] = v
				sum += v
			}
			if sum > 1 {
				inv := 1 / sum
				for k := 0; k < last; k++ {
					nv := row[k] * inv
					if nv != row[k] {
						changed = true
					}
					row[k] = nv
				}
				sum = 1
			}
			nv := 1 - sum
			if nv != row[last] {
				changed = true
			}
			row[last] = nv
		} else {
			for k := 0; k < K; k++ {
				ov := row[k]
				v := ov - step*g[k]
				if v < 0 {
					v = 0
					clamped++
				} else if v > 1 {
					v = 1
					clamped++
				}
				if v != ov {
					changed = true
				}
				row[k] = v
			}
		}
		if sc.renorm {
			var sum float64
			for _, v := range row {
				sum += v
			}
			if sum > 0 {
				for k := range row {
					nv := row[k] / sum
					if nv != row[k] {
						changed = true
					}
					row[k] = nv
				}
			}
		}
	}
	sc.clamp[s] = clamped
	sc.dirtyGate[s] = changed
	if sc.wantNorm {
		sc.partNorm[s] = normSum
	}
}

// gradUpdateFastShard is the fused fast path for heavy-ball momentum and
// traced solves: the plain fast path's gradient expression, plus the
// velocity update folded into the loop (v ← mom·v + g, step along v), the
// Σg² partial and the clamp count the iter event reports. Both loops
// always accumulate Σg² and the clamp count (next to the velocity stream
// they cost nothing measurable); only a traced solve stores the Σg²
// partial. Each quantity accumulates in the general path's order — Σg²
// over the pre-momentum gradient, row by row and k ascending — so both
// loops are bitwise equal to the general path. The loop is picked once
// per row, outside the K loop.
//
// A row whose neighbor sum is zero takes the all-zero F1 factors: the
// gathered sum starts at +0 and so is never −0, and +0·+0 + f23 is the
// general path's g = 0; g += f23, bit for bit.
func (p *Problem) gradUpdateFastShard(sc *scratch, s int) {
	w, vel, traced := sc.w, sc.velocity, sc.wantNorm
	K := p.K
	f1k, zero, bf, af := sc.f1k[:K:K], sc.zeroK[:K:K], sc.bf[:K:K], sc.af[:K:K]
	ns, rsum := sc.ns, sc.rsum
	invK := 1.0 / float64(K)
	scale4 := 2 * sc.c.C4 / p.N4
	step, mom := sc.step, sc.mom
	lo, hi := pool.ShardRange(p.G, gateChunk, s)
	clamped := 0
	changed := false
	var normSum float64
	for i := lo; i < hi; i++ {
		base := i * K
		row := w[base : base+K : base+K]
		b, a := p.Bias[i], p.Area[i]
		nsi := ns[i]
		fk := f1k
		if nsi == 0 {
			fk = zero
		}
		rowSum := rsum[i]
		mean := rowSum * invK
		t1 := rowSum - 1
		if vel == nil { // traced plain steps
			for k := 0; k < K; k++ {
				gk := fk[k]*nsi + (b*bf[k] + a*af[k]) + scale4*(t1-(row[k]-mean)*invK)
				normSum += gk * gk
				v := row[k] - step*gk
				if v < 0 {
					v = 0
					clamped++
				} else if v > 1 {
					v = 1
					clamped++
				}
				if v != row[k] {
					changed = true
				}
				row[k] = v
			}
			continue
		}
		vrow := vel[base : base+K : base+K]
		for k := 0; k < K; k++ {
			gk := fk[k]*nsi + (b*bf[k] + a*af[k]) + scale4*(t1-(row[k]-mean)*invK)
			normSum += gk * gk
			vk := mom*vrow[k] + gk
			vrow[k] = vk
			v := row[k] - step*vk
			if v < 0 {
				v = 0
				clamped++
			} else if v > 1 {
				v = 1
				clamped++
			}
			if v != row[k] {
				changed = true
			}
			row[k] = v
		}
	}
	sc.clamp[s] = clamped
	sc.dirtyGate[s] = changed
	if traced {
		sc.partNorm[s] = normSum
	}
}

// setDescentState binds the loop-constant inputs of the fused
// gradient+update pass, including the precomputed F1 row factors
// scale1·(k+1) — exactly the products the historical per-entry expression
// scale1·float64(k+1)·ns_i formed first, so reusing them is bitwise
// neutral.
func (sc *scratch) setDescentState(p *Problem, c Coeffs, mode GradientMode,
	step, mom float64, velocity []float64, reduceDims, renorm bool) {
	scale1 := 4 * c.C1 / p.N1
	for k := 0; k < p.K; k++ {
		sc.f1k[k] = scale1 * float64(k+1)
	}
	sc.c, sc.mode = c, mode
	sc.step, sc.mom, sc.velocity = step, mom, velocity
	sc.reduceDims, sc.renorm = reduceDims, renorm
}

// planeFactors turns the per-plane sums sc.bk/sc.ak into the F2/F3 gradient
// row factors sc.bf/sc.af.
func (p *Problem) planeFactors(c Coeffs, sc *scratch) {
	bk, ak := sc.bk, sc.ak
	var bMean, aMean float64
	for k := 0; k < p.K; k++ {
		bMean += bk[k]
		aMean += ak[k]
	}
	bMean /= float64(p.K)
	aMean /= float64(p.K)
	bf, af := sc.bf, sc.af
	for k := 0; k < p.K; k++ {
		bf[k] = 2 * c.C2 * (bk[k] - bMean) / (float64(p.K) * p.N2)
		af[k] = 2 * c.C3 * (ak[k] - aMean) / (float64(p.K) * p.N3)
	}
	// Plane-term gradients add into the bias factors (the row pass
	// multiplies bf[k] by b_i, exactly the chain rule these terms need).
	// Guarded: even an exact +0.0 could flip a −0.0 factor bit.
	if len(p.PlaneTerms) > 0 {
		p.planeTermFactors(bf, bk)
	}
}

func (p *Problem) gradientShard(sc *scratch, s int) {
	w, grad, c, mode := sc.w, sc.grad, sc.c, sc.mode
	var ns []float64
	if sc.hasNS {
		ns = sc.ns
	}
	var bf, af []float64
	if sc.hasBA {
		bf, af = sc.bf, sc.af
	}
	scale1 := 4 * c.C1 / p.N1
	invK := 1.0 / float64(p.K)
	scale4 := 2 * c.C4 / p.N4
	kf := float64(p.K)
	lo, hi := pool.ShardRange(p.G, gateChunk, s)
	var normSum float64
	for i := lo; i < hi; i++ {
		base := i * p.K
		row := w[base : base+p.K]
		g := grad[base : base+p.K]
		// The terms add in the historical order (F1, then F2+F3, then
		// F4) so the fused pass reproduces the old three-pass sums.
		if ns != nil && ns[i] != 0 {
			for k := 0; k < p.K; k++ {
				g[k] = scale1 * float64(k+1) * ns[i]
			}
		} else {
			for k := 0; k < p.K; k++ {
				g[k] = 0
			}
		}
		if bf != nil {
			b, a := p.Bias[i], p.Area[i]
			for k := 0; k < p.K; k++ {
				g[k] += b*bf[k] + a*af[k]
			}
		}
		if c.C4 != 0 {
			var rowSum float64
			for _, v := range row {
				rowSum += v
			}
			mean := rowSum * invK
			switch mode {
			case GradientExact:
				t1 := rowSum - 1
				for k := 0; k < p.K; k++ {
					g[k] += scale4 * (t1 - (row[k]-mean)*invK)
				}
			case GradientPaper:
				for k := 0; k < p.K; k++ {
					g[k] += scale4 * ((kf+invK)*(mean-row[k]) + kf - 1)
				}
			}
		}
		if sc.wantNorm {
			for k := 0; k < p.K; k++ {
				normSum += g[k] * g[k]
			}
		}
	}
	if sc.wantNorm {
		sc.partNorm[s] = normSum
	}
}

// neighborSumsShard gathers sc.ns[i] = Σ_{j ~ i} (l_i − l_j)³ (exact mode)
// or the paper's oriented |·|³ sums from sc.l, via the incidence CSR. Each
// gate's sum is accumulated privately in edge order — the same association
// as the historical scatter loop — so the values match it bitwise while
// staying write-conflict-free across workers. This is the standalone
// variant used when no fused edge pass has filled sc.cube.
func (p *Problem) neighborSumsShard(sc *scratch, sh int) {
	l, mode := sc.l, sc.mode
	ew := p.EdgeWeight
	lo, hi := pool.ShardRange(p.G, gateChunk, sh)
	for i := lo; i < hi; i++ {
		var sum float64
		for idx := p.incStart[i]; idx < p.incStart[i+1]; idx++ {
			ei := p.incEdge[idx]
			e := p.Edges[ei]
			d := l[e[0]] - l[e[1]]
			var t float64
			switch mode {
			case GradientExact:
				t = d * d * d
			case GradientPaper:
				t = math.Abs(d)
				t = t * t * t
			}
			if ew != nil {
				// Same product order as the fused cube (w · d³ commutes
				// exactly), so standalone and gathered sums stay bitwise
				// equal.
				t = ew[ei] * t
			}
			if p.incSign[idx] < 0 {
				// Incoming connection (Eq. 10 first line subtracts).
				t = -t
			}
			sum += t
		}
		sc.ns[i] = sum
	}
}

// nsGatherShard is neighborSumsShard against the per-edge cubes the fused
// F1 pass already computed: a pure gather (load, sign, add) with no
// floating-point recomputation, in the same per-gate edge order. The
// orientation sign is applied by multiplying with ±1.0 (incSignF) — exact
// in IEEE 754, so bitwise identical to the historical branch-and-negate,
// without the data-dependent branch the predictor cannot learn.
func (p *Problem) nsGatherShard(sc *scratch, sh int) {
	cube := sc.cube
	incEdge, signf := p.incEdge, p.incSignF
	lo, hi := pool.ShardRange(p.G, gateChunk, sh)
	for i := lo; i < hi; i++ {
		// Slice this gate's incidence run once so the range loop and the
		// equal-length reslice prove the edge/sign accesses in bounds; only
		// the data-dependent cube gather keeps its check.
		start, end := p.incStart[i], p.incStart[i+1]
		ie := incEdge[start:end]
		sf := signf[start:end]
		sf = sf[:len(ie)]
		var sum float64
		for j, e := range ie {
			sum += cube[e] * sf[j]
		}
		sc.ns[i] = sum
	}
}

// Assign snaps the relaxed matrix to a discrete assignment: each gate goes
// to the plane with the largest w_{i,k} (lowest index wins ties). Returned
// labels are 0-based plane indices.
func (p *Problem) Assign(w W) []int {
	labels := make([]int, p.G)
	for i := 0; i < p.G; i++ {
		row := w[i*p.K : (i+1)*p.K]
		best, bestK := row[0], 0
		for k := 1; k < p.K; k++ {
			if row[k] > best {
				best, bestK = row[k], k
			}
		}
		labels[i] = bestK
	}
	return labels
}

// DiscreteCost evaluates the cost components at an integer assignment
// (labels are 0-based planes). F4 is constant at vertices
// (−(K−1)/(K²·N4)·G) and is reported for completeness.
func (p *Problem) DiscreteCost(labels []int, c Coeffs) Breakdown {
	var f1 float64
	if len(p.Edges) > 0 {
		var s float64
		if ew := p.EdgeWeight; ew != nil {
			for i, e := range p.Edges {
				d := float64(labels[e[0]] - labels[e[1]])
				d2 := d * d
				s += ew[i] * (d2 * d2)
			}
		} else {
			for _, e := range p.Edges {
				d := float64(labels[e[0]] - labels[e[1]])
				d2 := d * d
				s += d2 * d2
			}
		}
		f1 = s / p.N1
	}
	bk := make([]float64, p.K)
	ak := make([]float64, p.K)
	for i, lb := range labels {
		bk[lb] += p.Bias[i]
		ak[lb] += p.Area[i]
	}
	var bVar, aVar float64
	for k := 0; k < p.K; k++ {
		db := bk[k] - p.MeanBias
		da := ak[k] - p.MeanArea
		bVar += db * db
		aVar += da * da
	}
	f2 := bVar / (float64(p.K) * p.N2)
	f3 := aVar / (float64(p.K) * p.N3)
	kf := float64(p.K)
	f4 := -float64(p.G) * (kf - 1) / (kf * kf) / p.N4
	return p.finishBreakdown(c, f1, f2, f3, f4, bk)
}

// PlaneTotals returns the per-plane bias (mA) and area (mm²) sums for a
// discrete assignment.
func (p *Problem) PlaneTotals(labels []int) (bias, area []float64) {
	bias = make([]float64, p.K)
	area = make([]float64, p.K)
	for i, lb := range labels {
		bias[lb] += p.Bias[i]
		area[lb] += p.Area[i]
	}
	return bias, area
}
