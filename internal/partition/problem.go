// Package partition implements the paper's primary contribution: K-way
// ground plane partitioning of an SFQ netlist by gradient descent on a
// relaxed cost function.
//
// The integer assignment w_{i,k} ∈ {0,1} ("gate i is on plane k") is relaxed
// to w_{i,k} ∈ [0,1] and the constrained integer program (Eq. 7 of the
// paper) becomes the unconstrained minimization (Eq. 8)
//
//	F = c1·F1 + c2·F2 + c3·F3 + c4·F4
//
// where F1 penalizes inter-plane connections by the fourth power of their
// plane distance, F2 and F3 are the normalized variances of the per-plane
// bias current and area, and F4 folds the row-sum-equals-one and
// integrality constraints into the objective (modified Lagrange-multiplier
// construction, Eq. 9). Algorithm 1 of the paper — random row-normalized
// initialization, fixed-step gradient descent with clamping to [0,1], and a
// relative-cost stopping margin — is implemented by Solve.
package partition

import (
	"fmt"
	"math"

	"gpp/internal/netlist"
)

// Problem is an immutable partitioning instance: G gates with bias/area
// attributes, an undirected-cost connection list, and the plane count K.
// Normalization constants N1..N4 (Eqs. 4–6, 9) are precomputed.
type Problem struct {
	Name string
	G    int // number of gates
	K    int // number of ground planes

	Bias []float64 // b_i, mA, length G
	Area []float64 // a_i, mm², length G

	// Edges are connection pairs (i1, i2). Direction is irrelevant to the
	// cost; duplicates are allowed and each counts separately.
	Edges [][2]int32

	// EdgeWeight, when non-nil, holds one positive multiplicity per edge: an
	// edge of weight w contributes exactly like w parallel unweighted
	// connections to F1 and its gradient (the multilevel coarsener collapses
	// fine edges this way instead of materializing the replicas). nil means
	// every edge has weight 1, and the kernels take their historical
	// unweighted paths, bitwise unchanged.
	EdgeWeight []float64

	// Normalization constants. When a quantity degenerates (no edges, zero
	// total bias/area, K == 1) the corresponding constant is set to 1 and
	// the term is identically zero.
	N1, N2, N3, N4 float64

	// TotalBias is B_cir = Σ b_i; TotalArea is A_cir = Σ a_i.
	TotalBias, TotalArea float64

	// MeanBias is B̄ = B_cir/K; MeanArea is Ā = A_cir/K. These are the
	// normalizer means; the live per-iteration means drift slightly while
	// row sums are unconstrained and are recomputed in the cost.
	MeanBias, MeanArea float64

	// PlaneTerms are compiled per-plane penalty terms (see terms.go)
	// evaluated over the per-plane bias/area sums in every cost and
	// gradient pass. Term compilers (internal/terms) attach them after
	// construction; empty means the historical four-term objective,
	// bitwise unchanged.
	PlaneTerms []PlaneTerm

	// Incidence CSR for the F1 gradient gather: for gate i, incEdge
	// [incStart[i]:incStart[i+1]] lists its incident edge indices in
	// increasing edge order, and incSignF is +1.0 where the gate is the
	// edge's first endpoint and −1.0 where it is the second. The gather
	// lets gradient workers accumulate each gate's neighbor sum privately
	// (no scatter write conflicts) while preserving the serial edge-order
	// summation exactly.
	incStart []int32   // length G+1
	incEdge  []int32   // length 2·|Edges|
	incSignF []float64 // length 2·|Edges|; the gather multiplies instead of
	// branching on the (unpredictable) sign — t·(−1) is exactly −t and
	// t·(+1) is exactly t in IEEE 754, so the branchless form is bitwise
	// identical to the historical negate-and-add.
}

// NewProblem validates and precomputes a partitioning instance.
func NewProblem(name string, k int, bias, area []float64, edges [][2]int) (*Problem, error) {
	return newProblem(name, k, bias, area, edges, nil)
}

// NewWeightedProblem is NewProblem with per-edge multiplicities: weights[i]
// is the number of fine-level connections edge i stands for (any positive
// finite value is accepted — fractional weights are meaningful too). A nil
// weights slice means all ones and is identical to NewProblem.
func NewWeightedProblem(name string, k int, bias, area []float64, edges [][2]int, weights []float64) (*Problem, error) {
	if weights != nil && len(weights) != len(edges) {
		return nil, fmt.Errorf("partition: %d edges but %d weights", len(edges), len(weights))
	}
	return newProblem(name, k, bias, area, edges, weights)
}

func newProblem(name string, k int, bias, area []float64, edges [][2]int, weights []float64) (*Problem, error) {
	g := len(bias)
	if g == 0 {
		return nil, fmt.Errorf("partition: empty circuit")
	}
	if len(area) != g {
		return nil, fmt.Errorf("partition: bias has %d entries but area has %d", g, len(area))
	}
	if k < 2 {
		return nil, fmt.Errorf("partition: need K ≥ 2 planes, got %d", k)
	}
	if k > g {
		return nil, fmt.Errorf("partition: K = %d exceeds gate count %d", k, g)
	}
	p := &Problem{Name: name, G: g, K: k}
	p.Bias = make([]float64, g)
	copy(p.Bias, bias)
	p.Area = make([]float64, g)
	copy(p.Area, area)
	for i := 0; i < g; i++ {
		if bias[i] < 0 {
			return nil, fmt.Errorf("partition: gate %d has negative bias %g", i, bias[i])
		}
		if area[i] < 0 {
			return nil, fmt.Errorf("partition: gate %d has negative area %g", i, area[i])
		}
		p.TotalBias += bias[i]
		p.TotalArea += area[i]
	}
	p.Edges = make([][2]int32, 0, len(edges))
	for idx, e := range edges {
		if e[0] < 0 || e[0] >= g || e[1] < 0 || e[1] >= g {
			return nil, fmt.Errorf("partition: edge %d (%d,%d) out of range [0,%d)", idx, e[0], e[1], g)
		}
		if e[0] == e[1] {
			return nil, fmt.Errorf("partition: edge %d is a self loop on gate %d", idx, e[0])
		}
		p.Edges = append(p.Edges, [2]int32{int32(e[0]), int32(e[1])})
	}
	if weights != nil {
		p.EdgeWeight = make([]float64, len(weights))
		for i, w := range weights {
			if math.IsNaN(w) || math.IsInf(w, 0) || w <= 0 {
				return nil, fmt.Errorf("partition: edge %d has non-positive weight %g", i, w)
			}
			p.EdgeWeight[i] = w
		}
	}

	km1 := float64(k - 1)
	p.MeanBias = p.TotalBias / float64(k)
	p.MeanArea = p.TotalArea / float64(k)
	switch {
	case len(p.Edges) == 0:
		p.N1 = 1
	case p.EdgeWeight == nil:
		p.N1 = float64(len(p.Edges)) * km1 * km1 * km1 * km1
	default:
		// N1 normalizes by the represented connection count, so a weighted
		// problem and its edge-replicated expansion share the same scale.
		var totalW float64
		for _, w := range p.EdgeWeight {
			totalW += w
		}
		p.N1 = totalW * km1 * km1 * km1 * km1
	}
	if p.MeanBias > 0 {
		p.N2 = km1 * p.MeanBias * p.MeanBias
	} else {
		p.N2 = 1
	}
	if p.MeanArea > 0 {
		p.N3 = km1 * p.MeanArea * p.MeanArea
	} else {
		p.N3 = 1
	}
	p.N4 = float64(g) * km1 * km1
	p.buildIncidence()
	return p, nil
}

// buildIncidence fills the incidence CSR (see the field comments). Edge
// order is preserved per gate so gather-based neighbor sums associate the
// same way as the historical scatter loop.
func (p *Problem) buildIncidence() {
	p.incStart = make([]int32, p.G+1)
	for _, e := range p.Edges {
		p.incStart[e[0]+1]++
		p.incStart[e[1]+1]++
	}
	for i := 0; i < p.G; i++ {
		p.incStart[i+1] += p.incStart[i]
	}
	p.incEdge = make([]int32, 2*len(p.Edges))
	p.incSignF = make([]float64, 2*len(p.Edges))
	cursor := make([]int32, p.G)
	copy(cursor, p.incStart[:p.G])
	for idx, e := range p.Edges {
		u, v := e[0], e[1]
		p.incEdge[cursor[u]] = int32(idx)
		p.incSignF[cursor[u]] = 1
		cursor[u]++
		p.incEdge[cursor[v]] = int32(idx)
		p.incSignF[cursor[v]] = -1
		cursor[v]++
	}
}

// FromCircuit builds a Problem from a netlist circuit.
func FromCircuit(c *netlist.Circuit, k int) (*Problem, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	bias := make([]float64, c.NumGates())
	area := make([]float64, c.NumGates())
	for i, g := range c.Gates {
		bias[i] = g.Bias
		area[i] = g.Area
	}
	edges := make([][2]int, c.NumEdges())
	for i, e := range c.Edges {
		edges[i] = [2]int{int(e.From), int(e.To)}
	}
	return NewProblem(c.Name, k, bias, area, edges)
}

// Coeffs holds the tunable linear-combination constants c1..c4 of Eq. 8.
type Coeffs struct {
	C1, C2, C3, C4 float64
}

// DefaultCoeffs returns the coefficient set used for the paper-table
// reproductions. The paper does not publish its values; these are tuned so
// the reproduced Tables I–III land in the paper's reported bands (see
// EXPERIMENTS.md).
func DefaultCoeffs() Coeffs {
	return Coeffs{C1: 1.0, C2: 0.5, C3: 0.5, C4: 1.0}
}

// Breakdown is the value of the cost and its four components, all
// normalized per Eqs. 4–6 and 9. Extra is the summed contribution of the
// problem's compiled plane terms (terms.go); it is zero — and Total is the
// historical four-term combination, bit for bit — when no plane terms are
// attached.
type Breakdown struct {
	F1, F2, F3, F4 float64
	Extra          float64
	Total          float64
}

// combine applies the coefficients.
func (c Coeffs) combine(f1, f2, f3, f4 float64) Breakdown {
	return Breakdown{
		F1:    f1,
		F2:    f2,
		F3:    f3,
		F4:    f4,
		Total: c.C1*f1 + c.C2*f2 + c.C3*f3 + c.C4*f4,
	}
}
