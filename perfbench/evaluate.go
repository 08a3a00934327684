package main

import (
	"fmt"
	"math"

	"gpp/internal/netlist"
	"gpp/internal/recycle"
)

// quality is the benchmark's own evaluation of a default-objective
// partition, computed from the circuit and labels alone. It shares no code
// with internal/recycle, so a defect there shows as a mismatch.
type quality struct {
	PlaneBias []float64
	PlaneArea []float64
	DistHist  []int
	BMax      float64
	ICompPct  float64 // Σ_k (B_max − B_k) as % of the circuit bias
	AFSPct    float64 // Σ_k (A_max − A_k) as % of the circuit area
	Edges     int
}

// dle1 is the number of connections at plane distance ≤ 1.
func (q quality) dle1() int {
	n := 0
	for d := 0; d < len(q.DistHist) && d <= 1; d++ {
		n += q.DistHist[d]
	}
	return n
}

// evaluate checks the labels (every label in [0, k), no empty plane) and
// computes their quality on c.
func evaluate(c *netlist.Circuit, k int, labels []int) (quality, error) {
	if err := checkLabels(len(c.Gates), k, labels); err != nil {
		return quality{}, err
	}
	q := quality{PlaneBias: make([]float64, k), PlaneArea: make([]float64, k), DistHist: make([]int, k), Edges: len(c.Edges)}
	var totalBias, totalArea float64
	for i, g := range c.Gates {
		q.PlaneBias[labels[i]] += g.Bias
		q.PlaneArea[labels[i]] += g.Area
		totalBias += g.Bias
		totalArea += g.Area
	}
	for _, e := range c.Edges {
		d := labels[e.From] - labels[e.To]
		if d < 0 {
			d = -d
		}
		q.DistHist[d]++
	}
	var aMax float64
	for p := 0; p < k; p++ {
		q.BMax = math.Max(q.BMax, q.PlaneBias[p])
		aMax = math.Max(aMax, q.PlaneArea[p])
	}
	var iComp, aFree float64
	for p := 0; p < k; p++ {
		iComp += q.BMax - q.PlaneBias[p]
		aFree += aMax - q.PlaneArea[p]
	}
	if totalBias > 0 {
		q.ICompPct = 100 * iComp / totalBias
	}
	if totalArea > 0 {
		q.AFSPct = 100 * aFree / totalArea
	}
	return q, nil
}

// near compares two evaluations of one quantity reached by different
// summation orders.
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// reported is the subset of an evaluation the program reports, whether
// from recycle.Evaluate or from a served result document.
type reported struct {
	PlaneBias []float64
	PlaneArea []float64
	DistHist  []int
	BMax      float64
	ICompPct  float64
	AFSPct    float64
	Empty     int
}

func fromMetrics(m *recycle.Metrics) reported {
	return reported{PlaneBias: m.PlaneBias, PlaneArea: m.PlaneArea, DistHist: m.DistHist,
		BMax: m.BMax, ICompPct: m.ICompPct, AFSPct: m.AFreePct, Empty: m.EmptyPlanes}
}

// compare reports the first disagreement between the benchmark's
// evaluation and the program's.
func (q quality) compare(r reported) error {
	k := len(q.PlaneBias)
	if len(r.PlaneBias) != k || len(r.PlaneArea) != k || len(r.DistHist) != k {
		return fmt.Errorf("program reports %d/%d/%d planes, want %d", len(r.PlaneBias), len(r.PlaneArea), len(r.DistHist), k)
	}
	if r.Empty != 0 {
		return fmt.Errorf("program reports %d empty planes", r.Empty)
	}
	for p := 0; p < k; p++ {
		switch {
		case !near(q.PlaneBias[p], r.PlaneBias[p]):
			return fmt.Errorf("plane %d bias %g, program says %g", p, q.PlaneBias[p], r.PlaneBias[p])
		case !near(q.PlaneArea[p], r.PlaneArea[p]):
			return fmt.Errorf("plane %d area %g, program says %g", p, q.PlaneArea[p], r.PlaneArea[p])
		case q.DistHist[p] != r.DistHist[p]:
			return fmt.Errorf("distance %d count %d, program says %d", p, q.DistHist[p], r.DistHist[p])
		}
	}
	switch {
	case !near(q.BMax, r.BMax):
		return fmt.Errorf("B_max %g, program says %g", q.BMax, r.BMax)
	case !near(q.ICompPct, r.ICompPct):
		return fmt.Errorf("I_comp %g%%, program says %g%%", q.ICompPct, r.ICompPct)
	case !near(q.AFSPct, r.AFSPct):
		return fmt.Errorf("A_FS %g%%, program says %g%%", q.AFSPct, r.AFSPct)
	}
	return nil
}

// checkLabels checks that n gates carry labels in [0, k) and that no plane
// is empty. Alone, it is the whole check for results whose objective
// reshapes biases or edges (regime terms), so their quality figures are
// not comparable to the circuit's own.
func checkLabels(n, k int, labels []int) error {
	if len(labels) != n {
		return fmt.Errorf("%d labels for %d gates", len(labels), n)
	}
	count := make([]int, k)
	for i, l := range labels {
		if l < 0 || l >= k {
			return fmt.Errorf("gate %d has label %d outside [0,%d)", i, l, k)
		}
		count[l]++
	}
	for p, c := range count {
		if c == 0 {
			return fmt.Errorf("plane %d is empty", p)
		}
	}
	return nil
}

// qualitySum accumulates the end-to-end quality metrics over an op list.
type qualitySum struct {
	icomp, afs, dle1 []float64 // per op, in %
	dle1N, edges     int
}

func (s *qualitySum) add(icompPct, afsPct float64, dle1, edges int) {
	s.icomp = append(s.icomp, icompPct)
	s.afs = append(s.afs, afsPct)
	s.dle1 = append(s.dle1, 100*float64(dle1)/float64(edges))
	s.dle1N += dle1
	s.edges += edges
}

// set reports mean I_comp, mean A_FS, and the pooled share of connections
// at plane distance ≤ 1.
func (s *qualitySum) set(b *bench) {
	if len(s.icomp) == 0 || s.edges == 0 {
		b.failOp("no evaluated results to report quality from")
		return
	}
	b.setMetric("icomp_pct", mean(s.icomp))
	b.setMetric("afs_pct", mean(s.afs))
	b.setMetric("dle1_pct", 100*float64(s.dle1N)/float64(s.edges))
}
