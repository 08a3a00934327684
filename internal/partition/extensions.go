package partition

import (
	"context"
	"sort"
)

// BalancedAssign snaps a relaxed matrix to a discrete assignment under a
// per-plane bias capacity, instead of the plain per-gate argmax of
// Algorithm 1 (lines 27–30). Gates are processed in decreasing confidence
// (gap between their best and second-best w entry); each goes to its
// highest-w plane whose running bias stays within capacity, falling back
// to the least-loaded plane when every preferred plane is full.
//
// capacitySlack is the allowed overshoot above the perfect balance
// B_cir/K; 0.05 means every plane may take up to 105% of the ideal share.
// The result trades a little wire cost (F1) for a guaranteed B_max bound —
// exactly the knob Table III's supply-limit search needs.
func (p *Problem) BalancedAssign(w W, capacitySlack float64) []int {
	if capacitySlack < 0 {
		capacitySlack = 0
	}
	capacity := p.MeanBias * (1 + capacitySlack)

	type cand struct {
		gate int
		gap  float64
	}
	cands := make([]cand, p.G)
	for i := 0; i < p.G; i++ {
		row := w[i*p.K : (i+1)*p.K]
		best, second := -1.0, -1.0
		for _, v := range row {
			if v > best {
				best, second = v, best
			} else if v > second {
				second = v
			}
		}
		cands[i] = cand{gate: i, gap: best - second}
	}
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].gap > cands[b].gap })

	labels := make([]int, p.G)
	load := make([]float64, p.K)
	for _, cd := range cands {
		i := cd.gate
		row := w[i*p.K : (i+1)*p.K]
		// The highest-w plane with room, ties to the lower plane.
		pick := -1
		for k := 0; k < p.K; k++ {
			if load[k]+p.Bias[i] <= capacity && (pick < 0 || row[k] > row[pick]) {
				pick = k
			}
		}
		if pick < 0 {
			// Every plane is at capacity (possible when one gate's bias
			// exceeds the slack); take the least-loaded plane.
			pick = 0
			for k := 1; k < p.K; k++ {
				if load[k] < load[pick] {
					pick = k
				}
			}
		}
		labels[i] = pick
		load[pick] += p.Bias[i]
	}
	return labels
}

// SolveBalanced runs Algorithm 1 and snaps with BalancedAssign instead of
// argmax, then optionally refines. It returns the solver result with the
// balanced labels substituted (and Discrete recomputed).
func (p *Problem) SolveBalanced(opts Options, capacitySlack float64) (*Result, error) {
	return p.SolveBalancedCtx(context.Background(), opts, capacitySlack)
}

// SolveBalancedCtx is SolveBalanced with the cooperative cancellation of
// SolveCtx.
func (p *Problem) SolveBalancedCtx(ctx context.Context, opts Options, capacitySlack float64) (*Result, error) {
	snapOpts := opts
	snapOpts.Refine = false
	res, err := p.SolveCtx(ctx, snapOpts)
	if err != nil {
		return nil, err
	}
	res.Labels = p.BalancedAssign(res.W, capacitySlack)
	if opts.Refine {
		o := opts.withDefaults()
		res.RefineMoves = p.Refine(res.Labels, o.Coeffs, o.RefinePasses)
	}
	o := opts.withDefaults()
	res.Discrete = p.DiscreteCost(res.Labels, o.Coeffs)
	return res, nil
}
