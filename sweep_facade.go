package gpp

import (
	"context"
	"fmt"

	"gpp/internal/partition"
	"gpp/internal/recycle"
	"gpp/internal/serve"
	"gpp/internal/sweep"
	"gpp/internal/terms"
)

// Cost-term registry and batch-sweep facade. The registry turns the fixed
// F1–F4 objective into a pluggable term set: named specs in Options.Terms
// select and weight terms, three regime terms ship built in (xesfq,
// current_limit, timing_critical), and RegisterTerm adds user-defined
// ones. Sweep expands a declarative multi-scenario spec in process; the
// serve daemon exposes the same expansion as POST /v1/sweeps with cells
// running as cached, cluster-stealable jobs.

type (
	// TermSpec names one cost term with its weight (0 = the term's
	// default) and optional parameter; set them in Options.Terms.
	TermSpec = partition.TermSpec
	// Term is a pluggable cost term: Canon validates/normalizes a spec,
	// Compile emits the precomputed kernel tables for one circuit.
	Term = terms.Term
	// TermTables is a compiled term's contribution (bias scales, edge
	// drops/weights, per-plane penalties).
	TermTables = terms.Compiled
	// SweepSpec is the declarative scenario matrix: K axis, c-weight
	// grid, regime portfolio, ranking metric.
	SweepSpec = sweep.Spec
	// SweepKRange is an inclusive arithmetic K progression.
	SweepKRange = sweep.KRange
	// SweepWeightPoint scales the paper coefficients c1..c4 for one grid
	// point.
	SweepWeightPoint = sweep.WeightPoint
	// SweepRegime is one named term set of a sweep portfolio.
	SweepRegime = sweep.Regime
	// SweepRequest is the POST /v1/sweeps submission document for the
	// serve daemon.
	SweepRequest = serve.SweepRequest
)

// RegisterTerm adds a cost term to the registry; its name becomes valid in
// Options.Terms, sweep regimes, and serve requests, and folds into option
// fingerprints and cache keys like the built-ins.
func RegisterTerm(t Term) { terms.Register(t) }

// RegisteredTerms lists every registered term name, sorted.
func RegisteredTerms() []string { return terms.Names() }

// SweepCell is one solved scenario of an in-process sweep.
type SweepCell struct {
	// K, Regime, and Terms identify the scenario (Index is its position
	// in the expanded matrix, the handle Ranking and Pareto refer to).
	Index  int
	K      int
	Regime string
	Terms  []TermSpec
	// Result holds the solved partition and metrics; nil when the cell
	// failed, with Err saying why. Failed cells are excluded from the
	// ranking and the Pareto front but never abort the sweep.
	Result *Result
	Err    error
	// Cost and BMaxMA are the ranking metrics (discrete total cost and
	// worst per-plane bias).
	Cost   float64
	BMaxMA float64
}

// SweepResult is a finished in-process sweep: every cell plus the ranked
// summary.
type SweepResult struct {
	Cells []SweepCell
	// Ranking lists cell indices best-first under the spec's rank_by
	// metric; Pareto the non-dominated cells in (cost, B_max).
	Ranking []int
	Pareto  []int
}

// Best returns the top-ranked cell, or nil when every cell failed.
func (r *SweepResult) Best() *SweepCell {
	if len(r.Ranking) == 0 {
		return nil
	}
	return &r.Cells[r.Ranking[0]]
}

// Sweep solves the full scenario matrix in process — K ranges, c-weight
// grid points, and regime term sets — and ranks the outcomes. For the
// daemon-backed equivalent (cached, cluster-distributed cells) POST the
// same spec to /v1/sweeps. The two agree cell for cell when base carries
// what a daemon cell runs: Momentum MomentumAuto, the daemon's default
// for cells whose request names no momentum. The zero base runs the
// paper's plain steps, which the daemon runs for "momentum": 0.
func Sweep(c *Circuit, spec SweepSpec, base Options) (*SweepResult, error) {
	return SweepCtx(context.Background(), c, spec, base)
}

// SweepCtx is Sweep under a context: cancellation stops between gradient
// iterations and fails the remaining cells (the finished ones keep their
// results), then surfaces ctx's error.
func SweepCtx(ctx context.Context, c *Circuit, spec SweepSpec, base Options) (*SweepResult, error) {
	cells, err := sweep.Expand(spec, 0)
	if err != nil {
		return nil, err
	}
	out := &SweepResult{Cells: make([]SweepCell, len(cells))}
	outcomes := make([]sweep.Outcome, len(cells))
	for i, cell := range cells {
		sc := SweepCell{Index: cell.Index, K: cell.K, Regime: cell.Regime, Terms: cell.Terms}
		opts := base
		opts.Terms = append(append([]TermSpec(nil), base.Terms...), cell.Terms...)
		res, cost, bmax, err := solveCell(ctx, c, cell.K, opts)
		if err != nil {
			sc.Err = fmt.Errorf("gpp: sweep cell %d (k=%d regime=%q): %w", cell.Index, cell.K, cell.Regime, err)
			outcomes[i] = sweep.Outcome{Index: cell.Index, Failed: true}
		} else {
			sc.Result, sc.Cost, sc.BMaxMA = res, cost, bmax
			outcomes[i] = sweep.Outcome{Index: cell.Index, Cost: cost, BMax: bmax}
		}
		out.Cells[i] = sc
		if ctx.Err() != nil {
			for j := i + 1; j < len(cells); j++ {
				out.Cells[j] = SweepCell{
					Index: cells[j].Index, K: cells[j].K, Regime: cells[j].Regime,
					Terms: cells[j].Terms, Err: ctx.Err(),
				}
				outcomes[j] = sweep.Outcome{Index: cells[j].Index, Failed: true}
			}
			break
		}
	}
	out.Ranking = sweep.Rank(outcomes, spec.RankBy)
	out.Pareto = sweep.ParetoFront(outcomes)
	if err := ctx.Err(); err != nil {
		return out, fmt.Errorf("gpp: sweep: %w", err)
	}
	return out, nil
}

func solveCell(ctx context.Context, c *Circuit, k int, opts Options) (*Result, float64, float64, error) {
	p, opts, err := terms.BuildProblem(c, k, opts, nil)
	if err != nil {
		return nil, 0, 0, err
	}
	res, err := p.SolveCtx(ctx, opts)
	if err != nil {
		return nil, 0, 0, err
	}
	m, err := recycle.Evaluate(p, res.Labels)
	if err != nil {
		return nil, 0, 0, err
	}
	r := &Result{K: k, Labels: res.Labels, Metrics: m, Iters: res.Iters, Converged: res.Converged}
	return r, res.Discrete.Total, m.BMax, nil
}
