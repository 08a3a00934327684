package gpp

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"gpp/internal/def"
	"gpp/internal/eco"
	"gpp/internal/partition"
	"gpp/internal/place"
	"gpp/internal/power"
	"gpp/internal/recycle"
	"gpp/internal/route"
	"gpp/internal/sim"
	"gpp/internal/svg"
	"gpp/internal/timing"
	"gpp/internal/verif"
	"gpp/internal/verilog"
)

// Extended facade: plane-aware placement, timing/power analysis, and
// independent verification on top of the core partitioning flow.

type (
	// Placement is a plane-banded layout of a partitioned circuit.
	Placement = place.Placement
	// TimingAnalysis is the stage-delay timing result of a circuit.
	TimingAnalysis = timing.Analysis
	// TimingPenalty compares unpartitioned vs partitioned timing.
	TimingPenalty = timing.Penalty
	// PowerComparison compares parallel vs recycled supply economics.
	PowerComparison = power.Comparison
	// Issue is one verification finding.
	Issue = verif.Issue
	// PortfolioOptions configures a concurrent multi-seed restart race.
	PortfolioOptions = partition.PortfolioOptions
	// Portfolio is the outcome of a restart race (best result + per-seed
	// summaries).
	Portfolio = partition.Portfolio
	// SeedResult summarizes one restart of a portfolio.
	SeedResult = partition.SeedResult
)

// Place lays the partitioned circuit out as stacked plane bands (the
// chip organization of the paper's Fig. 1) and returns the geometry,
// boundary coupler slots, and wirelength measures.
func Place(c *Circuit, res *Result) (*Placement, error) {
	return place.Build(c, res.K, res.Labels, place.Options{})
}

// WritePlacedDEF emits the partitioned, placed design as DEF with one
// REGION/GROUP pair per ground plane — the hand-off format for downstream
// physical design tools.
func WritePlacedDEF(w io.Writer, c *Circuit, p *Placement) error {
	return def.WritePlaced(w, c, p)
}

// ReadPlanesDEF recovers a plane labeling from a DEF file containing
// plane_<k> GROUPS (as written by WritePlacedDEF). Returns the labels and
// the plane count.
func ReadPlanesDEF(r io.Reader, c *Circuit) ([]int, int, error) {
	_, groups, err := def.ParseRegionsGroups(r)
	if err != nil {
		return nil, 0, err
	}
	return def.LabelsFromGroups(c, groups)
}

// AnalyzeTiming runs the first-order SFQ stage-delay model on the circuit
// (unpartitioned).
func AnalyzeTiming(c *Circuit) (*TimingAnalysis, error) {
	return timing.Analyze(c, timing.Options{})
}

// TimingImpact quantifies the frequency penalty of a partition: coupler
// chains on inter-plane connections lengthen pipeline stages.
func TimingImpact(c *Circuit, res *Result) (*TimingPenalty, error) {
	return timing.ComparePartition(c, res.Labels, timing.Options{})
}

// PowerImpact models the supply economics of a recycling plan against
// parallel biasing (RSFQ scheme).
func PowerImpact(c *Circuit, plan *Plan) (*PowerComparison, error) {
	return power.Compare(c, plan, power.Options{Scheme: power.RSFQ})
}

// Verify independently re-derives a result's claimed properties and
// returns any discrepancies (empty means everything checks out). When
// limitMA > 0 the per-plane supply limit is enforced too.
func Verify(c *Circuit, res *Result, limitMA float64) []Issue {
	issues := verif.Partition(c, res.K, res.Labels, limitMA)
	issues = append(issues, verif.Metrics(c, res.Labels, res.Metrics)...)
	return issues
}

// VerifyPlan checks a recycling plan's chains and series conservation.
func VerifyPlan(c *Circuit, res *Result, plan *Plan) []Issue {
	return verif.Plan(c, res.Labels, plan)
}

// PartitionBalanced runs the solver with capacity-aware rounding: every
// plane's bias stays within (1+slack)·B_cir/K, trading some wire cost for
// a guaranteed B_max bound (useful under a supply limit).
func PartitionBalanced(c *Circuit, k int, opts Options, slack float64) (*Result, error) {
	p, err := partition.FromCircuit(c, k)
	if err != nil {
		return nil, err
	}
	res, err := p.SolveBalanced(opts, slack)
	if err != nil {
		return nil, err
	}
	m, err := recycle.Evaluate(p, res.Labels)
	if err != nil {
		return nil, err
	}
	return &Result{K: k, Labels: res.Labels, Metrics: m, Iters: res.Iters, Converged: res.Converged}, nil
}

// WriteVerilog emits the circuit as structural Verilog; when res is
// non-nil every instance is annotated with its ground plane as a
// synthesis attribute.
func WriteVerilog(w io.Writer, c *Circuit, res *Result) error {
	opts := verilog.Options{}
	if res != nil {
		opts.Labels = res.Labels
	}
	return verilog.Write(w, c, opts)
}

// PartitionPortfolio races po.Restarts independent solver runs concurrently
// on a bounded worker pool and returns the best discrete-cost partition
// plus the full per-seed portfolio. The race is deterministic: the same
// options produce the same winner regardless of worker count or completion
// order. Cancelling ctx stops the race early with the context error.
func PartitionPortfolio(ctx context.Context, c *Circuit, k int, opts Options, po PortfolioOptions) (*Result, *Portfolio, error) {
	p, err := partition.FromCircuit(c, k)
	if err != nil {
		return nil, nil, err
	}
	pf, err := p.SolvePortfolio(ctx, opts, po)
	if err != nil {
		return nil, nil, err
	}
	m, err := recycle.Evaluate(p, pf.Best.Labels)
	if err != nil {
		return nil, nil, err
	}
	res := &Result{K: k, Labels: pf.Best.Labels, Metrics: m, Iters: pf.Best.Iters, Converged: pf.Best.Converged}
	return res, pf, nil
}

// SimResult is one simulated SFQ pulse wave.
type SimResult = sim.Result

// Simulate runs one functional pulse wave through a mapped netlist:
// inputs maps input-converter names (with or without the mapper's
// "INPUT_" prefix) to pulse presence.
func Simulate(c *Circuit, inputs map[string]bool) (*SimResult, error) {
	return sim.Run(c, inputs, sim.Options{})
}

// MeasureActivity estimates the circuit's switching activity over `waves`
// random input vectors (seeded, deterministic) — a measured substitute for
// the power model's assumed activity factor.
func MeasureActivity(c *Circuit, waves int, seed int64) (float64, error) {
	if waves <= 0 {
		return 0, fmt.Errorf("gpp: need ≥ 1 wave, got %d", waves)
	}
	rng := rand.New(rand.NewSource(seed))
	var names []string
	for _, g := range c.Gates {
		if g.Cell == "DCSFQ" && g.Name != "clk_src" {
			names = append(names, g.Name)
		}
	}
	ws := make([]map[string]bool, waves)
	for w := range ws {
		in := make(map[string]bool, len(names))
		for _, n := range names {
			in[n] = rng.Intn(2) == 1
		}
		ws[w] = in
	}
	return sim.Activity(c, ws, sim.Options{})
}

// WriteLayoutSVG renders the plane-banded layout as an SVG document.
func WriteLayoutSVG(w io.Writer, p *Placement) error { return svg.WriteLayout(w, p) }

// WriteStackSVG renders the serial bias stack (Fig. 1 of the paper) as an
// SVG document.
func WriteStackSVG(w io.Writer, plan *Plan) error { return svg.WriteStack(w, plan) }

// ExtendPartition performs an ECO-style incremental assignment: `grown`
// must contain the original circuit's gates (in order) followed by newly
// added ones; `base` is the existing partition of the original gates. New
// gates are placed greedily and a local cleanup runs around the edit.
// Returns the full labeling plus how many old gates the cleanup moved.
func ExtendPartition(grown *Circuit, k int, base []int) (labels []int, adjusted int, err error) {
	p, err := partition.FromCircuit(grown, k)
	if err != nil {
		return nil, 0, err
	}
	res, err := eco.Extend(p, base, eco.Options{})
	if err != nil {
		return nil, 0, err
	}
	return res.Labels, res.Adjusted, nil
}

// PlaneBlock is one ground plane's extracted circuit block.
type PlaneBlock = recycle.PlaneBlock

// ExtractPlanes splits a partitioned circuit into one standalone netlist
// per ground plane, with per-block coupler port counts — the deliverable
// each plane's physical design starts from.
func ExtractPlanes(c *Circuit, res *Result) ([]PlaneBlock, error) {
	p, err := partition.FromCircuit(c, res.K)
	if err != nil {
		return nil, err
	}
	return recycle.PlaneNetlists(c, p, res.Labels)
}

// ChannelRouting is the boundary-channel routing estimate of a placement.
type ChannelRouting = route.Result

// RouteChannels estimates the inter-plane routing of a placed partition:
// left-edge track assignment per boundary channel, worst-channel height,
// and total channel wirelength.
func RouteChannels(c *Circuit, res *Result, p *Placement) (*ChannelRouting, error) {
	return route.Build(c, res.Labels, p)
}
