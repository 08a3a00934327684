// Package gpp is the public facade of the ground-plane-partitioning
// library, a reproduction of Katam, Zhang and Pedram, "Ground Plane
// Partitioning for Current Recycling of Superconducting Circuits"
// (DATE 2020).
//
// Large single-flux-quantum (SFQ) circuits need tens of amperes of bias
// current; current recycling slashes the external supply by splitting the
// circuit across K serially-biased ground planes. This package partitions a
// gate-level SFQ netlist into K planes by gradient descent on the paper's
// relaxed cost function, evaluates the partition with the paper's metrics
// (inter-plane connection distances, bias compensation I_comp, free area
// A_FS), and plans the physical realization (inductive coupler chains and
// dummy bias structures).
//
// Typical use:
//
//	circuit, _ := gpp.Benchmark("KSA8")       // or build/parse your own
//	res, _ := gpp.Partition(circuit, 5, gpp.Options{})
//	fmt.Println(res.Metrics.DistLEPct(1))     // % same/adjacent-plane wires
//	plan, _ := gpp.PlanRecycling(circuit, res)
//	fmt.Println(plan.SupplyCurrent, plan.SavedCurrent())
//
// The heavy lifting lives in the internal packages (netlist model, cell
// library, DEF/LEF I/O, generators, SFQ mapper, solver, baselines,
// recycling planner); this package re-exports the types a downstream user
// needs and wires the common flows together.
package gpp

import (
	"context"
	"fmt"
	"io"

	"gpp/internal/cellib"
	"gpp/internal/def"
	"gpp/internal/gen"
	"gpp/internal/netlist"
	"gpp/internal/partition"
	"gpp/internal/recycle"
	"gpp/internal/terms"
)

// Re-exported core types. The aliases keep one canonical definition while
// letting users stay within the gpp package.
type (
	// Circuit is a gate-level SFQ netlist (gates with bias/area, directed
	// point-to-point connections).
	Circuit = netlist.Circuit
	// Gate is one cell instance of a Circuit.
	Gate = netlist.Gate
	// Options configures the gradient-descent solver (Algorithm 1).
	Options = partition.Options
	// Coeffs are the cost-function constants c1..c4.
	Coeffs = partition.Coeffs
	// Metrics are the paper's partition-quality measures.
	Metrics = recycle.Metrics
	// Plan is a physical current-recycling realization of a partition.
	Plan = recycle.Plan
	// Library is an SFQ standard-cell library.
	Library = cellib.Library
	// GateID identifies a gate within a Circuit.
	GateID = netlist.GateID
	// Edge is one directed connection of a Circuit.
	Edge = netlist.Edge
)

// MomentumAuto is the Options.Momentum value that lets each solve pick its
// update rule: heavy-ball momentum 0.9 unless the compiled problem has
// plane terms (current_limit), which keep the paper's plain steps. It is
// the serve daemon's default; the zero Options stay literal Algorithm 1.
const MomentumAuto = partition.MomentumAuto

// Result bundles a partition with its quality metrics.
type Result struct {
	// K is the plane count.
	K int
	// Labels assigns every gate a plane in [0, K).
	Labels []int
	// Metrics are the paper's quality measures for this partition.
	Metrics *Metrics
	// Iters is the number of gradient iterations used; Converged reports
	// whether the relative-margin stop (rather than the cap) ended them.
	Iters     int
	Converged bool
}

// DefaultLibrary returns the built-in SFQ cell library.
func DefaultLibrary() *Library { return cellib.Default() }

// Partition splits the circuit into k serially-biasable ground planes with
// the paper's gradient-descent algorithm.
func Partition(c *Circuit, k int, opts Options) (*Result, error) {
	return PartitionCtx(context.Background(), c, k, opts)
}

// PartitionCtx is Partition with cooperative cancellation: the solver
// checks ctx once per gradient iteration, so a deadline or cancel stops
// the descent within one iteration. This is the path the serve daemon
// uses to enforce per-job deadlines.
func PartitionCtx(ctx context.Context, c *Circuit, k int, opts Options) (*Result, error) {
	// The term registry builds the problem: with Options.Terms empty this
	// is exactly the historical FromCircuit path; named regime terms
	// (xesfq, current_limit, timing_critical, or user-registered ones)
	// reshape the compiled problem first.
	p, opts, err := terms.BuildProblem(c, k, opts, nil)
	if err != nil {
		return nil, err
	}
	res, err := p.SolveCtx(ctx, opts)
	if err != nil {
		return nil, err
	}
	m, err := recycle.Evaluate(p, res.Labels)
	if err != nil {
		return nil, err
	}
	return &Result{K: k, Labels: res.Labels, Metrics: m, Iters: res.Iters, Converged: res.Converged}, nil
}

// PlanRecycling turns a partition result into a physical current-recycling
// plan: coupler chains for every inter-plane connection, dummy bias
// structures equalizing per-plane current draw, and the resulting external
// supply requirement.
func PlanRecycling(c *Circuit, res *Result) (*Plan, error) {
	return PlanRecyclingCtx(context.Background(), c, res)
}

// PlanRecyclingCtx is PlanRecycling under a context. Plan construction is
// a single pass (no iteration to interrupt), so the context is checked at
// entry: an already-expired deadline fails fast instead of building a
// plan nobody will read.
func PlanRecyclingCtx(ctx context.Context, c *Circuit, res *Result) (*Plan, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("gpp: plan recycling: %w", err)
	}
	p, err := partition.FromCircuit(c, res.K)
	if err != nil {
		return nil, err
	}
	return recycle.BuildPlan(c, p, res.Labels, recycle.PlanOptions{})
}

// Evaluate computes the paper's metrics for an externally produced
// labeling (labels are 0-based planes).
func Evaluate(c *Circuit, k int, labels []int) (*Metrics, error) {
	p, err := partition.FromCircuit(c, k)
	if err != nil {
		return nil, err
	}
	return recycle.Evaluate(p, labels)
}

// Benchmark generates one circuit of the paper's benchmark suite by name
// (KSA4/8/16/32, MULT4/8, ID4/8, C432, C499, C1355, C1908, C3540).
func Benchmark(name string) (*Circuit, error) {
	return gen.Benchmark(name, nil)
}

// BenchmarkNames lists the paper's Table I suite in table order.
func BenchmarkNames() []string {
	out := make([]string, len(gen.BenchmarkNames))
	copy(out, gen.BenchmarkNames)
	return out
}

// Suite generates the full benchmark suite.
func Suite() ([]*Circuit, error) { return gen.Suite(nil) }

// WriteDEF emits the circuit as a placed DEF design using the default
// library's geometry.
func WriteDEF(w io.Writer, c *Circuit) error {
	return def.Write(w, c, nil)
}

// ReadDEF parses a DEF design and resolves cells against the default
// library.
func ReadDEF(r io.Reader) (*Circuit, error) {
	d, err := def.Parse(r)
	if err != nil {
		return nil, err
	}
	return def.ToCircuit(d, nil)
}

// MinimumPlanes returns the lower bound K_LB = ⌈B_cir/limit⌉ on the number
// of planes needed so that no plane exceeds the supply limit (in mA).
func MinimumPlanes(c *Circuit, limitMA float64) (int, error) {
	if limitMA <= 0 {
		return 0, fmt.Errorf("gpp: supply limit must be positive, got %g", limitMA)
	}
	total := c.TotalBias()
	k := int(total / limitMA)
	if float64(k)*limitMA < total {
		k++
	}
	if k < 1 {
		k = 1
	}
	return k, nil
}
