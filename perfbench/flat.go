package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"gpp/internal/gen"
	"gpp/internal/netlist"
	"gpp/internal/obs"
	"gpp/internal/partition"
	"gpp/internal/recycle"
	"gpp/internal/terms"
)

// flatSetupsPerSuite is how many set-ups table1-flat times after each
// suite. One set-up takes ~10 ms against a suite's ~2.5 s, so two per suite
// cost under 1% of the run and give setup_s 25 samples.
const flatSetupsPerSuite = 2

// flatPasses is how many times table1-flat runs its op list: a first pass
// and a repeat. It is fixed rather than fitted to the time left, so that
// every run at one seed does the same work and yields the same sample
// counts however fast the host runs.
const flatPasses = 2

// timeSuiteSetup times one table1-flat set-up. It starts on a collected
// heap, as a set-up at process start does, so whether a collection of the
// solves' garbage lands inside it does not depend on the suite before it.
func (b *bench) timeSuiteSetup() (map[string]*netlist.Circuit, error) {
	runtime.GC()
	var circuits map[string]*netlist.Circuit
	err := b.timeSetup(func() (err error) {
		circuits, err = b.setupSuite()
		return err
	})
	return circuits, err
}

// layerTimes accumulates the time spent in each entry point over the
// traced executions of a workload's ops.
type layerTimes struct {
	n                        int
	build, solve, eval, plan time.Duration
	iters                    int
	allocBytes               uint64
}

// runFlat drives table1-flat: the paper's Table I experiment. One caller
// runs every circuit of the suite at K = 5 with default Algorithm-1
// options and Workers = 1, once per seed set, and repeats that pass. Each
// solve is BuildProblem → SolveCtx → Evaluate → BuildPlan; SolveCtx takes
// nearly all of it. A latency sample is one suite: the 13 solves of one
// seed set.
func runFlat(b *bench) error {
	// One seed set per 6 s of measurement, so the two passes fill the
	// run. The time of one suite varies by ~15% with its seeds, so a
	// single suite would make every timing follow the seed.
	seedSets := max(1, int(b.seconds/time.Second)/6)
	ops := flatOps(b.seed, seedSets)
	perSet := len(gen.BenchmarkNames)
	b.note("seed_sets", seedSets)
	b.note("solves_per_pass", len(ops))

	circuits, err := b.timeSuiteSetup()
	if err != nil {
		return err
	}

	ctx := context.Background()
	first := make([][32]byte, len(ops))
	var suiteMS, repeatMS []float64
	var solves int
	var solveTime time.Duration
	var q qualitySum
	iters, converged := 0, 0
	var acc layerTimes
	traced := make([][]float64, seedSets) // per-suite times of traced executions
	untraced := make([][]float64, seedSets)
	start, cpu0 := time.Now(), cpuTime()
	for pass := 0; pass < flatPasses; pass++ {
		for set := 0; set < seedSets; set++ {
			// Traced runs trace every other suite, alternating by pass,
			// so each suite runs traced and untraced equally often.
			tr := b.traced && (set+pass)%2 == 0
			var suiteDur time.Duration
			for i := set * perSet; i < (set+1)*perSet; i++ {
				op := ops[i]
				b.attempted++
				d, res, err := b.flatOp(ctx, circuits[op.Circuit], op, tr, &acc)
				suiteDur += d
				if err != nil {
					b.failOp("%s seed %d: %v", op.Circuit, op.Seed, err)
					continue
				}
				if pass == 0 {
					first[i] = res.sum
					q.add(res.q.ICompPct, res.q.AFSPct, res.q.dle1(), res.q.Edges)
					iters += res.iters
					if res.converged {
						converged++
					}
				} else if res.sum != first[i] {
					b.failOp("%s seed %d: pass %d differs from the first pass", op.Circuit, op.Seed, pass)
				}
			}
			solves += perSet
			solveTime += suiteDur
			suiteMS = append(suiteMS, ms(suiteDur))
			if pass > 0 {
				repeatMS = append(repeatMS, ms(suiteDur))
			}
			if tr {
				traced[set] = append(traced[set], ms(suiteDur))
			} else {
				untraced[set] = append(untraced[set], ms(suiteDur))
			}
			b.calibrate()
			for i := 0; i < flatSetupsPerSuite; i++ {
				if _, err := b.timeSuiteSetup(); err != nil {
					return err
				}
			}
		}
	}
	wall, cpu := time.Since(start), cpuTime()-cpu0

	run := newDigest()
	for i, op := range ops {
		run.str(op.Circuit).int(op.Seed).bytes(first[i][:])
	}
	b.note("digest", run.hexSum())
	b.note("passes", flatPasses)

	b.note("suite_ms", suiteMS)
	b.setMetric("tts_s", median(suiteMS)/1000)
	b.setLatencies("cold", suiteMS)
	b.setLatencies("hit", repeatMS)
	b.setMetric("jobs_per_s", float64(solves)/solveTime.Seconds())
	q.set(b)

	if b.traced {
		perPass := float64(len(ops)) / float64(acc.n)
		b.setMetric("terms.build_ms", ms(acc.build)*perPass)
		b.setMetric("partition.solve_ms", ms(acc.solve)*perPass)
		b.setMetric("partition.ns_per_iter", float64(acc.solve.Nanoseconds())/float64(acc.iters))
		b.setMetric("partition.alloc_mb", float64(acc.allocBytes)/(1<<20)*perPass)
		b.setMetric("recycle.evaluate_ms", ms(acc.eval)*perPass)
		b.setMetric("recycle.plan_ms", ms(acc.plan)*perPass)
		b.setMetric("pool.cpu_per_wall", cpu.Seconds()/wall.Seconds())
		b.setMetric("obs.trace_overhead_pct", overheadPct(traced, untraced))
	}
	b.setMetric("gen.circuit_ms", median(b.setups)*1000)
	b.setMetric("partition.iters", float64(iters))
	b.setMetric("partition.converged_pct", 100*float64(converged)/float64(len(ops)))
	return nil
}

// setupSuite generates and SFQ-maps the Table I suite: table1-flat's
// set-up.
func (b *bench) setupSuite() (map[string]*netlist.Circuit, error) {
	root := b.root("setup")
	defer root.End()
	cs := make(map[string]*netlist.Circuit, len(gen.BenchmarkNames))
	for _, name := range gen.BenchmarkNames {
		sp := root.Child("gen.Benchmark")
		c, err := gen.Benchmark(name, nil)
		sp.End()
		if err != nil {
			return nil, err
		}
		cs[name] = c
	}
	return cs, nil
}

// opResult is what one op's checks produced.
type opResult struct {
	sum       [32]byte // digest of the op's identity and outcome
	levels    int
	iters     int
	converged bool
	q         quality
}

// flatOp runs one table1-flat op and checks its output. The returned
// duration covers the four calls into the program and nothing else.
func (b *bench) flatOp(ctx context.Context, c *netlist.Circuit, op flatOp, traced bool, acc *layerTimes) (time.Duration, opResult, error) {
	var root *obs.Span
	if traced {
		root = b.root("op")
		root.Attr("circuit", op.Circuit)
		defer root.End()
	}
	t0 := time.Now()
	sp := root.Child("terms.BuildProblem")
	p, opts, err := terms.BuildProblem(c, planes, partition.Options{Seed: op.Seed, Workers: 1}, nil)
	sp.End()
	dBuild := time.Since(t0)
	if err != nil {
		return dBuild, opResult{}, err
	}

	var m0, m1 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&m0)
	}
	t1 := time.Now()
	sp = root.Child("partition.SolveCtx")
	opts.Span = sp
	res, err := p.SolveCtx(ctx, opts)
	sp.End()
	dSolve := time.Since(t1)
	if traced {
		runtime.ReadMemStats(&m1)
	}
	if err != nil {
		return dBuild + dSolve, opResult{}, err
	}

	dEval, dPlan, q, err := evaluateAndPlan(root, c, p, res.Labels)
	total := dBuild + dSolve + dEval + dPlan
	if err != nil {
		return total, opResult{}, err
	}
	if traced {
		acc.n++
		acc.build += dBuild
		acc.solve += dSolve
		acc.eval += dEval
		acc.plan += dPlan
		acc.iters += res.Iters
		acc.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	}
	sum := newDigest().str(op.Circuit).int(op.Seed).int(int64(res.Iters)).ints(res.Labels).sum()
	return total, opResult{sum: sum, iters: res.Iters, converged: res.Converged, q: q}, nil
}

// evaluateAndPlan runs recycle.Evaluate and recycle.BuildPlan on a
// partition and checks both against the benchmark's own evaluation. It
// returns the time spent in each of the two calls.
func evaluateAndPlan(root *obs.Span, c *netlist.Circuit, p *partition.Problem, labels []int) (dEval, dPlan time.Duration, q quality, err error) {
	t0 := time.Now()
	sp := root.Child("recycle.Evaluate")
	m, err := recycle.Evaluate(p, labels)
	sp.End()
	dEval = time.Since(t0)
	if err != nil {
		return dEval, 0, q, err
	}
	t1 := time.Now()
	sp = root.Child("recycle.BuildPlan")
	plan, err := recycle.BuildPlan(c, p, labels, recycle.PlanOptions{})
	sp.End()
	dPlan = time.Since(t1)
	if err != nil {
		return dEval, dPlan, q, err
	}
	if q, err = evaluate(c, planes, labels); err != nil {
		return dEval, dPlan, q, err
	}
	if err := q.compare(fromMetrics(m)); err != nil {
		return dEval, dPlan, q, fmt.Errorf("recycle.Evaluate: %w", err)
	}
	return dEval, dPlan, q, checkPlan(plan, q)
}

// checkPlan checks a recycling plan against the benchmark's evaluation: a
// connection at plane distance d needs d coupler hops, and every plane
// must draw the supply current.
func checkPlan(plan *recycle.Plan, q quality) error {
	hops := 0
	for d, n := range q.DistHist {
		hops += d * n
	}
	if len(plan.Hops) != hops {
		return fmt.Errorf("recycle.BuildPlan: %d coupler hops, distances need %d", len(plan.Hops), hops)
	}
	if err := plan.Validate(); err != nil {
		return fmt.Errorf("recycle.BuildPlan: %w", err)
	}
	return nil
}

// overheadPct compares each op's traced and untraced executions: the sum
// over ops of their mean traced time against the sum of their mean
// untraced time. Ops missing either side are left out, so both sums cover
// the same work.
func overheadPct(traced, untraced [][]float64) float64 {
	var t, u float64
	for i := range traced {
		if len(traced[i]) == 0 || len(untraced[i]) == 0 {
			continue
		}
		t += mean(traced[i])
		u += mean(untraced[i])
	}
	if u == 0 {
		return 0
	}
	return 100 * (t/u - 1)
}
