package partition

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"gpp/internal/obs"
	"gpp/internal/pool"
)

// Options configures the gradient-descent solver (Algorithm 1).
type Options struct {
	// Coeffs are the c1..c4 constants of Eq. 8. Zero value means
	// DefaultCoeffs().
	Coeffs Coeffs

	// Margin is the relative-cost stopping threshold of Algorithm 1:
	// iteration stops when |cost_new/cost_old − 1| ≤ Margin. Default 1e-4
	// (the paper's value).
	Margin float64

	// MaxIters caps the descent loop. Algorithm 1 has no explicit cap; the
	// cap guards pathological coefficient choices. Default 4000.
	MaxIters int

	// LearnRate, if positive, is a fixed step size: w ← w − LearnRate·∇F.
	// If zero, the step is auto-calibrated so that the first update moves
	// the largest-magnitude entry by InitStep (see below). Algorithm 1
	// subtracts the raw gradient; because the normalized gradients scale
	// like 1/(G·K) that literal rule stalls on real circuit sizes, so
	// auto-calibration is the default. Set LearnRate = 1 to reproduce the
	// literal algorithm.
	LearnRate float64

	// InitStep is the auto-calibration target for the first step's largest
	// entry movement. Default 0.25/K: a w-entry movement of δ can move a
	// continuous label by up to K·δ, so the default keeps the per-step
	// label movement bounded by ~0.25 planes independent of K (large K
	// collapses onto a single plane with K-independent steps).
	InitStep float64

	// Seed seeds the random initialization. Runs are deterministic for a
	// fixed seed. Default 1.
	Seed int64

	// Terms selects registered cost terms beyond the implicit default set
	// (see terms.go and DESIGN.md §16). The paper terms "f1".."f4" scale
	// the corresponding coefficient and normalize away (an empty list and
	// a pure f-term list both canonicalize onto plain Coeffs — the
	// historical kernel path, bit for bit). Regime terms (registered by
	// internal/terms: "xesfq", "current_limit", "timing_critical") stay in
	// the normalized list, fold into Fingerprint, and take effect when the
	// Problem is compiled through terms.BuildProblem — the facade and the
	// serve daemon do this; Problem.Solve alone only carries them in the
	// solve identity. Unknown or duplicate names and non-finite or
	// negative weights/params are validation errors.
	Terms []TermSpec

	// Gradient selects exact (default) or paper-literal gradients.
	Gradient GradientMode

	// Renormalize, if true, rescales each row to sum to one after every
	// update (projection onto the simplex face the initialization starts
	// on). Algorithm 1 only clamps to [0,1]; renormalization is an
	// ablation option.
	Renormalize bool

	// Momentum, when in (0, 1), applies heavy-ball momentum to the
	// descent: v ← Momentum·v + ∇F; w ← w − step·v. The paper uses plain
	// gradient steps (0, the default); momentum is an extension that
	// typically reaches the stopping margin in fewer iterations.
	// MomentumAuto lets each solve pick the rule from its problem.
	Momentum float64

	// ReduceDims, if true, uses the paper's dimension-reduction trick
	// (Section IV-C): because Σ_k w_{i,k} = 1 is known, each row is
	// updated as a K−1-dimensional free vector with the last coordinate
	// derived as 1 − Σ of the rest. Free coordinates move against the
	// *reduced* gradient ∂F/∂w_{i,k} − ∂F/∂w_{i,K}, are clamped to [0,1],
	// and the row is rescaled when the free part exceeds one, keeping the
	// derived coordinate non-negative. Mutually exclusive with Renormalize
	// (rows stay stochastic by construction); combining them is a
	// validation error.
	ReduceDims bool

	// Workers is the number of goroutines the cost/gradient kernels run
	// on: 0 ("auto") means one per CPU, 1 means fully serial, N means
	// exactly N. The kernels use a fixed shard decomposition with
	// shard-order merges, so every worker count produces bitwise
	// identical results — Workers is purely a speed knob. Negative values
	// are a validation error.
	Workers int

	// Refine, if true, runs the greedy move-based refinement pass on the
	// discrete assignment after descent (see Refine). Off by default: the
	// headline reproduction reports the raw Algorithm-1 output.
	Refine bool

	// RefinePasses caps refinement sweeps (default 8).
	RefinePasses int

	// TraceCost, if true, records the total cost after every iteration.
	TraceCost bool

	// Tracer, when non-nil, receives structured telemetry events for the
	// solve: solve_start, pool, one iter event per gradient update, snap,
	// refine passes, and solve_done (see internal/obs). A nil Tracer is the
	// default and keeps the iteration path allocation-free; event payloads
	// are pure functions of solver state, so traces are deterministic at
	// every Workers count. If the tracer is a sink that latches a write
	// error (obs.JSONL), Solve surfaces that error instead of silently
	// dropping the trace.
	Tracer obs.Tracer

	// Span, when non-nil, is the parent span the solve hangs its spans
	// under: a "descent" span covering initialization through the
	// gradient loop, with one "checkpoint" child per snapshot fsync.
	// Like Tracer it is execution-only — excluded from Fingerprint, nil
	// by default, and the nil path costs nothing (nil-receiver no-ops).
	Span *obs.Span

	// Checkpoint, when non-nil, receives a Snapshot of the complete
	// descent state every CheckpointEvery iterations (deep copies — the
	// hook may retain or serialize them). A solve killed after a
	// checkpoint and resumed from it (Resume) finishes bitwise identical
	// to the uninterrupted run at any Workers count. A hook error aborts
	// the solve with that error. Like Tracer, Checkpoint is execution-
	// only: it never changes the result and is excluded from Fingerprint.
	Checkpoint func(*Snapshot) error

	// CheckpointEvery is the snapshot cadence in iterations; 0 with a
	// non-nil Checkpoint hook defaults to 100. Negative is a validation
	// error.
	CheckpointEvery int

	// Resume, when non-nil, continues the checkpointed solve instead of
	// random-initializing: the matrix, momentum velocity, step size,
	// stopping reference and iteration count all restore from the
	// snapshot, and the RNG initialization is skipped (the snapshot is
	// always past it). The snapshot must match the problem shape and the
	// options fingerprint — a resume under different result-relevant
	// options is rejected.
	Resume *Snapshot
}

// MomentumAuto is the one Options.Momentum value outside [0, 1): it asks
// SolveCtx to pick the update rule from the compiled problem. A problem
// without plane terms descends with heavy-ball momentum 0.9, which on
// Table I needs about 5× fewer iterations than plain steps and reaches a
// lower I_comp. A problem with plane terms (today only current_limit
// compiles to one) keeps plain steps: momentum overshoots the quadratic
// hinge and wrecks the balance it enforces. The resolution happens inside
// the solve, so Normalize and Fingerprint keep the value itself — an auto
// solve has its own fingerprint and cache key, distinct from both
// explicit rules.
const MomentumAuto = -1.0

// autoMomentum is the heavy-ball coefficient MomentumAuto resolves to on a
// problem without plane terms.
const autoMomentum = 0.9

// resolveMomentum maps MomentumAuto onto the rule this problem runs;
// explicit values pass through.
func (p *Problem) resolveMomentum(m float64) float64 {
	if m != MomentumAuto {
		return m
	}
	if len(p.PlaneTerms) > 0 {
		return 0
	}
	return autoMomentum
}

// validate rejects nonsensical option combinations before defaulting. Zero
// values mean "use the default" and are fine; negatives and non-finite
// values have no meaning anywhere and were historically silently coerced —
// now they are descriptive errors.
func (o Options) validate() error {
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	switch {
	case o.Workers < 0:
		return fmt.Errorf("partition: workers %d must be ≥ 0 (0 = one per CPU)", o.Workers)
	case !finite(o.Margin) || o.Margin < 0:
		return fmt.Errorf("partition: margin %g must be a finite value in [0, 1)", o.Margin)
	case o.Margin >= 1:
		return fmt.Errorf("partition: margin %g must be < 1", o.Margin)
	case o.MaxIters < 0:
		return fmt.Errorf("partition: max iterations %d must be ≥ 0 (0 = default)", o.MaxIters)
	case !finite(o.LearnRate) || o.LearnRate < 0:
		return fmt.Errorf("partition: learn rate %g must be a finite value ≥ 0 (0 = auto-calibrate)", o.LearnRate)
	case !finite(o.InitStep) || o.InitStep < 0:
		return fmt.Errorf("partition: init step %g must be a finite value ≥ 0 (0 = default)", o.InitStep)
	case o.Momentum != MomentumAuto && (!finite(o.Momentum) || o.Momentum < 0 || o.Momentum >= 1):
		return fmt.Errorf("partition: momentum %g must be a finite value in [0, 1) or MomentumAuto", o.Momentum)
	case o.Renormalize && o.ReduceDims:
		return fmt.Errorf("partition: Renormalize and ReduceDims are mutually exclusive (reduced rows are stochastic by construction)")
	case o.RefinePasses < 0:
		return fmt.Errorf("partition: refine passes %d must be ≥ 0 (0 = default)", o.RefinePasses)
	case o.CheckpointEvery < 0:
		return fmt.Errorf("partition: checkpoint interval %d must be ≥ 0 (0 = default)", o.CheckpointEvery)
	}
	return validateTermSpecs(o.Terms)
}

func (o Options) withDefaults() Options {
	if o.Coeffs == (Coeffs{}) {
		o.Coeffs = DefaultCoeffs()
	}
	if o.Margin <= 0 {
		o.Margin = 1e-4
	}
	if o.MaxIters <= 0 {
		o.MaxIters = 4000
	}
	// InitStep defaults to 0.25/K in Solve (needs the problem's K).
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.RefinePasses <= 0 {
		o.RefinePasses = 8
	}
	if o.Checkpoint != nil && o.CheckpointEvery == 0 {
		o.CheckpointEvery = 100
	}
	// Canonical term form: f1–f4 specs fold into the (now defaulted)
	// coefficients, regime terms get their defaults and a stable order.
	o.Coeffs, o.Terms = foldTerms(o.Coeffs, o.Terms)
	return o
}

// Result is the solver output.
type Result struct {
	// Labels is the discrete assignment: Labels[i] ∈ [0, K) is the plane of
	// gate i.
	Labels []int

	// W is the relaxed matrix at termination (before snapping).
	W W

	// Iters is the number of gradient iterations performed.
	Iters int

	// Converged reports whether the margin criterion (rather than the
	// iteration cap) stopped the loop.
	Converged bool

	// Relaxed is the cost at the final relaxed point; Discrete is the cost
	// of the snapped (and optionally refined) assignment.
	Relaxed, Discrete Breakdown

	// StepSize is the learning rate actually used.
	StepSize float64

	// CostTrace holds the total cost per iteration when Options.TraceCost
	// is set.
	CostTrace []float64

	// RefineMoves counts gates moved by the refinement pass (0 when
	// refinement is disabled).
	RefineMoves int
}

// Solve runs Algorithm 1 on the problem. The cost/gradient kernels run on
// opts.Workers goroutines; results are bitwise identical for every worker
// count (fixed shard decomposition, shard-order merges).
func (p *Problem) Solve(opts Options) (*Result, error) {
	return p.SolveCtx(context.Background(), opts)
}

// SolveCtx is Solve with cooperative cancellation: the context is checked
// once per gradient iteration, so a server deadline or client cancel stops
// a long descent within one iteration instead of running it to the cap.
// The partial state is discarded — a cancelled solve returns only the
// context's error.
func (p *Problem) SolveCtx(ctx context.Context, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	workers := pool.Resolve(opts.Workers)
	if opts.InitStep <= 0 {
		opts.InitStep = 0.25 / float64(p.K)
	}
	// Resolved before the velocity exists and before the checkpoint
	// fingerprint: snapshots record the rule that actually ran, so an auto
	// checkpoint resumes under MomentumAuto or the explicit rule alike.
	opts.Momentum = p.resolveMomentum(opts.Momentum)
	// Checkpoint/resume identity: both sides pin the snapshot to the
	// normalized options fingerprint (computed after the K-dependent
	// InitStep default resolves), so a checkpointed solve can only be
	// continued under the exact configuration that produced it.
	var ckptFP string
	if opts.Checkpoint != nil || opts.Resume != nil {
		fp, err := opts.Fingerprint()
		if err != nil {
			return nil, err
		}
		ckptFP = fp
	}
	if err := p.checkResume(opts.Resume, opts); err != nil {
		return nil, err
	}
	tracer := opts.Tracer
	// One persistent worker group per solve: the descent loop dispatches
	// ~4 shard kernels per iteration, and reusing parked workers turns each
	// dispatch from workers goroutine spawns + joins into one channel send
	// per worker. Close tears the goroutines down synchronously on every
	// return path, so solves never leak workers. A serial solve runs on
	// the nil group (inline shard loop, nothing to allocate or close).
	var grp *pool.Group
	if workers > 1 {
		grp = pool.NewGroup(workers)
	}
	defer grp.Close()
	sc := p.newScratch(grp)
	sc.wantNorm = tracer != nil
	if tracer != nil {
		// Neither event records the worker count: the shard layout is a
		// pure function of the problem size, and the trace stream must be
		// byte-identical across Workers settings (the manifest records
		// the environment; the trace records the algorithm).
		tracer.Emit(obs.Event{Kind: obs.KindSolveStart, Seed: opts.Seed,
			K: p.K, Gates: p.G, Edges: len(p.Edges)})
		tracer.Emit(obs.Event{Kind: obs.KindPool,
			GateShards: pool.Shards(p.G, gateChunk),
			EdgeShards: pool.Shards(len(p.Edges), edgeChunk)})
	}
	// Span instrumentation: one "descent" span from initialization to the
	// final relaxed cost. Checkpoint fsyncs get child spans below. All
	// nil-safe — a nil opts.Span is the (free) default, and spans taken on
	// an error path simply never emit.
	descent := opts.Span.Child("descent")
	var velocity []float64
	if opts.Momentum > 0 {
		velocity = make([]float64, p.G*p.K)
	}
	w := p.NewW()
	var step float64
	startIter := 0
	costOld := math.Inf(1)
	if snap := opts.Resume; snap != nil {
		// Continue the checkpointed trajectory: matrix, velocity, step,
		// stopping reference and iteration count restore exactly, and the
		// RNG initialization (the only randomness, consumed before
		// iteration 0) is skipped entirely.
		copy(w, snap.W)
		if velocity != nil {
			copy(velocity, snap.Velocity)
		}
		step = snap.Step
		costOld = snap.CostOld
		startIter = snap.Iter
	} else {
		p.randomInitW(w, opts.Seed)

		step = opts.LearnRate
		if step <= 0 {
			// Auto-calibrate: first step moves the largest entry by InitStep.
			// The full gradient array exists only here — the descent loop's
			// fused gradient+update pass never materializes one.
			grad := make([]float64, p.G*p.K)
			p.gradientWith(w, opts.Coeffs, opts.Gradient, grad, sc)
			maxAbs := 0.0
			for _, g := range grad {
				if a := math.Abs(g); a > maxAbs {
					maxAbs = a
				}
			}
			if maxAbs == 0 {
				step = 1 // flat start; any step is a no-op until curvature appears
			} else {
				step = opts.InitStep / maxAbs
			}
		}
	}

	// Lines 17–24 run as the fused gradient+update pass (gradUpdateShard):
	// per-row gradient computation with the step, clamp, momentum and the
	// optional renormalize/dimension-reduction applied in place. Bind the
	// loop-constant inputs once.
	sc.setDescentState(p, opts.Coeffs, opts.Gradient, step, opts.Momentum,
		velocity, opts.ReduceDims, opts.Renormalize)

	res := &Result{StepSize: step, Iters: startIter}
	if opts.TraceCost && opts.Resume != nil {
		// The uninterrupted run traced iterations 0..startIter−1 too; the
		// snapshot carries that prefix so the resumed trace matches.
		res.CostTrace = append(res.CostTrace, opts.Resume.CostTrace...)
	}
	var relaxed Breakdown
	for iter := startIter; iter < opts.MaxIters; iter++ {
		if err := ctx.Err(); err != nil {
			if serr := obs.SinkErr(tracer); serr != nil {
				return nil, fmt.Errorf("partition: trace sink: %w", serr)
			}
			return nil, fmt.Errorf("partition: solve cancelled after %d iterations: %w", iter, err)
		}
		// Lines 13 and 17–19, fused: one set of global reductions (labels,
		// per-plane sums, per-edge cubes) yields cost_new and everything
		// the gradient pass below needs (see DESIGN.md §10).
		bd := p.evalIter(w, opts.Coeffs, opts.Gradient, sc)
		costNew := bd.Total
		if opts.TraceCost {
			res.CostTrace = append(res.CostTrace, costNew)
		}
		// Line 14: relative stopping criterion, checked before any
		// gradient work — on the converged iteration the historical kernel
		// computed ∇F and discarded it unused, so breaking first is
		// bitwise invisible. Guard the division for costs near zero (F4
		// makes the total signed).
		if !math.IsInf(costOld, 1) {
			denom := math.Abs(costOld)
			if denom < 1e-12 {
				denom = 1e-12
			}
			if math.Abs(costNew-costOld)/denom <= opts.Margin {
				res.Converged = true
				res.Iters = iter
				// No update ran this iteration, so w is final and bd is
				// already the relaxed cost at it — no extra evaluation.
				relaxed = bd
				break
			}
		}
		costOld = costNew

		// Lines 17–24: the fused gradient+update pass (momentum, step,
		// clamp, optional renormalize/dimension reduction), which also
		// leaves the per-shard Σg² partials and clamp counts.
		p.gradUpdate(sc)
		res.Iters = iter + 1
		if tracer != nil {
			// Per-shard partials merged in shard-index order: the fixed
			// merge order diffs clean across Workers settings.
			var sum float64
			for _, v := range sc.partNorm {
				sum += v
			}
			clamped := 0
			for _, c := range sc.clamp {
				clamped += c
			}
			tracer.Emit(obs.Event{Kind: obs.KindIter, Iter: iter,
				F: bd.Total, F1: bd.F1, F2: bd.F2, F3: bd.F3, F4: bd.F4,
				GradN: math.Sqrt(sum), Step: step, Clamped: clamped})
		}
		// The update completed, so w/velocity now sit on the iteration
		// boundary iter+1 with costNew as the next stopping reference —
		// exactly the state a resume needs to continue from here. The hook
		// path allocates (deep copies); the no-checkpoint path stays
		// allocation-free.
		if opts.Checkpoint != nil && (iter+1)%opts.CheckpointEvery == 0 {
			ck := descent.Child("checkpoint")
			ck.AttrInt("iter", int64(iter+1))
			snap := p.takeSnapshot(opts, ckptFP, iter+1, step, costNew, w, velocity, res.CostTrace)
			err := opts.Checkpoint(snap)
			ck.End()
			if err != nil {
				return nil, fmt.Errorf("partition: checkpoint at iteration %d: %w", iter+1, err)
			}
		}
	}

	res.W = w
	if !res.Converged {
		// Cap-terminated: the last update moved w after its evaluation,
		// so the final relaxed cost needs one more pass.
		relaxed = p.costWith(w, opts.Coeffs, sc)
	}
	return p.finalizeSolve(res, relaxed, opts, tracer, descent)
}

// randomInitW is lines 3–11 of Algorithm 1: random init, rows normalized
// to sum 1. The seed fully determines the matrix.
func (p *Problem) randomInitW(w W, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < p.G; i++ {
		row := w[i*p.K : (i+1)*p.K]
		var sum float64
		for k := range row {
			v := rng.Float64()
			row[k] = v
			sum += v
		}
		if sum == 0 {
			// Vanishingly unlikely; fall back to uniform.
			for k := range row {
				row[k] = 1 / float64(p.K)
			}
			continue
		}
		for k := range row {
			row[k] /= sum
		}
	}
}

// finalizeSolve is the tail of a solve: snap to the discrete assignment,
// optionally refine, fill the discrete cost, emit the trailing telemetry,
// and bump the metrics. res.W, res.Iters, res.Converged and the trace must
// already be final.
func (p *Problem) finalizeSolve(res *Result, relaxed Breakdown, opts Options,
	tracer obs.Tracer, descent *obs.Span) (*Result, error) {
	res.Relaxed = relaxed
	// The resolved update rule: 0 is the paper's plain steps, anything else
	// the heavy-ball coefficient (MomentumAuto never survives to here).
	descent.AttrFloat("momentum", opts.Momentum)
	descent.AttrInt("iters", int64(res.Iters))
	descent.End()
	// Lines 27–30: snap to argmax.
	res.Labels = p.Assign(res.W)
	if tracer != nil {
		// Discrete cost at the snap point, before any refinement; computed
		// only when traced (the refined cost below is what Result reports).
		tracer.Emit(obs.Event{Kind: obs.KindSnap,
			FDiscrete: p.DiscreteCost(res.Labels, opts.Coeffs).Total})
	}
	if opts.Refine {
		var onPass func(pass, moves int)
		if tracer != nil {
			onPass = func(pass, moves int) {
				tracer.Emit(obs.Event{Kind: obs.KindRefine, Pass: pass, Moves: moves})
			}
		}
		res.RefineMoves = p.refineTraced(res.Labels, opts.Coeffs, opts.RefinePasses, onPass)
	}
	res.Discrete = p.DiscreteCost(res.Labels, opts.Coeffs)
	if tracer != nil {
		tracer.Emit(obs.Event{Kind: obs.KindSolveDone, Iters: res.Iters,
			Converged: res.Converged, FRelaxed: res.Relaxed.Total,
			FDiscrete: res.Discrete.Total, Step: res.StepSize,
			RefineMoves: res.RefineMoves})
	}
	mSolves.Inc()
	mIters.Add(int64(res.Iters))
	if res.Converged {
		mConverged.Inc()
	}
	mItersPerSolve.Observe(float64(res.Iters))
	mRefineMoves.Add(int64(res.RefineMoves))
	if err := obs.SinkErr(tracer); err != nil {
		return nil, fmt.Errorf("partition: trace sink: %w", err)
	}
	return res, nil
}
