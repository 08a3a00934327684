package multilevel

import (
	"context"
	"fmt"
	"math"

	"gpp/internal/obs"
	"gpp/internal/partition"
)

// runVCycle executes the solve half of the V-cycle on a built hierarchy:
// coarsest descent, then per-level projection + band-limited gradient
// refine, then the discrete move pass at the finest level. One level's
// Problem exists at a time: each is built from the level's compact arrays
// right before its solve, and the coarser Problem, W and projection map
// are dropped once W has been projected onto the next finer level.
func runVCycle(ctx context.Context, p *partition.Problem, opts Options, sNorm partition.Options, h *hierarchy, vfp string) (*Result, error) {
	nLevels := len(h.shapes)
	coarse := nLevels - 1
	tracer := sNorm.Tracer
	// sNorm.Span is the "vcycle" span PartitionCtx opened (nil when
	// tracing is off); this function owns ending it. Level solves get
	// their own child spans below — never the vcycle span directly.
	vspan := sNorm.Span
	sNorm.Span = nil

	resume := opts.Resume
	if err := checkVResume(resume, p, vfp, h); err != nil {
		return nil, err
	}

	out := &Result{Levels: nLevels, CoarsestSize: h.shapes[coarse].g}
	out.LevelSizes = make([]int, nLevels)
	for i, sh := range h.shapes {
		out.LevelSizes[i] = sh.g
	}
	if tracer != nil {
		tracer.Emit(obs.Event{Kind: obs.KindVCycleStart, Seed: sNorm.Seed,
			K: p.K, Gates: p.G, Edges: len(p.Edges), Levels: nLevels})
		for li := 1; li < nLevels; li++ {
			tracer.Emit(obs.Event{Kind: obs.KindCoarsen, Level: li,
				Gates: h.shapes[li].g, Edges: h.shapes[li].e})
		}
	}

	// wrap turns the inner solver's per-iteration snapshots (and the
	// crafted level-start snapshots) into level-indexed VSnapshots. The
	// running iteration totals ride along so a resumed cycle reconstructs
	// its Result metadata exactly, not just its labels.
	doneIters, coarseIters, coarseConverged := 0, 0, false
	if resume != nil {
		doneIters, coarseIters, coarseConverged = resume.DoneIters, resume.CoarseIters, resume.Converged
	}
	wrap := func(levelIdx int) func(*partition.Snapshot) error {
		return func(s *partition.Snapshot) error {
			return opts.Checkpoint(&VSnapshot{
				Version:     vsnapshotVersion,
				Name:        p.Name,
				G:           p.G,
				K:           p.K,
				EdgeCount:   len(p.Edges),
				Fingerprint: vfp,
				Levels:      nLevels,
				Level:       levelIdx,
				DoneIters:   doneIters,
				CoarseIters: coarseIters,
				Converged:   coarseConverged,
				Inner:       s,
			})
		}
	}

	var w partition.W
	var labels []int
	startLevel := coarse - 1

	// Coarsest level: the full Algorithm-1 descent (skipped entirely when
	// resuming at a finer level — its outcome is already folded into W,
	// and the levels coarser than the snapshot's are never built).
	if resume == nil || resume.Level == coarse {
		copts := sNorm
		if opts.Checkpoint != nil {
			copts.CheckpointEvery = opts.CheckpointEvery
			copts.Checkpoint = wrap(coarse)
		}
		if resume != nil {
			copts.Resume = resume.Inner
		}
		lspan := vspan.Child("level")
		lspan.AttrInt("level", int64(coarse))
		lspan.AttrInt("gates", int64(h.shapes[coarse].g))
		copts.Span = lspan
		prob, err := h.buildProblem(p, coarse)
		if err != nil {
			return nil, err
		}
		res, err := prob.SolveCtx(ctx, copts)
		if err != nil {
			return nil, err
		}
		lspan.AttrInt("iters", int64(res.Iters))
		lspan.End()
		w, labels = res.W, res.Labels
		coarseIters, coarseConverged = res.Iters, res.Converged
		doneIters = coarseIters
	} else {
		startLevel = resume.Level
		h.release(startLevel)
	}
	out.CoarseIters, out.Converged = coarseIters, coarseConverged

	// Uncoarsen: project W and run the band-limited gradient refine at
	// every finer level; the deepest refine produces the final labels.
	for li := startLevel; li >= 0; li-- {
		ropts := sNorm
		ropts.Momentum = 0
		ropts.MaxIters = opts.RefineIters
		lspan := vspan.Child("level")
		lspan.AttrInt("level", int64(li))
		lspan.AttrInt("gates", int64(h.shapes[li].g))
		ropts.Span = lspan
		prob, err := h.buildProblem(p, li)
		if err != nil {
			return nil, err
		}
		var inner *partition.Snapshot
		if resume != nil && resume.Level == li && li != coarse {
			// Mid-refine resume: the level's calibrated step is the
			// snapshot's (LearnRate > 0 is never recalibrated), which makes
			// the reconstructed options fingerprint-identical to the ones
			// that produced the snapshot.
			ropts.LearnRate = resume.Inner.Step
			inner = resume.Inner
		} else {
			pspan := lspan.Child("project")
			fineW := projectW(w, h.levels[li].fineToCoarse, p.K)
			// The coarser level is done: its W, labels and the map onto
			// it go.
			w, labels, h.levels[li].fineToCoarse = nil, nil, nil
			if tracer != nil {
				tracer.Emit(obs.Event{Kind: obs.KindProject, Level: li, Gates: prob.G})
			}
			ropts.LearnRate = calibrateStep(prob, fineW, ropts)
			pspan.End()
			inner, err = warmSnapshot(prob, ropts, fineW)
			if err != nil {
				return nil, err
			}
			if opts.Checkpoint != nil {
				// Level-start checkpoint: the projected state is durable
				// before the first refine iteration, so a kill inside this
				// level never has to redo coarser levels.
				if err := wrap(li)(inner); err != nil {
					return nil, fmt.Errorf("multilevel: checkpoint at level %d start: %w", li, err)
				}
			}
		}
		ropts.Resume = inner
		if opts.Checkpoint != nil {
			ropts.CheckpointEvery = opts.CheckpointEvery
			ropts.Checkpoint = wrap(li)
		}
		res, err := prob.SolveCtx(ctx, ropts)
		if err != nil {
			return nil, err
		}
		lspan.AttrInt("iters", int64(res.Iters))
		lspan.End()
		w, labels = res.W, res.Labels
		doneIters += res.Iters
	}
	out.Iters = doneIters

	// Finest level: the paper's greedy discrete move pass.
	rspan := vspan.Child("discrete_refine")
	out.RefineMoves = p.Refine(labels, sNorm.Coeffs, opts.RefinePasses)
	rspan.AttrInt("moves", int64(out.RefineMoves))
	rspan.End()
	out.Labels = labels
	out.Discrete = p.DiscreteCost(labels, sNorm.Coeffs)
	if tracer != nil {
		tracer.Emit(obs.Event{Kind: obs.KindVCycleDone, Levels: nLevels,
			Iters: out.Iters, Converged: out.Converged,
			RefineMoves: out.RefineMoves, FDiscrete: out.Discrete.Total})
	}
	if err := obs.SinkErr(tracer); err != nil {
		return nil, fmt.Errorf("multilevel: trace sink: %w", err)
	}
	vspan.AttrInt("levels", int64(nLevels))
	vspan.AttrInt("iters", int64(out.Iters))
	vspan.End()

	mVCycles.Inc()
	mVCycleLevels.Observe(float64(nLevels))
	mCoarsenings.Add(int64(nLevels - 1))
	mVCycleIters.Add(int64(out.Iters))
	mVCycleRefineMoves.Add(int64(out.RefineMoves))
	return out, nil
}

// calibrateStep replicates the solver's auto-calibration at a warm-start
// point: one gradient evaluation at w, step = InitStep / max|∂F|. Runs on
// the solver's fixed-shard parallel kernels, so the step — and with it the
// whole refine trajectory — is bitwise identical at every worker count.
func calibrateStep(prob *partition.Problem, w partition.W, s partition.Options) float64 {
	grad := make([]float64, prob.G*prob.K)
	prob.GradientParallel(w, s.Coeffs, s.Gradient, grad, s.Workers)
	maxAbs := 0.0
	for _, g := range grad {
		if a := math.Abs(g); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		return 1 // flat start; any step is a no-op until curvature appears
	}
	return s.InitStep / maxAbs
}

// warmSnapshot crafts the iteration-0 solver snapshot that warm-starts a
// refine level from a projected W: the solver's resume path restores the
// matrix and step and skips both the RNG initialization and the step
// auto-calibration, which is exactly the "descend from this point with
// this step" semantics a projection needs. CostOld = +Inf suppresses the
// stopping test on the first iteration, same as a fresh solve. The
// snapshot takes over w: the solver copies a resumed W into its own matrix
// and nothing writes w afterwards.
func warmSnapshot(prob *partition.Problem, ropts partition.Options, w partition.W) (*partition.Snapshot, error) {
	fp, err := ropts.Fingerprint()
	if err != nil {
		return nil, err
	}
	return &partition.Snapshot{
		Version:     1,
		Name:        prob.Name,
		G:           prob.G,
		K:           prob.K,
		EdgeCount:   len(prob.Edges),
		Fingerprint: fp,
		Seed:        ropts.Seed,
		Iter:        0,
		RNGDraws:    uint64(prob.G * prob.K),
		Step:        ropts.LearnRate,
		CostOld:     math.Inf(1),
		W:           w,
	}, nil
}

// checkVResume validates a V-cycle snapshot against the problem, options
// and rebuilt hierarchy it is being resumed under. The fingerprint covers
// the normalized options and the hierarchy's recorded level shapes, so any
// drift — different seed, coarsening knobs, solver configuration, or a
// changed problem — is rejected rather than silently producing a hybrid
// run. The inner snapshot's own fingerprint is re-checked by the level
// solve.
func checkVResume(s *VSnapshot, p *partition.Problem, vfp string, h *hierarchy) error {
	if s == nil {
		return nil
	}
	if s.G != p.G || s.K != p.K || s.EdgeCount != len(p.Edges) {
		return fmt.Errorf("multilevel: snapshot is for a %d-gate %d-plane %d-edge problem, not %d/%d/%d",
			s.G, s.K, s.EdgeCount, p.G, p.K, len(p.Edges))
	}
	if s.Fingerprint != vfp {
		return fmt.Errorf("multilevel: snapshot V-cycle fingerprint %.12s… does not match resume options/hierarchy %.12s… (same configuration required)",
			s.Fingerprint, vfp)
	}
	if s.Levels != len(h.shapes) {
		return fmt.Errorf("multilevel: snapshot hierarchy has %d levels, rebuilt hierarchy has %d", s.Levels, len(h.shapes))
	}
	if s.Level < 0 || s.Level >= s.Levels {
		return fmt.Errorf("multilevel: snapshot level %d out of range [0, %d)", s.Level, s.Levels)
	}
	if s.Inner == nil {
		return fmt.Errorf("multilevel: snapshot has no inner solver state")
	}
	ls := h.shapes[s.Level]
	if s.Inner.G != ls.g || s.Inner.K != p.K || s.Inner.EdgeCount != ls.e {
		return fmt.Errorf("multilevel: inner snapshot shape %d/%d/%d does not match level %d (%d/%d/%d)",
			s.Inner.G, s.Inner.K, s.Inner.EdgeCount, s.Level, ls.g, p.K, ls.e)
	}
	return nil
}
