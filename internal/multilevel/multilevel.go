// Package multilevel implements a multilevel V-cycle variant of the ground
// plane partitioner, the natural "future work" extension of the paper: its
// Section IV argues the problem cannot be fed to classic multilevel K-way
// tools (Karypis/Kumar, the paper's ref [18]) because of the
// distance-weighted connection cost — but the multilevel *schema* (coarsen
// by heavy-edge matching, solve the coarsest instance, project back and
// refine level by level) composes perfectly with the paper's own cost
// function, because every level runs the paper's objective.
//
// The V-cycle:
//
//  1. Coarsen. Heavy-edge matching contracts the instance level by level
//     down to a few hundred supervertices. Collapsed parallel connections
//     become edge weights (partition.NewWeightedProblem), so a level's
//     edge count shrinks with its vertex count instead of retaining the
//     full fine-level connection count.
//  2. Solve. The coarsest instance runs the full Algorithm-1 gradient
//     descent (the PR-4 fused kernels).
//  3. Uncoarsen. At each finer level the relaxed matrix W is projected
//     through the matching (every fine vertex inherits its supervertex's
//     row) and polished by a short, band-limited gradient refine — a warm-
//     started descent capped at Options.RefineIters iterations with the
//     step re-calibrated at the projected point. At the finest level the
//     greedy discrete move pass (partition.Refine) runs last.
//
// Both repo invariants hold through the cycle: results are bitwise
// identical at every Options.Solver.Workers count (every stage is either
// serial or built from the solver's fixed-shard kernels), and the whole
// cycle checkpoints and resumes per level through the VSnapshot codec — a
// level-indexed wrapper around the PR-5 solver snapshot.
package multilevel

import (
	"context"
	"fmt"

	"gpp/internal/partition"
)

// Options configures the multilevel V-cycle.
type Options struct {
	// CoarsestSize stops coarsening when a level has at most this many
	// supervertices (default max(200, 10·K)).
	CoarsestSize int
	// MaxLevels caps the hierarchy depth including the original level
	// (default 32 — enough to take a million-gate instance to a few
	// hundred supervertices at typical contraction ratios).
	MaxLevels int
	// Solver configures the coarsest-level gradient descent; the per-level
	// refines inherit everything except MaxIters (RefineIters), Momentum
	// (forced off — a projected W has no meaningful velocity) and the step
	// (re-calibrated at each projection). Solver.Seed also seeds the
	// matching order, through a per-level derived stream (see levelSeed).
	// Solver.Refine is ignored (the V-cycle owns refinement), and
	// Solver.Checkpoint/Resume must be unset — checkpointing a V-cycle
	// goes through the Checkpoint/Resume fields below.
	Solver partition.Options
	// RefineIters caps the band-limited gradient refine at each
	// uncoarsening step (default 30; the margin criterion can stop it
	// earlier).
	RefineIters int
	// RefinePasses bounds the discrete move-pass sweeps at the finest
	// level (default 6).
	RefinePasses int

	// Checkpoint, when non-nil, receives a VSnapshot at the start of every
	// refine level and every CheckpointEvery iterations inside the level
	// solves (deep copies — the hook may retain or serialize them). A
	// V-cycle killed after a checkpoint and resumed from it finishes
	// bitwise identical to the uninterrupted run at any Workers count.
	// Like the solver's hook it is execution-only: it never changes the
	// result and is excluded from the cache-key fingerprint.
	Checkpoint func(*VSnapshot) error
	// CheckpointEvery is the in-level snapshot cadence in iterations; 0
	// with a non-nil Checkpoint hook uses the solver default (100).
	CheckpointEvery int
	// Resume, when non-nil, continues a checkpointed V-cycle: the
	// hierarchy is rebuilt deterministically from the options, levels
	// coarser than the snapshot's are skipped, and the snapshot's level
	// continues mid-solve. The snapshot must match the problem shape and
	// the V-cycle fingerprint (options plus hierarchy identity).
	Resume *VSnapshot
}

func (o Options) withDefaults(k int) Options {
	if o.CoarsestSize <= 0 {
		o.CoarsestSize = 200
		if 10*k > o.CoarsestSize {
			o.CoarsestSize = 10 * k
		}
	}
	if o.MaxLevels <= 0 {
		o.MaxLevels = 32
	}
	if o.RefineIters <= 0 {
		o.RefineIters = 30
	}
	if o.RefinePasses <= 0 {
		o.RefinePasses = 6
	}
	if o.Solver.Seed == 0 {
		o.Solver.Seed = 1
	}
	return o
}

// Normalize returns the options with every default resolved for a K-plane
// problem — the exact configuration PartitionCtx would run. Two spellings
// of the same V-cycle normalize to identical values, which is what lets
// the serve daemon's result cache treat them as one configuration.
func (o Options) Normalize(k int) Options { return o.withDefaults(k) }

func (o Options) validate() error {
	if o.Solver.Checkpoint != nil || o.Solver.Resume != nil {
		return fmt.Errorf("multilevel: set Checkpoint/Resume on multilevel.Options, not on the inner solver options")
	}
	if o.CheckpointEvery < 0 {
		return fmt.Errorf("multilevel: checkpoint interval %d must be ≥ 0 (0 = default)", o.CheckpointEvery)
	}
	return nil
}

// Result reports the multilevel outcome.
type Result struct {
	Labels []int
	Levels int // hierarchy depth including the original level
	// CoarsestSize is the vertex count the full gradient descent actually
	// ran on.
	CoarsestSize int
	// LevelSizes is the vertex count per level, finest (the original
	// problem) first.
	LevelSizes []int
	// CoarseIters is the coarsest solve's gradient iteration count;
	// Iters adds every level's band-limited refine iterations on top.
	CoarseIters, Iters int
	// Converged reports whether the coarsest solve stopped on the margin
	// criterion (the refines are iteration-capped by design and do not
	// affect this flag).
	Converged bool
	// RefineMoves counts gates moved by the discrete move pass at the
	// finest level.
	RefineMoves int
	// Discrete is the cost of the final assignment.
	Discrete partition.Breakdown
}

// Partition runs the multilevel V-cycle on the problem.
func Partition(p *partition.Problem, opts Options) (*Result, error) {
	return PartitionCtx(context.Background(), p, opts)
}

// PartitionCtx is Partition with cooperative cancellation: the context is
// threaded into every level's descent, so a server deadline or client
// cancel stops the cycle within one gradient iteration.
func PartitionCtx(ctx context.Context, p *partition.Problem, opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults(p.K)
	sNorm, err := opts.Solver.NormalizeFor(p.K)
	if err != nil {
		return nil, err
	}
	// The V-cycle owns refinement and checkpointing; the inner solves get
	// neither knob from the caller.
	sNorm.Refine = false
	sNorm.Checkpoint, sNorm.CheckpointEvery, sNorm.Resume = nil, 0, nil

	// Span instrumentation: one "vcycle" span for the whole cycle, with a
	// "coarsen" child covering the hierarchy build; runVCycle hangs the
	// per-level spans under it and ends it. Nil-safe throughout — a nil
	// sNorm.Span (the default) makes every span call free.
	vspan := sNorm.Span.Child("vcycle")
	coarsen := vspan.Child("coarsen")
	h, err := buildHierarchy(p, opts, sNorm.Seed)
	if err != nil {
		return nil, err
	}
	coarsen.AttrInt("levels", int64(len(h.shapes)))
	coarsen.AttrInt("coarsest_gates", int64(h.shapes[len(h.shapes)-1].g))
	coarsen.End()
	vfp, err := vFingerprint(p, opts, sNorm, h)
	if err != nil {
		return nil, err
	}
	sNorm.Span = vspan
	return runVCycle(ctx, p, opts, sNorm, h, vfp)
}
