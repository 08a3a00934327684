package partition

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
)

// Normalize validates the options and returns them with every
// K-independent default filled in (coefficients, margin, iteration cap,
// seed, refine passes). Two spellings of the same solve — say Margin 0 vs
// the explicit default 1e-4 — normalize to identical values, which is what
// lets the serve cache and the run manifests treat them as one
// configuration. NaN/Inf and negative knobs are rejected with the same
// errors Solve itself would return.
//
// InitStep stays 0 when unset because its default (0.25/K) needs the plane
// count; use NormalizeFor when K is known.
func (o Options) Normalize() (Options, error) {
	if err := o.validate(); err != nil {
		return Options{}, err
	}
	return o.withDefaults(), nil
}

// NormalizeFor normalizes like Normalize and additionally resolves the
// K-dependent InitStep default, so the result is the exact configuration a
// Solve on a K-plane problem would run.
func (o Options) NormalizeFor(k int) (Options, error) {
	n, err := o.Normalize()
	if err != nil {
		return Options{}, err
	}
	if n.InitStep <= 0 && k > 0 {
		n.InitStep = 0.25 / float64(k)
	}
	return n, nil
}

// Fingerprint returns a stable hex hash of the normalized options,
// covering exactly the fields that determine the solver's output: the
// cost coefficients, stopping margin, iteration cap, learn rate, init
// step, seed, gradient mode, renormalize/reduce-dims/momentum knobs, and
// the refinement configuration.
//
// MomentumAuto is hashed as its own value, not as the rule a solve
// resolves it to (that needs the problem), so an auto solve never shares
// a fingerprint with an explicit momentum.
//
// Deliberately excluded are the execution-only fields: Workers (results
// are bitwise identical at every worker count), Tracer, and TraceCost —
// two solves differing only in those produce the same labels, so they
// must share a fingerprint. The encoding uses exact hexadecimal floats,
// so any pair of options that solve differently hash differently.
func (o Options) Fingerprint() (string, error) {
	n, err := o.Normalize()
	if err != nil {
		return "", err
	}
	b := make([]byte, 0, 256)
	b = append(b, "gpp-options-v1"...)
	f := func(v float64) {
		b = append(b, '|')
		b = strconv.AppendFloat(b, v, 'x', -1, 64)
	}
	i := func(v int64) {
		b = append(b, '|')
		b = strconv.AppendInt(b, v, 10)
	}
	t := func(v bool) {
		b = append(b, '|')
		b = strconv.AppendBool(b, v)
	}
	f(n.Coeffs.C1)
	f(n.Coeffs.C2)
	f(n.Coeffs.C3)
	f(n.Coeffs.C4)
	f(n.Margin)
	i(int64(n.MaxIters))
	f(n.LearnRate)
	f(n.InitStep)
	i(n.Seed)
	i(int64(n.Gradient))
	t(n.Renormalize)
	f(n.Momentum)
	t(n.ReduceDims)
	t(n.Refine)
	i(int64(n.RefinePasses))
	// Regime terms surviving normalization (f1–f4 fold into the Coeffs
	// fields above) change the compiled problem, so they are part of the
	// identity. Appended only when present: the empty list must keep every
	// pre-terms fingerprint, checkpoint, and cache entry valid.
	// Normalization sorts the list, so spelling order cannot split the
	// cache.
	for _, t := range n.Terms {
		b = append(b, "|term="...)
		b = append(b, t.Name...)
		b = append(b, ':')
		b = strconv.AppendFloat(b, t.Weight, 'x', -1, 64)
		b = append(b, ':')
		b = strconv.AppendFloat(b, t.Param, 'x', -1, 64)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
