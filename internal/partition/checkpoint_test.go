package partition

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
)

// rebuild clones the problem through the public constructor, simulating a
// fresh process resuming from a serialized snapshot: nothing is shared
// with the instance that checkpointed.
func rebuild(t *testing.T, p *Problem) *Problem {
	t.Helper()
	edges := make([][2]int, len(p.Edges))
	for i, e := range p.Edges {
		edges[i] = [2]int{int(e[0]), int(e[1])}
	}
	q, err := NewProblem(p.Name, p.K, p.Bias, p.Area, edges)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// resultsIdentical compares every Result field bit for bit.
func resultsIdentical(t *testing.T, tag string, a, b *Result) {
	t.Helper()
	if !reflect.DeepEqual(a.Labels, b.Labels) {
		t.Errorf("%s: labels differ", tag)
	}
	if !reflect.DeepEqual(a.W, b.W) {
		t.Errorf("%s: W differs", tag)
	}
	if a.Iters != b.Iters || a.Converged != b.Converged {
		t.Errorf("%s: iters/converged %d/%v vs %d/%v", tag, a.Iters, a.Converged, b.Iters, b.Converged)
	}
	if a.Relaxed != b.Relaxed || a.Discrete != b.Discrete {
		t.Errorf("%s: breakdowns differ: %+v/%+v vs %+v/%+v", tag, a.Relaxed, a.Discrete, b.Relaxed, b.Discrete)
	}
	if math.Float64bits(a.StepSize) != math.Float64bits(b.StepSize) {
		t.Errorf("%s: step %v vs %v", tag, a.StepSize, b.StepSize)
	}
	if !reflect.DeepEqual(a.CostTrace, b.CostTrace) {
		t.Errorf("%s: cost traces differ (len %d vs %d)", tag, len(a.CostTrace), len(b.CostTrace))
	}
	if a.RefineMoves != b.RefineMoves {
		t.Errorf("%s: refine moves %d vs %d", tag, a.RefineMoves, b.RefineMoves)
	}
}

func TestSnapshotCodecRoundTrip(t *testing.T) {
	s := &Snapshot{
		Version:     snapshotVersion,
		Name:        "round-trip",
		G:           3,
		K:           2,
		EdgeCount:   4,
		Fingerprint: "abc123",
		Seed:        7,
		Iter:        42,
		RNGDraws:    6,
		Step:        0x1.123456789abcdp-3,
		CostOld:     math.Inf(1),
		W:           []float64{0, 1, 0.25, 0.75, math.Nextafter(0.5, 1), 0.5},
		Velocity:    []float64{1e-300, -1e300, 0, -0, 3.14, 2.71},
		CostTrace:   []float64{9, 8, 7},
	}
	got, err := DecodeSnapshot(EncodeSnapshot(s))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, s)
	}

	// Nil velocity (momentum off) survives distinct from empty.
	s.Velocity = nil
	got, err = DecodeSnapshot(EncodeSnapshot(s))
	if err != nil {
		t.Fatal(err)
	}
	if got.Velocity != nil {
		t.Fatalf("nil velocity decoded as %v", got.Velocity)
	}
}

func TestSnapshotDecodeRejectsDamage(t *testing.T) {
	s := &Snapshot{G: 2, K: 2, W: []float64{1, 0, 0, 1}, CostOld: 5}
	clean := EncodeSnapshot(s)
	cases := map[string]func([]byte) []byte{
		"empty":            func(b []byte) []byte { return nil },
		"short":            func(b []byte) []byte { return b[:8] },
		"bad magic":        func(b []byte) []byte { b[0] ^= 0xff; return b },
		"bad version":      func(b []byte) []byte { b[8] = 99; return b },
		"flipped payload":  func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b },
		"truncated":        func(b []byte) []byte { return b[:len(b)-9] },
		"trailing garbage": func(b []byte) []byte { return append(b, 0xaa) },
	}
	for name, mutate := range cases {
		raw := mutate(append([]byte(nil), clean...))
		if _, err := DecodeSnapshot(raw); err == nil {
			t.Errorf("%s: decode accepted damaged input", name)
		}
	}
}

// checkpointAndResume solves to completion collecting snapshots, then for
// each collected snapshot resumes on a freshly rebuilt problem at several
// worker counts and asserts the result is bitwise identical to the
// uninterrupted run.
func checkpointAndResume(t *testing.T, opts Options, every int) {
	t.Helper()
	p := randProblem(t, 60, 4, 120, 3)

	var snaps []*Snapshot
	ckptOpts := opts
	ckptOpts.CheckpointEvery = every
	ckptOpts.Checkpoint = func(s *Snapshot) error {
		snaps = append(snaps, s)
		return nil
	}
	want, err := p.Solve(ckptOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatalf("no checkpoints emitted in %d iterations", want.Iters)
	}

	// The hook must not have perturbed the solve.
	plain, err := p.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	resultsIdentical(t, "checkpointing-vs-plain", want, plain)

	workerSweep := []int{1, 2, runtime.NumCPU()}
	for _, si := range []int{0, len(snaps) / 2, len(snaps) - 1} {
		snap := snaps[si]
		// Serialize through the codec: what a killed process leaves on
		// disk is bytes, not a live pointer.
		decoded, err := DecodeSnapshot(EncodeSnapshot(snap))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range workerSweep {
			fresh := rebuild(t, p)
			resOpts := opts
			resOpts.Workers = workers
			resOpts.Resume = decoded
			got, err := fresh.Solve(resOpts)
			if err != nil {
				t.Fatalf("resume from iter %d at workers %d: %v", snap.Iter, workers, err)
			}
			resultsIdentical(t, fmt.Sprintf("resume@%d/workers=%d", snap.Iter, workers), want, got)
		}
	}
}

func TestResumeBitwiseIdentical(t *testing.T) {
	checkpointAndResume(t, Options{Seed: 5, MaxIters: 120, Margin: 1e-9, TraceCost: true}, 25)
}

func TestResumeBitwiseIdenticalMomentum(t *testing.T) {
	for _, m := range []float64{0.8, MomentumAuto} {
		t.Run(fmt.Sprintf("momentum=%g", m), func(t *testing.T) {
			checkpointAndResume(t, Options{Seed: 9, MaxIters: 150, Margin: 1e-9, Momentum: m, TraceCost: true}, 40)
		})
	}
}

func TestResumeBitwiseIdenticalReduceDims(t *testing.T) {
	checkpointAndResume(t, Options{Seed: 2, MaxIters: 100, Margin: 1e-9, ReduceDims: true, Refine: true}, 30)
}

func TestResumeBitwiseIdenticalConverging(t *testing.T) {
	// Defaults converge well before the cap: resume must reproduce the
	// converged stop, not just cap-terminated runs.
	checkpointAndResume(t, Options{Seed: 11}, 10)
}

func TestCheckpointDefaultInterval(t *testing.T) {
	p := randProblem(t, 30, 3, 60, 1)
	iters := 0
	_, err := p.Solve(Options{Seed: 1, MaxIters: 250, Margin: 1e-12,
		Checkpoint: func(s *Snapshot) error { iters = s.Iter; return nil }})
	if err != nil {
		t.Fatal(err)
	}
	if iters == 0 || iters%100 != 0 {
		t.Fatalf("default interval: last checkpoint at iteration %d, want a multiple of 100", iters)
	}
}

func TestCheckpointHookErrorAborts(t *testing.T) {
	p := randProblem(t, 30, 3, 60, 1)
	boom := fmt.Errorf("disk full")
	_, err := p.Solve(Options{Seed: 1, MaxIters: 50, Margin: 1e-12, CheckpointEvery: 10,
		Checkpoint: func(s *Snapshot) error { return boom }})
	if err == nil || !contains(err.Error(), "disk full") {
		t.Fatalf("hook error not surfaced: %v", err)
	}
}

func TestResumeRejectsMismatch(t *testing.T) {
	p := randProblem(t, 40, 4, 80, 6)
	var snap *Snapshot
	_, err := p.Solve(Options{Seed: 3, MaxIters: 60, Margin: 1e-12, CheckpointEvery: 20,
		Checkpoint: func(s *Snapshot) error { snap = s; return nil }})
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("no snapshot collected")
	}

	// Different result-relevant options: rejected via fingerprint.
	if _, err := p.Solve(Options{Seed: 4, MaxIters: 60, Margin: 1e-12, Resume: snap}); err == nil {
		t.Error("resume with a different seed accepted")
	}
	if _, err := p.Solve(Options{Seed: 3, MaxIters: 60, Margin: 1e-12, Momentum: 0.5, Resume: snap}); err == nil {
		t.Error("resume with momentum flipped on accepted")
	}
	// Workers is execution-only: same fingerprint, accepted.
	if _, err := p.Solve(Options{Seed: 3, MaxIters: 60, Margin: 1e-12, Workers: 2, Resume: snap}); err != nil {
		t.Errorf("resume with different Workers rejected: %v", err)
	}
	// Different problem shape: rejected.
	q := randProblem(t, 41, 4, 80, 6)
	if _, err := q.Solve(Options{Seed: 3, MaxIters: 60, Margin: 1e-12, Resume: snap}); err == nil {
		t.Error("resume on a different problem accepted")
	}
	// Snapshot claiming more iterations than the cap: rejected.
	bad := *snap
	bad.Iter = 10_000
	if _, err := p.Solve(Options{Seed: 3, MaxIters: 60, Margin: 1e-12, Resume: &bad}); err == nil {
		t.Error("resume past MaxIters accepted")
	}
	// Non-finite matrix entry: rejected.
	bad = *snap
	bad.W = append([]float64(nil), snap.W...)
	bad.W[0] = math.NaN()
	if _, err := p.Solve(Options{Seed: 3, MaxIters: 60, Margin: 1e-12, Resume: &bad}); err == nil {
		t.Error("resume with NaN matrix accepted")
	}
}

func TestValidateRejectsNegativeCheckpointEvery(t *testing.T) {
	p := randProblem(t, 20, 2, 30, 1)
	if _, err := p.Solve(Options{CheckpointEvery: -1}); err == nil {
		t.Fatal("negative CheckpointEvery accepted")
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// FuzzSnapshotDecode holds DecodeSnapshot to its no-panic, no-absurd-
// allocation contract on arbitrary bytes, and to exact round-tripping on
// bytes that do decode.
func FuzzSnapshotDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(snapshotMagic))
	f.Add(EncodeSnapshot(&Snapshot{G: 2, K: 2, W: []float64{1, 0, 0, 1}}))
	f.Add(EncodeSnapshot(&Snapshot{
		Name: "fuzz", G: 3, K: 3, EdgeCount: 2, Fingerprint: "fp", Seed: -1,
		Iter: 5, RNGDraws: 9, Step: 0.125, CostOld: 2.5,
		W:        make([]float64, 9),
		Velocity: make([]float64, 9),
		CostTrace: []float64{
			1, 2, 3,
		},
	}))
	long := EncodeSnapshot(&Snapshot{G: 4, K: 2, W: make([]float64, 8)})
	f.Add(long[:len(long)-3])
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := DecodeSnapshot(raw)
		if err != nil {
			return
		}
		// Whatever decodes must re-encode canonically: encode(decode(x))
		// is a fixed point byte for byte. Bytes, not DeepEqual — the
		// payload may legitimately carry NaN bit patterns.
		enc := EncodeSnapshot(s)
		back, err := DecodeSnapshot(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !bytes.Equal(enc, EncodeSnapshot(back)) {
			t.Fatal("decode/encode/decode not stable")
		}
	})
}
