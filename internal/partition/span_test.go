package partition

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"gpp/internal/obs"
)

// TestSolveSpans: a flat solve with a span attached emits one descent span
// carrying the resolved momentum and the iteration count, with one
// checkpoint child per checkpoint callback — and the untimed encoding is
// byte-identical at every worker count. MomentumAuto records the rule it
// resolved to: heavy-ball 0.9 without plane terms, plain steps with one.
func TestSolveSpans(t *testing.T) {
	plain := traceProblem(t, "KSA8", 5)
	limited := traceProblem(t, "KSA8", 5)
	limited.PlaneTerms = []PlaneTerm{{Kind: PlaneCurrentLimit, Weight: 1, Limit: 50}}
	cases := []struct {
		name      string
		p         *Problem
		momentum  float64
		wantAttrs string
	}{
		{"plain", plain, 0, "momentum=0 iters=100"},
		{"explicit", plain, 0.5, "momentum=0.5 iters=100"},
		{"auto", plain, MomentumAuto, "momentum=0.9 iters=100"},
		{"auto/plane-terms", limited, MomentumAuto, "momentum=0 iters=100"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			checkSolveSpans(t, tc.p, tc.momentum, tc.wantAttrs)
		})
	}
}

func checkSolveSpans(t *testing.T, p *Problem, momentum float64, wantAttrs string) {
	t.Helper()
	run := func(workers int) ([]byte, int) {
		var buf bytes.Buffer
		sink := obs.NewJSONL(&buf)
		root := obs.NewTrace(sink).Root("test")
		checkpoints := 0
		_, err := p.Solve(Options{
			Seed: 1, MaxIters: 100, Margin: 1e-300, Workers: workers,
			Momentum:        momentum,
			CheckpointEvery: 25,
			Checkpoint:      func(*Snapshot) error { checkpoints++; return nil },
			Span:            root,
		})
		if err != nil {
			t.Fatal(err)
		}
		root.End()
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), checkpoints
	}

	ref, checkpoints := run(1)
	if checkpoints != 4 {
		t.Fatalf("%d checkpoints for 100 iters every 25, want 4", checkpoints)
	}
	events, err := obs.ReadTrace(bytes.NewReader(ref))
	if err != nil {
		t.Fatal(err)
	}
	roots := obs.BuildSpanTree(events)
	if len(roots) != 1 {
		t.Fatalf("%d root spans, want 1", len(roots))
	}
	var descent *obs.SpanNode
	for _, c := range roots[0].Children {
		if c.Event.Span == "descent" {
			descent = c
		}
	}
	if descent == nil {
		t.Fatal("no descent span under the root")
	}
	if descent.Event.Attrs != wantAttrs {
		t.Errorf("descent attrs = %q, want %q", descent.Event.Attrs, wantAttrs)
	}
	var ckAttrs []string
	for _, c := range descent.Children {
		if c.Event.Span == "checkpoint" {
			ckAttrs = append(ckAttrs, c.Event.Attrs)
		}
	}
	want := []string{"iter=25", "iter=50", "iter=75", "iter=100"}
	if fmt.Sprint(ckAttrs) != fmt.Sprint(want) {
		t.Errorf("checkpoint spans = %v, want %v", ckAttrs, want)
	}

	seen := map[int]bool{1: true}
	for _, workers := range []int{2, runtime.NumCPU()} {
		if seen[workers] {
			continue
		}
		seen[workers] = true
		got, _ := run(workers)
		if !bytes.Equal(ref, got) {
			t.Errorf("span JSONL differs between workers=1 and workers=%d:\n--- w1 ---\n%s--- w%d ---\n%s",
				workers, ref, workers, got)
		}
	}
}

// TestSolveSpanParity: attaching a span changes nothing about the solve —
// labels and iteration counts match a bare run exactly.
func TestSolveSpanParity(t *testing.T) {
	p := traceProblem(t, "KSA8", 5)
	bare, err := p.Solve(Options{Seed: 1, MaxIters: 80, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	root := obs.NewTrace(sink).Root("test")
	traced, err := p.Solve(Options{Seed: 1, MaxIters: 80, Workers: 1, Span: root})
	if err != nil {
		t.Fatal(err)
	}
	if traced.Iters != bare.Iters {
		t.Fatalf("traced solve ran %d iters, bare ran %d", traced.Iters, bare.Iters)
	}
	for i := range bare.Labels {
		if bare.Labels[i] != traced.Labels[i] {
			t.Fatalf("label[%d] differs: traced %d vs bare %d", i, traced.Labels[i], bare.Labels[i])
		}
	}
}
