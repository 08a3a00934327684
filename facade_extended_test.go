package gpp

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func partitioned(t *testing.T, name string, k int) (*Circuit, *Result) {
	t.Helper()
	c, err := Benchmark(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Partition(c, k, Options{Seed: 1, MaxIters: 800})
	if err != nil {
		t.Fatal(err)
	}
	return c, res
}

func TestPlaceAndPlacedDEFRoundTrip(t *testing.T) {
	c, res := partitioned(t, "KSA4", 4)
	pl, err := Place(c, res)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePlacedDEF(&buf, c, pl); err != nil {
		t.Fatal(err)
	}
	labels, k, err := ReadPlanesDEF(bytes.NewReader(buf.Bytes()), c)
	if err != nil {
		t.Fatal(err)
	}
	if k != res.K {
		t.Fatalf("recovered K = %d, want %d", k, res.K)
	}
	for i := range labels {
		if labels[i] != res.Labels[i] {
			t.Fatalf("gate %d plane %d, want %d", i, labels[i], res.Labels[i])
		}
	}
}

func TestTimingImpact(t *testing.T) {
	c, res := partitioned(t, "KSA8", 5)
	base, err := AnalyzeTiming(c)
	if err != nil {
		t.Fatal(err)
	}
	if base.MaxFreqGHz <= 0 || base.Stages == 0 {
		t.Fatalf("base analysis: %+v", base)
	}
	pen, err := TimingImpact(c, res)
	if err != nil {
		t.Fatal(err)
	}
	if pen.FreqRatio <= 0 || pen.FreqRatio > 1 {
		t.Errorf("frequency ratio %g", pen.FreqRatio)
	}
}

func TestPowerImpact(t *testing.T) {
	c, res := partitioned(t, "KSA8", 5)
	plan, err := PlanRecycling(c, res)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := PowerImpact(c, plan)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.CurrentReduction <= 1 {
		t.Errorf("current reduction %.2f", cmp.CurrentReduction)
	}
}

func TestVerifyCleanResult(t *testing.T) {
	c, res := partitioned(t, "KSA8", 5)
	if issues := Verify(c, res, 0); len(issues) != 0 {
		t.Errorf("clean result reported issues: %v", issues)
	}
	plan, err := PlanRecycling(c, res)
	if err != nil {
		t.Fatal(err)
	}
	if issues := VerifyPlan(c, res, plan); len(issues) != 0 {
		t.Errorf("clean plan reported issues: %v", issues)
	}
	// A limit below the achieved B_max must surface.
	if issues := Verify(c, res, res.Metrics.BMax-1); len(issues) == 0 {
		t.Error("supply violation not reported")
	}
}

func TestPartitionBalancedBound(t *testing.T) {
	c, err := Benchmark("KSA8")
	if err != nil {
		t.Fatal(err)
	}
	const slack = 0.05
	res, err := PartitionBalanced(c, 5, Options{Seed: 1, MaxIters: 800}, slack)
	if err != nil {
		t.Fatal(err)
	}
	bound := c.TotalBias() / 5 * (1 + slack)
	if res.Metrics.BMax > bound+1e-9 {
		t.Errorf("B_max %.3f above balanced bound %.3f", res.Metrics.BMax, bound)
	}
}

// TestPartitionPortfolioFacade: the facade reports the portfolio's winner,
// and racing seeds never ends worse than the first seed alone.
func TestPartitionPortfolioFacade(t *testing.T) {
	c, err := Benchmark("KSA4")
	if err != nil {
		t.Fatal(err)
	}
	res, pf, err := PartitionPortfolio(context.Background(), c, 5,
		Options{Seed: 1, MaxIters: 400}, PortfolioOptions{Restarts: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil {
		t.Fatal("metrics missing")
	}
	if len(res.Labels) != len(pf.Best.Labels) {
		t.Fatalf("facade has %d labels, portfolio best %d", len(res.Labels), len(pf.Best.Labels))
	}
	for i := range res.Labels {
		if res.Labels[i] != pf.Best.Labels[i] {
			t.Fatalf("facade label[%d] = %d, portfolio best %d", i, res.Labels[i], pf.Best.Labels[i])
		}
	}
	if res.Iters != pf.Best.Iters || res.Converged != pf.Best.Converged {
		t.Errorf("facade iters/converged %d/%v, portfolio best %d/%v",
			res.Iters, res.Converged, pf.Best.Iters, pf.Best.Converged)
	}
	if first := pf.Seeds[0]; first.Seed != 1 || pf.Best.Discrete.Total > first.Discrete.Total {
		t.Errorf("best discrete cost %g above seed %d's %g",
			pf.Best.Discrete.Total, first.Seed, first.Discrete.Total)
	}
}

func TestSimulateFacade(t *testing.T) {
	c, err := Benchmark("KSA4")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(c, map[string]bool{"a0": true, "b0": true})
	if err != nil {
		t.Fatal(err)
	}
	// 1 + 1 = 2: s1 pulses, s0 does not.
	if !res.Outputs["OUTPUT_s1"] || res.Outputs["OUTPUT_s0"] {
		t.Errorf("1+1 gave outputs %v", res.Outputs)
	}
}

func TestMeasureActivityFacade(t *testing.T) {
	c, err := Benchmark("KSA8")
	if err != nil {
		t.Fatal(err)
	}
	act, err := MeasureActivity(c, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if act <= 0 || act >= 1 {
		t.Errorf("activity = %g", act)
	}
	if _, err := MeasureActivity(c, 0, 1); err == nil {
		t.Error("zero waves accepted")
	}
}

func TestSVGFacade(t *testing.T) {
	c, res := partitioned(t, "KSA4", 4)
	pl, err := Place(c, res)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteLayoutSVG(&buf, pl); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("empty layout SVG")
	}
	plan, err := PlanRecycling(c, res)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteStackSVG(&buf, plan); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("empty stack SVG")
	}
}

func TestExtendPartitionFacade(t *testing.T) {
	c, res := partitioned(t, "KSA4", 4)
	grown := c.Clone()
	lib := DefaultLibrary()
	dff, _ := lib.ByName("DFFT")
	id := len(grown.Gates)
	grown.Gates = append(grown.Gates, Gate{
		ID: GateID(id), Name: "eco_new", Cell: "DFFT", Bias: dff.Bias, Area: dff.Area(),
	})
	grown.Edges = append(grown.Edges, Edge{From: 0, To: GateID(id)})
	labels, adjusted, err := ExtendPartition(grown, 4, res.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != grown.NumGates() {
		t.Fatal("labels wrong length")
	}
	if adjusted > grown.NumGates()/10 {
		t.Errorf("ECO moved %d gates for a one-gate edit", adjusted)
	}
}

func TestExtractPlanesFacade(t *testing.T) {
	c, res := partitioned(t, "KSA8", 5)
	blocks, err := ExtractPlanes(c, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 5 {
		t.Fatalf("%d blocks", len(blocks))
	}
	total := 0
	for _, b := range blocks {
		total += b.Circuit.NumGates()
		// Each block is a valid standalone netlist exportable as DEF.
		var buf bytes.Buffer
		if err := WriteDEF(&buf, b.Circuit); err != nil {
			t.Fatalf("plane %d DEF export: %v", b.Plane, err)
		}
	}
	if total != c.NumGates() {
		t.Error("blocks do not cover the circuit")
	}
}

func TestRouteChannelsFacade(t *testing.T) {
	c, res := partitioned(t, "KSA8", 5)
	pl, err := Place(c, res)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := RouteChannels(c, res, pl)
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.Channels) != res.K-1 {
		t.Errorf("%d channels for K=%d", len(rt.Channels), res.K)
	}
	if rt.MaxTracks <= 0 {
		t.Error("no congestion measured")
	}
}

func TestWriteVerilogFacade(t *testing.T) {
	c, res := partitioned(t, "KSA4", 4)
	var buf bytes.Buffer
	if err := WriteVerilog(&buf, c, res); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "module KSA4") || !strings.Contains(out, "ground_plane") {
		t.Errorf("verilog output incomplete:\n%.200s", out)
	}
	buf.Reset()
	if err := WriteVerilog(&buf, c, nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "ground_plane") {
		t.Error("plane attributes emitted without a result")
	}
}
