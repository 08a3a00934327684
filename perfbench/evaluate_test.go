package main

import (
	"strings"
	"testing"

	"gpp/internal/netlist"
	"gpp/internal/partition"
	"gpp/internal/recycle"
)

// tiny is a four-gate circuit small enough to evaluate by hand.
func tiny() *netlist.Circuit {
	return &netlist.Circuit{
		Name: "tiny",
		Gates: []netlist.Gate{
			{ID: 0, Name: "a", Bias: 1, Area: 2},
			{ID: 1, Name: "b", Bias: 2, Area: 1},
			{ID: 2, Name: "c", Bias: 3, Area: 1},
			{ID: 3, Name: "d", Bias: 2, Area: 4},
		},
		Edges: []netlist.Edge{{From: 0, To: 1}, {From: 1, To: 2}, {From: 0, To: 3}, {From: 2, To: 3}},
	}
}

func TestEvaluateByHand(t *testing.T) {
	// Planes: {a, b} on 0, {c} on 1, {d} on 2.
	// Bias 3, 3, 2: B_max 3, I_comp (0+0+1)/8 = 12.5%.
	// Area 3, 1, 4: A_max 4, A_FS (1+3+0)/8 = 50%.
	// Distances a-b 0, b-c 1, a-d 2, c-d 1.
	q, err := evaluate(tiny(), 3, []int{0, 0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	wantBias, wantArea, wantHist := []float64{3, 3, 2}, []float64{3, 1, 4}, []int{1, 2, 1}
	for p := 0; p < 3; p++ {
		if q.PlaneBias[p] != wantBias[p] || q.PlaneArea[p] != wantArea[p] || q.DistHist[p] != wantHist[p] {
			t.Errorf("plane %d: bias %v area %v hist %v", p, q.PlaneBias[p], q.PlaneArea[p], q.DistHist[p])
		}
	}
	if q.BMax != 3 || q.ICompPct != 12.5 || q.AFSPct != 50 || q.dle1() != 3 || q.Edges != 4 {
		t.Errorf("B_max %v I_comp %v%% A_FS %v%% d≤1 %d edges %d", q.BMax, q.ICompPct, q.AFSPct, q.dle1(), q.Edges)
	}
}

func TestEvaluateRejectsBadLabels(t *testing.T) {
	for _, c := range []struct {
		labels []int
		want   string
	}{
		{[]int{0, 0, 1}, "3 labels for 4 gates"},
		{[]int{0, 0, 1, 3}, "outside [0,3)"},
		{[]int{0, -1, 1, 2}, "outside [0,3)"},
		{[]int{0, 0, 2, 2}, "plane 1 is empty"},
	} {
		if _, err := evaluate(tiny(), 3, c.labels); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("labels %v: error %v, want %q", c.labels, err, c.want)
		}
		if err := checkLabels(4, 3, c.labels); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("checkLabels %v: error %v, want %q", c.labels, err, c.want)
		}
	}
}

func TestEvaluateAgreesWithRecycle(t *testing.T) {
	c := tiny()
	p, err := partition.FromCircuit(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	labels := []int{2, 0, 1, 1}
	m, err := recycle.Evaluate(p, labels)
	if err != nil {
		t.Fatal(err)
	}
	q, err := evaluate(c, 3, labels)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.compare(fromMetrics(m)); err != nil {
		t.Errorf("benchmark and recycle.Evaluate disagree: %v", err)
	}
	m.PlaneBias[1] += 0.5
	if err := q.compare(fromMetrics(m)); err == nil || !strings.Contains(err.Error(), "plane 1 bias") {
		t.Errorf("a wrong plane bias passed the check: %v", err)
	}
	m.PlaneBias[1] -= 0.5
	m.DistHist[0]++
	if err := q.compare(fromMetrics(m)); err == nil {
		t.Error("a wrong distance histogram passed the check")
	}
}
