package main

import (
	"context"
	"math"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"gpp/internal/serve"
)

// TestSweepLocalMatchesDaemon: one spec run in process and through -addr
// against a live daemon returns the same cells — same scenarios, bitwise
// equal costs and B_max, same ranking and Pareto front. The daemon runs
// MomentumAuto for cells whose request names no momentum, so local mode
// must run it too.
func TestSweepLocalMatchesDaemon(t *testing.T) {
	s, err := serve.New(serve.Config{Workers: 2, QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s)
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})

	spec, err := loadSpec("", "3,4", "")
	if err != nil {
		t.Fatal(err)
	}
	local, err := runLocal("KSA4", "", 0, spec, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := runRemote(hs.URL, "KSA4", "", 0, spec, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}

	if remote.Status != "done" || local.Done != len(local.Cells) || remote.Done != len(remote.Cells) {
		t.Fatalf("local %d/%d done, daemon %q with %d/%d done", local.Done, len(local.Cells),
			remote.Status, remote.Done, len(remote.Cells))
	}
	if len(local.Cells) != 2 || len(remote.Cells) != len(local.Cells) {
		t.Fatalf("local has %d cells, daemon %d; want 2 each", len(local.Cells), len(remote.Cells))
	}
	same := func(a, b *float64) bool {
		return a != nil && b != nil && math.Float64bits(*a) == math.Float64bits(*b)
	}
	for i := range local.Cells {
		l, r := local.Cells[i], remote.Cells[i]
		if l.Index != r.Index || l.K != r.K || l.Regime != r.Regime || !reflect.DeepEqual(l.Terms, r.Terms) {
			t.Errorf("cell %d: local scenario %+v, daemon %+v", i, l, r)
		}
		if !same(l.Cost, r.Cost) || !same(l.BMaxMA, r.BMaxMA) {
			t.Errorf("cell %d (k=%d): local cost/B_max %v/%v, daemon %v/%v", i, l.K,
				deref(l.Cost), deref(l.BMaxMA), deref(r.Cost), deref(r.BMaxMA))
		}
	}
	if !reflect.DeepEqual(local.Ranking, remote.Ranking) || !reflect.DeepEqual(local.Pareto, remote.Pareto) {
		t.Errorf("local ranking %v / pareto %v, daemon %v / %v",
			local.Ranking, local.Pareto, remote.Ranking, remote.Pareto)
	}
}

func deref(v *float64) any {
	if v == nil {
		return nil
	}
	return *v
}
