package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting matters
	}
	return xs
}

func TestTailPercentileRule(t *testing.T) {
	cases := []struct {
		n      int
		ok     bool
		p      float64
		value  float64
		beyond int
	}{
		{n: 0},
		{n: 10},
		{n: 99}, // p90 is rank 90: 9 beyond
		{n: 100, ok: true, p: 90, value: 90, beyond: 10}, // the smallest set with a p90
		{n: 208, ok: true, p: 90, value: 188, beyond: 20},
		{n: 999, ok: true, p: 90, value: 900, beyond: 99}, // p99 is rank 990: 9 beyond
		{n: 1000, ok: true, p: 99, value: 990, beyond: 10},
		{n: 10000, ok: true, p: 99.9, value: 9990, beyond: 10},
	}
	for _, c := range cases {
		got, ok := tailPercentile(seq(c.n))
		if ok != c.ok || got.N != c.n {
			t.Errorf("n=%d: ok=%v n=%d, want ok=%v", c.n, ok, got.N, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if got.P != c.p || got.Value != c.value || got.Beyond != c.beyond {
			t.Errorf("n=%d: got p%v=%v with %d beyond, want p%v=%v with %d beyond",
				c.n, got.P, got.Value, got.Beyond, c.p, c.value, c.beyond)
		}
		if got.Beyond < tailMinBeyond {
			t.Errorf("n=%d: tail rests on %d samples", c.n, got.Beyond)
		}
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(percentile(nil, 90)) {
		t.Error("empty sample sets must give NaN")
	}
	if got := percentile(seq(20), 90); got != 18 {
		t.Errorf("nearest-rank p90 of 1..20 = %v, want 18", got)
	}
	xs := []float64{5, 4, 3}
	median(xs)
	if xs[0] != 5 {
		t.Error("median reordered its input")
	}
}
