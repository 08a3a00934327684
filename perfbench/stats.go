package main

import (
	"math"
	"sort"
)

// tailMinBeyond is how many samples must lie above a reported tail
// percentile: a tail value resting on fewer samples is one stall, not a
// distribution.
const tailMinBeyond = 10

// tailLadder lists the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 90}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle sample (the mean of the two middle samples for
// an even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rank returns the 1-based nearest rank of percentile p among n samples.
// The epsilon keeps decimal percentiles such as 99.9 from rounding up a
// rank through binary representation error.
func rank(p float64, n int) int {
	x := p / 100 * float64(n)
	r := int(math.Ceil(x * (1 - 1e-12)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-th percentile, or NaN for no
// samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	return s[rank(p, len(s))-1]
}

// beyond counts the samples ranked above the nearest-rank p-th percentile.
func beyond(p float64, n int) int { return n - rank(p, n) }

// tail is the highest percentile of a sample set that rests on at least
// tailMinBeyond samples above it.
type tail struct {
	P      float64 `json:"p"`
	Value  float64 `json:"value"`
	N      int     `json:"n"`
	Beyond int     `json:"beyond"`
}

// tailPercentile applies the reporting rule for latency tails: the
// highest ladder percentile with at least tailMinBeyond samples beyond
// it, reported with the sample count. ok is false when even the lowest
// ladder rung lacks the samples.
func tailPercentile(xs []float64) (tail, bool) {
	n := len(xs)
	for _, p := range tailLadder {
		if n > 0 && beyond(p, n) >= tailMinBeyond {
			return tail{P: p, Value: percentile(xs, p), N: n, Beyond: beyond(p, n)}, true
		}
	}
	return tail{N: n}, false
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}
