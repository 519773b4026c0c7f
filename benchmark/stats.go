package main

import (
	"math"
	"sort"
	"time"
)

// tailCandidates are the percentiles a latency tail may be reported at,
// highest first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// pickPercentile returns the highest candidate percentile that has at
// least ten of the n samples beyond it, or 0 when even the median has
// not.
func pickPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 0.1% of 10000 is 9.999… in floating point
			return p
		}
	}
	return 0
}

// tailPercentile is the percentile a metric named for want (p95) is
// actually read at: want itself when the sample supports it, else the
// highest percentile that does.
func tailPercentile(n int, want float64) float64 {
	return math.Min(want, pickPercentile(n))
}

// percentile reads the p-th percentile (nearest rank) of sorted values;
// 0 for an empty sample or p <= 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 || p <= 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, 0 when b is 0: a layer that did no work on a workload
// reports 0, not NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
