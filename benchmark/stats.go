package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs; 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs
// and the number of samples strictly beyond that rank.
func percentile(xs []float64, p float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sorted(xs)
	rank := rankOf(p, len(s))
	return s[rank-1], len(s) - rank
}

// rankOf is the 1-based nearest rank of the p-th percentile among n samples.
func rankOf(p float64, n int) int {
	rank := int(math.Ceil(p/100*float64(n) - 1e-9)) // 99.9 % of 10000 is 9990, not 9990.000000000002
	if rank < 1 {
		rank = 1
	}
	return rank
}

// tailCandidates are the percentiles a latency tail may be reported at,
// highest first.
var tailCandidates = []float64{99.9, 99, 95, 90}

// pickPercentile returns the highest candidate percentile that still has at
// least ten of n samples beyond it (choosing-metrics guide, section 1), or 0
// when even p90 does not.
func pickPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if n-rankOf(p, n) >= 10 {
			return p
		}
	}
	return 0
}

// geomean is the geometric mean of strictly positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// quartiles returns the first and third quartile of xs exactly as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method) does, so
// -selfcheck judges spread the way the acceptance driver will.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile range of xs as a share of their median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}
