package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by the nearest-rank
// rule on a sorted copy; 0 when xs is empty.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs with the same
// interpolation as Python's statistics.quantiles(xs, n=4) (its default
// "exclusive" method), so the steadiness report matches how the spread
// of a metric across runs is judged.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	m := n + 1
	at := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// quietTime is the figure of the least disturbed quarter of xs, timings
// of the same work (windows of a phase, or repeats): their lower
// quartile by nearest rank. Other guests of a shared host only ever add
// time, so the quick end of repeated timings estimates the program's own
// cost best, as a microbenchmark reports its fastest run; a quartile
// rather than the minimum keeps one lucky window from deciding.
func quietTime(xs []float64) float64 { return percentile(xs, 0.25) }

// quietRate is quietTime for rates: their upper quartile.
func quietRate(xs []float64) float64 { return percentile(xs, 0.75) }

// spread is the inter-quartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
