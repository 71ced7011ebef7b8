package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of vs.
func sorted(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of vs (the mean of the two middle
// values for an even count), NaN for an empty slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := sorted(vs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first, second and third quartile cut points of vs
// by the same rule as Python's statistics.quantiles(vs, n=4) (the default
// "exclusive" method), so the spreads this program reports match the
// ones a reader recomputes from the raw samples. One value gives that
// value three times; an empty slice gives NaNs.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	const n = 4
	s := sorted(vs)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := ld + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// iqr is the distance between the first and third quartile.
func iqr(vs []float64) float64 {
	q1, _, q3 := quartiles(vs)
	return q3 - q1
}

// percentile returns the p-th percentile (0 <= p <= 100) of vs by linear
// interpolation between closest ranks, NaN for an empty slice.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := sorted(vs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
