package main

import (
	"math"
	"sort"
)

// quantile is the linear-interpolation quantile of sorted values
// (q in [0, 1]); NaN for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func quartiles(sorted []float64) (q1, q2, q3 float64) {
	return quantile(sorted, 0.25), quantile(sorted, 0.5), quantile(sorted, 0.75)
}

// median sorts a copy of values and returns its middle.
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}
