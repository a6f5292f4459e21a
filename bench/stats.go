package main

import "sort"

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted values, linearly
// interpolated between ranks; 0 for no values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile is the q-quantile of unsorted values.
func percentile(v []float64, q float64) float64 { return quantile(sortedCopy(v), q) }

func median(v []float64) float64 { return percentile(v, 0.5) }

func maxOf(v []float64) float64 {
	m := 0.0
	for i, x := range v {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}
