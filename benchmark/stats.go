package main

import "sort"

// percentile reads quantile p from an ascending sample by the
// nearest-rank rule; 0 for an empty sample.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

// sortedCopy returns xs ascending, leaving xs alone.
func sortedCopy(xs []int64) []int64 {
	out := append([]int64(nil), xs...)
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// medianNS is the median of an unsorted nanosecond sample, in
// microseconds.
func medianNS(xs []int64) float64 { return percentile(sortedCopy(xs), 0.5) / 1e3 }

// median of a small float sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// ratio is a/b, 0 when there were no attempts.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
