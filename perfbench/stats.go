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

// median is the middle of xs (the mean of the two middle values for an
// even count); 0 for no samples.
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

// percentile is the nearest-rank p-th quantile (0 < p ≤ 1): the smallest
// sample with at least p of all samples at or below it. It is always a
// measured value, so a failed op recorded as +Inf stays visible in the
// tail rather than being averaged away.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of the p-th quantile among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailCount is how many of n samples lie beyond the nearest-rank p-th
// quantile — the sample support of a tail percentile. A percentile is
// worth gating on only when this is at least ten.
func tailCount(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// quartiles returns the first and third quartiles of xs by exactly the
// rule of Python's statistics.quantiles(xs, n=4) (its default exclusive
// method, which extrapolates for tiny samples), so spreads computed here
// match an external check. One sample is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
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
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// interval is a half-open span of time [start, end) in nanoseconds.
type interval struct{ start, end int64 }

// covered is the length of the union of ivs clipped to within: the part
// of a parent span its (possibly overlapping) children account for.
func covered(within interval, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.start < within.start {
			iv.start = within.start
		}
		if iv.end > within.end {
			iv.end = within.end
		}
		if iv.end > iv.start {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total int64
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case iv.start <= cur.end:
			if iv.end > cur.end {
				cur.end = iv.end
			}
		default:
			total += cur.end - cur.start
			cur = iv
		}
	}
	if len(clipped) > 0 {
		total += cur.end - cur.start
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(span interval, children []interval) int64 {
	return span.end - span.start - covered(span, children)
}
