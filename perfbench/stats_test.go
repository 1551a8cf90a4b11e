package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 5, 1, 9, 5}, 5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns for the same inputs.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, tc := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{2, 4, 4, 4, 5, 5, 7, 9}, 4, 6.5},
	} {
		q1, q3 := quartiles(tc.in)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.in, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, tc := range []struct{ p, want float64 }{
		{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(p=%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile([]float64{1, 2, math.Inf(1)}, 0.9); !math.IsInf(got, 1) {
		t.Errorf("a failed op (+Inf) in the tail must surface, got %v", got)
	}
}

func TestTailCount(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want int
	}{
		{0, 0.9, 0},
		{10, 0.9, 1},
		{14, 0.9, 1},
		{100, 0.9, 10},
		{109, 0.9, 10},
		{110, 0.9, 11},
		{1000, 0.99, 10},
		{1000, 0.5, 500},
	} {
		if got := tailCount(tc.n, tc.p); got != tc.want {
			t.Errorf("tailCount(%d, %v) = %d, want %d", tc.n, tc.p, got, tc.want)
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		{"overlapping", []interval{{10, 40}, {30, 60}}, 50},
		{"nested", []interval{{10, 60}, {20, 30}}, 50},
		{"identical", []interval{{10, 20}, {10, 20}}, 90},
		{"touching", []interval{{10, 20}, {20, 30}}, 80},
		{"spilling past the parent", []interval{{-10, 10}, {90, 120}}, 80},
		{"outside the parent", []interval{{150, 200}}, 100},
		{"unsorted chain", []interval{{70, 90}, {0, 30}, {25, 75}}, 10},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}
