package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed: percentile must sort
	}
	return xs
}

func TestPercentileTailRule(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p      float64
		want   float64
		tailOK bool
	}{
		{100, 0.5, 50, true},
		{100, 0.9, 90, true}, // exactly 10 samples beyond
		{99, 0.9, 90, false}, // 9 beyond
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{1, 0.9, 1, false},
	} {
		got, ok := percentile(seq(tc.n), tc.p)
		if got != tc.want || ok != tc.tailOK {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.p, got, ok, tc.want, tc.tailOK)
		}
	}
	if got := minSamplesFor(0.9); got != 100 {
		t.Errorf("minSamplesFor(0.9) = %d, want 100", got)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported a usable tail")
	}
}

// The reference values are Python's statistics.quantiles(xs, n=4),
// the rule the benchmark's spreads are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{seq(10), 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 3.5, 5.75},
	} {
		q1, m, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || m != tc.m || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", tc.xs, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}
