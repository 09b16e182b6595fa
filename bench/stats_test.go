package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	for _, c := range []struct{ p, want float64 }{
		{0.01, 1}, {0.5, 50}, {0.99, 99}, {1, 100},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples is not NaN")
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		// Two samples: the exclusive method extrapolates past them.
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestWindowRateIgnoresOneSlowWindow(t *testing.T) {
	work := make([]float64, 100)
	busy := make([]float64, 100)
	for i := range work {
		work[i], busy[i] = 10, 1
	}
	// One stalled stretch: a tenth of the samples run 50x slower.
	for i := 40; i < 50; i++ {
		busy[i] = 50
	}
	if got := windowRate(work, busy, 10); got != 10 {
		t.Errorf("windowRate = %v, want 10 (the median window's rate)", got)
	}
	// Whole-run ratio would have been 1000/590.
	if got := windowRate(work[:3], busy[:3], 10); got != 10 {
		t.Errorf("windowRate with fewer samples than windows = %v, want 10", got)
	}
}

func TestVerdict(t *testing.T) {
	bound := 0.1
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}
	slower := []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}
	same := []float64{100, 100, 101, 99, 100, 101, 99, 100, 100, 101}
	for _, c := range []struct {
		name   string
		b      []float64
		bound  *float64
		lower  bool
		want   string
		wantWs int
	}{
		{"lower is better, B faster", faster, &bound, true, "improved", 10},
		{"lower is better, B slower", slower, &bound, true, "regressed", 0},
		{"higher is better, B higher", slower, &bound, false, "improved", 10},
		{"equal medians", same, &bound, true, "unchanged", 5},
		{"no bound, B worse every time", slower, nil, true, "regressed", 0},
		{"too few pairs to claim", faster[:5], &bound, true, "unchanged", 5},
	} {
		got, wins, _ := verdict(parent, c.b, c.lower, c.bound)
		if got != c.want || wins != c.wantWs {
			t.Errorf("%s: verdict %s with %d wins, want %s with %d", c.name, got, wins, c.want, c.wantWs)
		}
	}
	wide := []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}
	if got, _, _ := verdict(parent, []float64{105, 104, 106, 105, 105}, true, &bound); got != "unchanged" {
		t.Errorf("5%% worse against a 10%% bound: verdict %s, want unchanged", got)
	}
	if got, _, _ := verdict(wide, []float64{101, 101, 101}, true, &bound); got != "unresolved" {
		t.Errorf("parent spread wider than the bound: verdict %s, want unresolved", got)
	}
}
