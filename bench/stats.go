package main

import (
	"math"
	"slices"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs:
// the smallest sample with at least a fraction p of all samples at or
// below it. xs is not modified; NaN is returned for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(p * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// quartiles returns the three cut points that split xs into four equal
// groups, computed exactly as Python's statistics.quantiles(xs, n=4)
// does with its default "exclusive" method, so a spread computed here
// matches one computed from the same values there. A single sample is
// its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	switch len(xs) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	ld, m, n := len(s), len(s)+1, 4
	var q [3]float64
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), ld-1)
		delta := float64(i*m - j*n)
		q[i-1] = (s[j-1]*(float64(n)-delta) + s[j]*delta) / float64(n)
	}
	return q[0], q[1], q[2]
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count).
func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

// windowRate splits the paired samples into windows consecutive groups
// of (nearly) equal size, computes sum(work)/sum(busy) in each, and
// returns the median of those rates — a throughput that one slow
// stretch of the run (a GC cycle, a noisy neighbour) cannot drag down
// the way a whole-run ratio can. busy is in seconds.
func windowRate(work, busy []float64, windows int) float64 {
	n := min(len(work), len(busy))
	if n == 0 {
		return math.NaN()
	}
	windows = min(windows, n)
	rates := make([]float64, 0, windows)
	for w := 0; w < windows; w++ {
		lo, hi := w*n/windows, (w+1)*n/windows
		var sw, sb float64
		for i := lo; i < hi; i++ {
			sw += work[i]
			sb += busy[i]
		}
		if sb > 0 {
			rates = append(rates, sw/sb)
		}
	}
	return median(rates)
}

// micros converts durations to float64 microseconds.
func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}

// seconds converts durations to float64 seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
