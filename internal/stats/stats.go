// Package stats provides the small statistical toolkit used by the
// serving metrics and the experiment reports: means, percentiles, and
// normalized-duration summaries.
package stats

import (
	"math"
	"sort"
	"time"
)

// Mean returns the arithmetic mean of ds (0 for empty input).
func Mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) using
// nearest-rank on a sorted copy.
func Percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	sorted := make([]time.Duration, len(ds))
	copy(sorted, ds)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// Percentiles returns the nearest-rank percentile for each p in ps,
// sorting one copy of ds once. Each result is identical to the
// corresponding Percentile(ds, p) call.
func Percentiles(ds []time.Duration, ps ...float64) []time.Duration {
	out := make([]time.Duration, len(ps))
	if len(ds) == 0 {
		return out
	}
	sorted := make([]time.Duration, len(ds))
	copy(sorted, ds)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i, p := range ps {
		if p < 0 {
			p = 0
		}
		if p > 100 {
			p = 100
		}
		rank := int(math.Ceil(p / 100 * float64(len(sorted))))
		if rank < 1 {
			rank = 1
		}
		out[i] = sorted[rank-1]
	}
	return out
}

// Max returns the maximum (0 for empty input).
func Max(ds []time.Duration) time.Duration {
	var m time.Duration
	for _, d := range ds {
		if d > m {
			m = d
		}
	}
	return m
}

// Normalize maps durations onto [0, 1] relative to the maximum — the
// presentation of Fig. 4's kernel-duration distributions.
func Normalize(ds []time.Duration) []float64 {
	max := Max(ds)
	out := make([]float64, len(ds))
	if max == 0 {
		return out
	}
	for i, d := range ds {
		out[i] = float64(d) / float64(max)
	}
	return out
}

// CoefficientOfVariation returns stddev/mean of the durations — the
// "variance in kernel duration" measure behind Fig. 4 (larger models
// have more widely varied kernels).
func CoefficientOfVariation(ds []time.Duration) float64 {
	if len(ds) < 2 {
		return 0
	}
	mean := float64(Mean(ds))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, d := range ds {
		diff := float64(d) - mean
		ss += diff * diff
	}
	return math.Sqrt(ss/float64(len(ds))) / mean
}
