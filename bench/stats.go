package main

import (
	"fmt"
	"sort"
)

// minBeyond is the percentile rule's floor: a percentile is reported only
// when at least this many samples lie at or beyond its rank, so a tail
// figure is never one or two outliers.
const minBeyond = 10

// samples is a set of virtual-time measurements in milliseconds.
type samples []float64

// quantile returns the nearest-rank p-quantile. It refuses (error) when
// the sample cannot put minBeyond values beyond the rank, n·(1−p) <
// minBeyond: p50 needs 20 samples, p95 200, p99 1000.
func (s samples) quantile(p float64) (float64, error) {
	n := len(s)
	if beyond := float64(n) * (1 - p); beyond < minBeyond-1e-9 {
		return 0, fmt.Errorf("p%g refused: %d samples put %.1f beyond the rank, need %d",
			p*100, n, beyond, minBeyond)
	}
	i := int(p * float64(n))
	sorted := append(samples(nil), s...)
	sort.Float64s(sorted)
	return sorted[i], nil
}

// max returns the largest sample (0 for an empty set). A maximum has no
// samples beyond it by definition; it is used only where the quantity of
// interest is the worst case over a fixed, small number of injected faults.
func (s samples) max() float64 {
	m := 0.0
	for _, v := range s {
		if v > m {
			m = v
		}
	}
	return m
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// median is the p50 without the sample-count rule, for per-layer figures
// whose sample count the workload does not control (they print n beside it).
func (s samples) median() float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := append(samples(nil), s...)
	sort.Float64s(sorted)
	return sorted[len(sorted)/2]
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
