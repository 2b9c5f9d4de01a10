// Package stats provides the sample measures behind the paper's
// figures: moments and z-scores (Figure 7's normalized demand), the
// logarithmic review-count bins of Figure 8, the Gini concentration of
// demand and the Zipf rank exponent of Figure 6's log-log curves.
package stats

import (
	"math"
	"sort"
)

// Summary holds the standard moments of a sample.
type Summary struct {
	N        int
	Mean     float64
	Variance float64 // population variance
	StdDev   float64
	Min      float64
	Max      float64
	Sum      float64
}

// Summarize computes a Summary of xs. An empty input yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	for _, x := range xs {
		s.Sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = s.Sum / float64(s.N)
	for _, x := range xs {
		d := x - s.Mean
		s.Variance += d * d
	}
	s.Variance /= float64(s.N)
	s.StdDev = math.Sqrt(s.Variance)
	return s
}

// ZScores returns (x - mean) / stddev for each x. If the standard
// deviation is zero, all scores are zero. This is the normalization the
// paper applies to demand in Figure 7 ("normalized within each dataset to
// have a mean of zero and standard deviation of one").
func ZScores(xs []float64) []float64 {
	s := Summarize(xs)
	out := make([]float64, len(xs))
	if s.StdDev == 0 {
		return out
	}
	for i, x := range xs {
		out[i] = (x - s.Mean) / s.StdDev
	}
	return out
}

// Gini returns the Gini concentration coefficient of the non-negative
// sample xs in [0, 1]; 0 means perfectly even, values near 1 mean the
// mass concentrates on few elements. Used to characterize demand skew.
func Gini(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var cum, total float64
	for i, x := range sorted {
		cum += float64(i+1) * x
		total += x
	}
	if total == 0 {
		return 0
	}
	return (2*cum)/(float64(n)*total) - float64(n+1)/float64(n)
}
