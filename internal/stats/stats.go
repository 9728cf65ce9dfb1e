// Package stats provides the two statistics SherLock's hypotheses need: an
// exact duration accumulator (mean, standard deviation, coefficient of
// variation) and empirical percentiles. The Acquisition-Time-Mostly-Varies
// hypothesis (paper Section 2, Eq. 5) ranks every method by the percentile
// of the coefficient of variation of its duration samples.
package stats

import (
	"math"
	"sort"
)

// Percentiles computes, for every value in xs, its percentile within xs
// itself: the fraction of values strictly less than it, in [0, 1]. Equal
// values receive equal percentiles. The result preserves input order. This
// is the "percentile(CV(duration(m)))" ranking of Eq. 5: a method whose
// duration varies more than most others gets a value near 1 and hence a
// small penalty for being inferred as an acquire.
func Percentiles(xs []float64) []float64 {
	out := make([]float64, len(xs))
	if len(xs) == 0 {
		return out
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for i, x := range xs {
		// Index of first element >= x == count of elements < x.
		below := sort.SearchFloat64s(sorted, x)
		out[i] = float64(below) / float64(len(xs))
	}
	return out
}

// Moments accumulates exact integer moments (count, sum, sum of squares)
// of integer-valued samples. Unlike a floating-point running mean, whose
// state depends on the order samples arrive in, integer moments are
// exactly commutative: folding the same multiset of samples in any order
// produces the identical bits. The window accumulator uses one per method for duration
// statistics, which is what lets incremental checkpoint folding add only
// the new traces' samples instead of replaying the whole corpus.
//
// Samples are expected to be integer-valued (virtual-nanosecond durations
// are); fractional parts are truncated on Add. Derived statistics use the
// population standard deviation, 0 for fewer than two samples, and CV 0
// for a non-positive mean.
type Moments struct {
	Count int64 `json:"n"`
	Sum   int64 `json:"sum"`
	SumSq int64 `json:"sumsq"`
}

// Add folds one integer-valued sample into the accumulator.
func (m *Moments) Add(x float64) {
	v := int64(x)
	m.Count++
	m.Sum += v
	m.SumSq += v * v
}

// N returns the number of samples folded in so far.
func (m *Moments) N() int { return int(m.Count) }

// Mean returns the mean, or 0 for an empty accumulator.
func (m *Moments) Mean() float64 {
	if m.Count == 0 {
		return 0
	}
	return float64(m.Sum) / float64(m.Count)
}

// StdDev returns the population standard deviation, or 0 when fewer than
// two samples are available.
func (m *Moments) StdDev() float64 {
	if m.Count < 2 {
		return 0
	}
	mean := m.Mean()
	v := float64(m.SumSq)/float64(m.Count) - mean*mean
	if v < 0 {
		v = 0 // guard the tiny negative residue of float cancellation
	}
	return math.Sqrt(v)
}

// CV returns the coefficient of variation, stddev / mean. A zero mean
// yields 0: durations are non-negative, so a zero mean means every sample
// is zero and there is no variation to speak of.
func (m *Moments) CV() float64 {
	if mean := m.Mean(); mean > 0 {
		return m.StdDev() / mean
	}
	return 0
}
