package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Mean, StdDev, CV and Percentile are the batch reference implementations
// that Moments and Percentiles are checked against.

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs, or 0 when fewer
// than two samples are available.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// CV returns stddev / mean of xs, or 0 for a non-positive mean.
func CV(xs []float64) float64 {
	m := Mean(xs)
	if m <= 0 {
		return 0
	}
	return StdDev(xs) / m
}

// Percentile returns the fraction of values in population strictly less
// than x, or 0 for an empty population.
func Percentile(x float64, population []float64) float64 {
	if len(population) == 0 {
		return 0
	}
	below := 0
	for _, p := range population {
		if p < x {
			below++
		}
	}
	return float64(below) / float64(len(population))
}

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{}, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEq(got, c.want) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestStdDev(t *testing.T) {
	if got := StdDev([]float64{5}); got != 0 {
		t.Errorf("StdDev of single sample = %v, want 0", got)
	}
	// Population stddev of {2,4,4,4,5,5,7,9} is exactly 2.
	got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !almostEq(got, 2) {
		t.Errorf("StdDev = %v, want 2", got)
	}
}

func TestCV(t *testing.T) {
	if got := CV([]float64{0, 0, 0}); got != 0 {
		t.Errorf("CV of zeros = %v, want 0", got)
	}
	// Constant positive samples: CV = 0.
	if got := CV([]float64{3, 3, 3}); !almostEq(got, 0) {
		t.Errorf("CV of constant = %v, want 0", got)
	}
	got := CV([]float64{2, 4, 4, 4, 5, 5, 7, 9}) // stddev 2, mean 5
	if !almostEq(got, 0.4) {
		t.Errorf("CV = %v, want 0.4", got)
	}
}

func TestPercentile(t *testing.T) {
	pop := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		x    float64
		want float64
	}{
		{0, 0},
		{1, 0},
		{3, 0.4},
		{5.5, 1},
	}
	for _, c := range cases {
		if got := Percentile(c.x, pop); !almostEq(got, c.want) {
			t.Errorf("Percentile(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if got := Percentile(1, nil); got != 0 {
		t.Errorf("Percentile over empty population = %v, want 0", got)
	}
}

func TestPercentilesOrderAndTies(t *testing.T) {
	xs := []float64{10, 20, 20, 30}
	got := Percentiles(xs)
	want := []float64{0, 0.25, 0.25, 0.75}
	for i := range want {
		if !almostEq(got[i], want[i]) {
			t.Fatalf("Percentiles(%v) = %v, want %v", xs, got, want)
		}
	}
	if len(Percentiles(nil)) != 0 {
		t.Error("Percentiles(nil) should be empty")
	}
}

// Property: percentiles are in [0,1], agree with Percentile, are monotone
// with value, and equal values get equal percentiles.
func TestPercentilesProperties(t *testing.T) {
	f := func(raw []uint16) bool {
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r % 100) // force ties
		}
		ps := Percentiles(xs)
		for i := range xs {
			if ps[i] < 0 || ps[i] > 1 || ps[i] != Percentile(xs[i], xs) {
				return false
			}
			for j := range xs {
				if xs[i] == xs[j] && ps[i] != ps[j] {
					return false
				}
				if xs[i] < xs[j] && ps[i] > ps[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// momentsMatchBatch folds xs into Moments forwards and backwards and reports
// whether both folds are identical and agree with the batch oracles.
func momentsMatchBatch(xs []float64) bool {
	var m Moments
	for _, x := range xs {
		m.Add(x)
	}
	var rev Moments
	for i := len(xs) - 1; i >= 0; i-- {
		rev.Add(xs[i])
	}
	return m == rev && m.N() == len(xs) &&
		almostEq(m.Mean(), Mean(xs)) &&
		math.Abs(m.StdDev()-StdDev(xs)) < 1e-6 &&
		math.Abs(m.CV()-CV(xs)) < 1e-6
}

// TestMomentsMatchesBatch checks the duration accumulator against the batch
// oracles on integer-valued samples (virtual-nanosecond durations are), and
// that the folded state does not depend on the order samples arrive in.
func TestMomentsMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(rng.Intn(100_000))
	}
	for _, c := range [][]float64{nil, {5}, {3, 3, 3}, {0, 0, 0}, {2, 4, 4, 4, 5, 5, 7, 9}, xs} {
		if !momentsMatchBatch(c) {
			t.Errorf("Moments disagrees with the batch oracles on %v", c)
		}
	}
}

// Property: Moments matches the batch oracles, in either fold order, for
// random integer-valued inputs.
func TestMomentsProperty(t *testing.T) {
	f := func(raw []int16) bool {
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		return momentsMatchBatch(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
