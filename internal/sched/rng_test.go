package sched

import (
	"math"
	"math/rand"
	"testing"
)

// matchStream draws n values from got and from a fresh math/rand
// generator seeded with seed, interleaving Uint64, Intn, Int63n, Float64
// and a Zipf drawn off the same generator, and fails at the first
// difference. got must already be seeded with seed.
func matchStream(t *testing.T, got *rand.Rand, seed int64, n int) {
	t.Helper()
	want := rand.New(rand.NewSource(seed))
	gz := rand.NewZipf(got, 1.3, 1, costDispatch*8)
	wz := rand.NewZipf(want, 1.3, 1, costDispatch*8)
	for i := 0; i < n; i++ {
		var g, w uint64
		switch i % 5 {
		case 0:
			g, w = got.Uint64(), want.Uint64()
		case 1:
			bound := 1 + i%(costDispatch*8+1)
			g, w = uint64(got.Intn(bound)), uint64(want.Intn(bound))
		case 2:
			bound := int64(1)<<40 + int64(i)
			g, w = uint64(got.Int63n(bound)), uint64(want.Int63n(bound))
		case 3:
			g, w = math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
		case 4:
			g, w = gz.Uint64(), wz.Uint64()
		}
		if g != w {
			t.Fatalf("seed %d: draw %d (kind %d) = %d, math/rand gives %d", seed, i, i%5, g, w)
		}
	}
}

// TestLazySourceMatchesMathRand: the lazy source yields math/rand's
// seeded stream for the seeds its normalization special-cases (0, the
// modulus, negatives, the 0 → 89482311 substitute, values far beyond 2³¹)
// and a few hundred mixed ones. One generator is reseeded throughout, so
// every seed after the first starts on a register full of the previous
// seed's words.
func TestLazySourceMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, 2, 89482311, -89482311,
		pmMod, -pmMod, pmMod - 1, pmMod + 1, 2 * pmMod,
		1 << 62, -(1 << 62), math.MaxInt64, math.MinInt64,
	}
	mix := rand.New(rand.NewSource(2026))
	for i := 0; i < 400; i++ {
		s := mix.Int63() >> uint(mix.Intn(63))
		if i%2 == 1 {
			s = -s
		}
		seeds = append(seeds, s)
	}
	lazy := rand.New(&lazySource{})
	for _, seed := range seeds {
		lazy.Seed(seed)
		matchStream(t, lazy, seed, 2500)
	}
}

// FuzzLazySource checks the lazy source against math/rand for any seed
// and draw count, starting from a register another seed has dirtied.
func FuzzLazySource(f *testing.F) {
	f.Add(int64(1), uint16(40))
	f.Add(int64(0), uint16(700))
	f.Add(int64(-pmMod), uint16(3000))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		lazy := rand.New(&lazySource{})
		lazy.Seed(seed ^ 0x5eed)
		for i := 0; i < int(draws%rngLen); i++ {
			lazy.Uint64()
		}
		lazy.Seed(seed)
		matchStream(t, lazy, seed, int(draws))
	})
}
