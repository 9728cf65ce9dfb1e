// Lazy seeding of math/rand's generator. A seeded math/rand source fills
// all 607 words of its lagged-Fibonacci register through 1,841 serial
// Park–Miller steps, while a typical scheduler run draws a few dozen
// values. lazySource yields exactly the stream rand.NewSource(seed) does,
// but Seed is O(1) and each register word is computed in closed form the
// first time a draw touches it.
package sched

import "math/rand"

// The register's shape and the seeding recurrence x ← 48271·x mod (2³¹−1),
// as in math/rand's rngSource.
const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1
	pmMod   = 1<<31 - 1 // Park–Miller modulus, a Mersenne prime
	pmMul   = 48271
)

var (
	// seedPow[3i+j] is 48271^(21+3i+j) mod (2³¹−1): seeding takes 20
	// warm-up steps, then three steps per register word, so word i is
	// built from the seed's 21+3i-th, 22+3i-th and 23+3i-th successors.
	seedPow [3 * rngLen]uint32
	// cooked is math/rand's table of per-word constants, which seeding
	// XORs into every word (see init).
	cooked [rngLen]int64
)

func init() {
	p := uint64(1)
	for k := 0; k < 20; k++ {
		p = pmMulMod(p, pmMul)
	}
	for k := range seedPow {
		p = pmMulMod(p, pmMul)
		seedPow[k] = uint32(p)
	}

	// Recover the cooked table from math/rand's own output. 607 draws from
	// a fresh source overwrite every register word once, each with the
	// value drawn, so the drawn values are the final register. Undoing
	// the draws in reverse (each one added the tap word into the feed
	// word) restores the register as seed 1 left it, and XORing out seed
	// 1's Park–Miller parts leaves the cooked constants.
	src := rand.NewSource(1).(rand.Source64)
	var vec [rngLen]int64
	tap, feed := 0, rngLen-rngTap
	for range rngLen {
		tap, feed = (tap+rngLen-1)%rngLen, (feed+rngLen-1)%rngLen
		vec[feed] = int64(src.Uint64())
	}
	for range rngLen {
		vec[feed] -= vec[tap]
		tap, feed = (tap+1)%rngLen, (feed+1)%rngLen
	}
	for i := range cooked {
		cooked[i] = vec[i] ^ pmWord(1, i)
	}
}

// pmMulMod returns a·b mod (2³¹−1) for a, b in [1, 2³¹−1). The modulus is
// 2³¹−1, so 2³¹ ≡ 1 and folding the high bits onto the low ones reduces
// the product to below twice the modulus.
func pmMulMod(a, b uint64) uint64 {
	x := a * b
	r := x&pmMod + x>>31
	if r >= pmMod {
		r -= pmMod
	}
	return r
}

// pmWord returns register word i as math/rand seeds it from the
// normalized seed s, before the cooked constant is XORed in.
func pmWord(s uint64, i int) int64 {
	p := seedPow[3*i : 3*i+3]
	return int64(pmMulMod(s, uint64(p[0])))<<40 ^
		int64(pmMulMod(s, uint64(p[1])))<<20 ^
		int64(pmMulMod(s, uint64(p[2])))
}

// lazySource is a rand.Source64 whose stream equals math/rand's seeded
// source for every seed. It must be seeded before its first draw.
//
// No per-word bookkeeping is needed to know which words are fresh: draw n
// (1-based) adds word 607−n into word 334−n (mod 607), so the first 334
// draws each touch their feed word for the first time, the first 273 also
// their tap word, and after 334 draws every word has been built.
type lazySource struct {
	seed      uint64 // normalized seed in [1, 2³¹−1)
	tap, feed int
	n         int // draws since Seed, counted up to rngLen-rngTap
	vec       [rngLen]int64
}

// Seed normalizes seed exactly as math/rand does and rewinds the
// register; no word is computed until a draw needs it.
func (s *lazySource) Seed(seed int64) {
	seed %= pmMod
	if seed < 0 {
		seed += pmMod
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed = uint64(seed)
	s.tap, s.feed, s.n = 0, rngLen-rngTap, 0
}

// Int63 returns a non-negative 63-bit integer.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Uint64 returns the next value of the stream.
func (s *lazySource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.n < rngLen-rngTap {
		s.n++
		s.vec[s.feed] = pmWord(s.seed, s.feed) ^ cooked[s.feed]
		if s.n <= rngTap {
			s.vec[s.tap] = pmWord(s.seed, s.tap) ^ cooked[s.tap]
		}
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}
