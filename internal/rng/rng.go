// Package rng provides a deterministic, splittable pseudo-random number
// generator and the probability distributions used by the register
// relocation experiments: geometric run lengths, exponentially
// distributed synchronization latencies, constant cache-fault latencies,
// and uniformly distributed context sizes (Waldspurger & Weihl, ISCA '93,
// Section 3.1).
//
// The generator is xoshiro256**, seeded through SplitMix64 so that any
// 64-bit seed (including 0) yields a well-mixed state. Every simulation
// component takes an explicit *rng.Source so entire experiments are
// reproducible from a single seed.
package rng

import (
	"math"
	"math/bits"
)

// Source is a deterministic pseudo-random number generator
// (xoshiro256**). It is not safe for concurrent use; derive independent
// streams with Split instead of sharing one Source.
type Source struct {
	s [4]uint64
}

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used for seeding so that correlated seeds (0, 1, 2, ...) still
// produce decorrelated xoshiro states.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from the given 64-bit seed.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		src.s[i] = splitMix64(&sm)
	}
	return &src
}

// Split returns a new Source whose stream is statistically independent
// of the receiver's. The receiver advances, so successive Split calls
// yield distinct children.
func (r *Source) Split() *Source {
	return New(r.Uint64() ^ 0xa3ec647659359acd)
}

// DeriveSeed deterministically derives an independent sub-stream seed
// from a base seed and a coordinate tuple, folding each coordinate
// through SplitMix64. Neighbouring coordinates (or base seeds) yield
// decorrelated seeds, so a parameter sweep can give every (coordinate)
// cell its own stream: the derived seed depends only on (base, coords),
// never on the order cells execute in, which is what makes parallel
// sweeps bit-identical to sequential ones.
func DeriveSeed(base uint64, coords ...uint64) uint64 {
	state := base
	out := splitMix64(&state)
	for _, c := range coords {
		state = out ^ c
		out = splitMix64(&state)
	}
	return out
}

// Uint64 returns the next 64 uniformly distributed bits. The state is
// updated in locals and stored back whole, which keeps the function
// small enough to inline into the samplers.
func (r *Source) Uint64() uint64 {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	result := bits.RotateLeft64(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	r.s = [4]uint64{s0, s1, s2, bits.RotateLeft64(s3, 45)}
	return result
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// unit returns 1 - Float64() for the 53-bit draw m = Uint64()>>11
// behind it: a uniform in (0, 1] whose log the inverse transforms take.
// It is exact, since 2^53 - m is representable.
func unit(m uint64) float64 { return 1 - float64(m)/(1<<53) }

// Intn returns a uniformly distributed int in [0, n). It panics if
// n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's nearly-divisionless bounded sampling with rejection to
	// remove modulo bias. The rejection threshold (2^64 mod bound) is
	// below bound, so a draw whose low word is at least bound is
	// accepted without computing it: the division runs only on the
	// rare draws that might be rejected.
	bound := uint64(n)
	hi, lo := bits.Mul64(r.Uint64(), bound)
	if lo < bound {
		threshold := (-bound) % bound
		for lo < threshold {
			hi, lo = bits.Mul64(r.Uint64(), bound)
		}
	}
	return int(hi)
}

// IntRange returns a uniformly distributed int in [lo, hi] inclusive.
// It panics if hi < lo.
func (r *Source) IntRange(lo, hi int) int {
	if hi < lo {
		panic("rng: IntRange called with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Exponential returns an exponentially distributed sample with the
// given mean. It panics if mean <= 0.
func (r *Source) Exponential(mean float64) float64 {
	if mean <= 0 {
		panic("rng: Exponential called with mean <= 0")
	}
	return exponentialAt(r.Uint64()>>11, mean)
}

// exponentialAt is Exponential's inverse transform on the 53-bit draw
// m; unit(m), which is 1-Float64(), avoids log(0).
func exponentialAt(m uint64, mean float64) float64 {
	return -mean * math.Log(unit(m))
}

// Geometric returns a geometrically distributed sample (support 1, 2,
// ...) with the given mean. A geometric run length with mean R models a
// fixed fault probability of 1/R on every execution cycle (paper
// Section 3.2). It panics if mean < 1.
func (r *Source) Geometric(mean float64) int {
	if mean < 1 {
		panic("rng: Geometric called with mean < 1")
	}
	if mean == 1 {
		return 1
	}
	return geometricAt(r.Uint64()>>11, mean, math.Log(1-1/mean))
}

// geometricAt is Geometric's inverse transform, ceil(ln(U) / ln(1-p))
// for U = unit(m) in (0,1] and p = 1/mean, with ln(1-p) passed in as
// logQ so a Sampler can compute it once per distribution instead of per
// draw.
func geometricAt(m uint64, mean, logQ float64) int {
	return runLength(math.Log(unit(m))/logQ, mean)
}

// runLength maps the real inverse transform x to Geometric's integer
// draw. It is non-decreasing in x, which the guide tables rely on.
func runLength(x, mean float64) int {
	k := math.Ceil(x)
	if k < 1 {
		k = 1
	}
	// Clamp to a sane bound to protect cycle accounting from float
	// pathologies; P(k > 700*mean) < 1e-300.
	if max := 700 * mean; k > max {
		k = max
	}
	return int(k)
}
