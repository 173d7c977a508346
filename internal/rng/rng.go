// Package rng provides a deterministic, splittable pseudo-random number
// generator used by every stochastic component in this repository.
//
// The generator is xoshiro256** (Blackman & Vigna), seeded through
// SplitMix64 so that any 64-bit seed — including 0 — yields a well-mixed
// state. Determinism matters here: the experiment harness must regenerate
// the paper's figures bit-for-bit across runs, and the multi-walk engine
// must give every walker an independent stream derived from one master
// seed.
package rng

import (
	"math"
	"math/bits"
)

// Rand is a xoshiro256** generator. The zero value is NOT ready for use;
// construct one with New or Split. Rand is not safe for concurrent use;
// give each goroutine its own Rand (see Split).
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from the given 64-bit seed via SplitMix64.
// Distinct seeds give statistically independent streams.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Reseed(seed)
	return r
}

// Reseed resets the generator state from seed, as if freshly constructed.
func (r *Rand) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	// xoshiro256** is undefined on the all-zero state; SplitMix64 cannot
	// produce four zero words from any seed, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// Uint64 returns the next 64 uniformly distributed bits. It steps the
// state over locals and stores it back in one assignment, which keeps
// it inside the inliner's budget (cost 63 of 80; 86 stepped in place),
// so Intn and every other draw inline it rather than call it.
func (r *Rand) Uint64() uint64 {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	s2 ^= s0
	s3 ^= s1
	r.s = [4]uint64{s0 ^ s3, s1 ^ s2, s2 ^ s1<<17, bits.RotateLeft64(s3, 45)}
	return bits.RotateLeft64(s1*5, 7) * 9
}

// Int63 returns a non-negative 63-bit integer. It makes Rand usable as a
// drop-in source where math/rand semantics are expected.
func (r *Rand) Int63() int64 {
	return int64(r.Uint64() >> 1)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// It uses Lemire's multiply-shift rejection method, which is unbiased and
// needs no division in the common case.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	un := uint64(n)
	v := r.Uint64()
	hi, lo := bits.Mul64(v, un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			v = r.Uint64()
			hi, lo = bits.Mul64(v, un)
		}
	}
	return int(hi)
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// ExpFloat64 returns an exponentially distributed float64 with mean 1,
// via inversion sampling. Used by the platform simulator's synthetic
// distributions and by tests.
func (r *Rand) ExpFloat64() float64 {
	// -log(1-U) with U in [0,1); 1-U is in (0,1] so the log is finite.
	u := r.Float64()
	return -math.Log(1 - u)
}

// NormFloat64 returns a standard normal float64 via the polar
// (Marsaglia) method. Used for clock-jitter models in the platform
// simulator.
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Perm returns a uniformly random permutation of [0, n) as a fresh slice.
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(p)
	return p
}

// Shuffle permutes p in place with a Fisher-Yates shuffle.
func (r *Rand) Shuffle(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Split derives a statistically independent child generator. The child's
// seed is drawn from the parent's stream and re-expanded through
// SplitMix64, so sibling streams do not overlap in practice. This is how
// the multi-walk engine gives each of its k walkers its own stream.
func (r *Rand) Split() *Rand {
	return New(r.Uint64())
}

// Bool returns an unbiased random boolean.
func (r *Rand) Bool() bool {
	return r.Uint64()&1 == 1
}
