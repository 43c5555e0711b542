// Package rng provides deterministic, splittable pseudo-random number
// generation for the balls-into-bins simulation engine.
//
// The package offers three generator families (SplitMix64, Xoshiro256
// and PCG32), bias-free bounded integers (Lemire's multiply-shift
// rejection), and exact samplers for the distributions the paper's
// analysis uses (Poisson, Binomial, Geometric, Exponential, Normal).
//
// Reproducibility is a first-class concern: a master seed can be split
// into arbitrarily many statistically independent streams via
// Rand.Stream, so every replicate of an experiment and every shard of
// the parallel engine draws from its own deterministic sequence. Two
// runs with the same seed produce identical results regardless of
// scheduling.
//
// Rand is NOT safe for concurrent use; give each goroutine its own
// stream.
package rng

import "math/bits"

// Source is the minimal interface a raw generator must implement.
// All generators in this package produce full-width 64-bit outputs.
type Source interface {
	// Uint64 returns the next 64 bits of the stream.
	Uint64() uint64
}

// goldenGamma is the 64-bit golden ratio increment used by SplitMix64
// and for deriving independent stream seeds.
const goldenGamma = 0x9E3779B97F4A7C15

// mix64 is the SplitMix64 output function (Stafford's MurmurHash3
// variant 13). It is used both by SplitMix64 and to derive seeds.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// SplitMix64 is Steele, Lea and Flood's SplitMix64 generator. It has a
// tiny state, passes BigCrush, and is primarily used here to seed the
// larger-state generators and derive substreams.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 { return &SplitMix64{state: seed} }

// Uint64 returns the next output of the stream.
func (s *SplitMix64) Uint64() uint64 {
	s.state += goldenGamma
	return mix64(s.state)
}

// Seed resets the generator to the given seed.
func (s *SplitMix64) Seed(seed uint64) { s.state = seed }

// Rand wraps a Source with convenience methods for bounded integers,
// floats, permutations and distribution sampling. The zero value is not
// usable; construct with New or NewWith.
type Rand struct {
	src  Source
	seed uint64 // seed this Rand was derived from, for Stream splitting

	// cached spare normal variate from the polar method
	haveSpare bool
	spare     float64
}

// New returns a Rand backed by a Xoshiro256 generator seeded,
// via SplitMix64, from seed. This is the recommended general-purpose
// constructor.
func New(seed uint64) *Rand {
	return &Rand{src: NewXoshiro256(seed), seed: seed}
}

// NewWith returns a Rand backed by the given source. Stream splitting
// uses seed as the base, so distinct (seed, stream index) pairs yield
// independent sequences.
func NewWith(src Source, seed uint64) *Rand {
	return &Rand{src: src, seed: seed}
}

// Seed reports the seed this Rand was constructed from.
func (r *Rand) Seed() uint64 { return r.seed }

// Source returns the backing generator. Engine hot loops use it to
// devirtualize known generator families (see Uint64nXoshiro); the
// returned Source shares state with r, so interleaving draws through
// both views is well-defined and deterministic.
func (r *Rand) Source() Source { return r.src }

// Stream returns a new Rand whose sequence is statistically independent
// of r's and of every other stream index. It is deterministic: the same
// (seed, i) always yields the same stream. The returned Rand uses the
// same generator family as New.
func (r *Rand) Stream(i uint64) *Rand {
	return New(StreamSeed(r.seed, i))
}

// StreamSeed returns the seed that Stream(i) of a Rand constructed
// from master derives, without building any generator state. It lets
// callers that only need the derived seed (for example the replicate
// fan-out in ballsbins.Replicates) skip the intermediate allocation.
func StreamSeed(master, i uint64) uint64 {
	return mix64(master + goldenGamma*(i+1))
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *Rand) Uint64() uint64 { return r.src.Uint64() }

// Uint32 returns a uniformly distributed 32-bit value.
func (r *Rand) Uint32() uint32 { return uint32(r.src.Uint64() >> 32) }

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
// The implementation is Lemire's multiply-shift with rejection, which
// is bias-free and needs no divisions on the fast path.
func (r *Rand) Uint64n(n uint64) uint64 {
	return Uint64nFrom(r.src, n)
}

// Uint64nFrom draws a bias-free uniform value in [0, n) directly from
// src using Lemire's multiply-shift with rejection. It panics if
// n == 0. This is the building block for callers that manage raw
// sources themselves (for example, the parallel engine's per-ball
// derived streams).
func Uint64nFrom(src Source, n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	hi, lo := bits.Mul64(src.Uint64(), n)
	if lo < n {
		thresh := -n % n // == (2^64 - n) mod n
		for lo < thresh {
			hi, lo = bits.Mul64(src.Uint64(), n)
		}
	}
	return hi
}

// Uint64nXoshiro draws a bias-free uniform value in [0, n) directly
// from a concrete Xoshiro256 — exactly Lemire's multiply-shift with
// rejection, the same algorithm and distribution as Uint64nFrom, with
// the generator call devirtualized so the common path inlines into
// tight simulation loops. It panics if n == 0.
func Uint64nXoshiro(x *Xoshiro256, n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64nXoshiro with n == 0")
	}
	hi, lo := bits.Mul64(x.Uint64(), n)
	if lo < n {
		return Uint64nXoshiroFinish(x, n, hi, lo)
	}
	return hi
}

// Uint64nXoshiroFinish completes a Lemire attempt whose low word fell
// below n: the pending (hi, lo) is accepted iff lo clears the exact
// threshold (2⁶⁴−n) mod n, otherwise fresh draws are taken until one
// does — identical to Uint64nFrom's rejection rule, so the output is
// exactly uniform. (A draw with lo < n must NOT be unconditionally
// discarded: every hi bucket contains exactly one such value, so
// over-rejecting would reproduce plain multiply-shift bias.) It is
// exported for hot loops that inline the fast attempt themselves and
// only call out on this rare branch.
func Uint64nXoshiroFinish(x *Xoshiro256, n, hi, lo uint64) uint64 {
	thresh := -n % n
	for lo < thresh {
		hi, lo = bits.Mul64(x.Uint64(), n)
	}
	return hi
}

// Mix deterministically combines the given words into a single
// well-mixed 64-bit value (SplitMix64 finalizer over a running golden
// ratio accumulation). It is used to derive independent substream
// seeds from structured coordinates such as (seed, round, ball).
func Mix(vals ...uint64) uint64 {
	acc := uint64(goldenGamma)
	for _, v := range vals {
		acc = mix64(acc + v*goldenGamma)
	}
	return acc
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Int63 returns a uniform non-negative int64.
func (r *Rand) Int63() int64 { return int64(r.src.Uint64() >> 1) }

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (r *Rand) Float64() float64 {
	return float64(r.src.Uint64()>>11) * (1.0 / (1 << 53))
}

// Bernoulli returns true with probability p. Values p <= 0 never
// return true; p >= 1 always does.
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle randomly permutes n elements using the provided swap
// function, following the Fisher–Yates algorithm.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	if n < 0 {
		panic("rng: Shuffle with n < 0")
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
