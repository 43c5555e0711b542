package protocol

import (
	"fmt"
	"strings"

	"repro/internal/loadvec"
	"repro/internal/rng"
)

// This file implements the histogram-mode fast engine. The naive Place
// methods simulate the paper's rejection loops literally: one RNG draw
// and one load probe per sampled bin, so a ball that rejects k bins
// costs Θ(k) work. The fast path collapses the whole loop into O(1)
// work while preserving the exact output distribution, using two
// facts:
//
//  1. In the loop "sample bins u.a.r. until load < T", the number of
//     samples S is Geometric(p) with p = CountBelow(T)/n, and —
//     independently of S — the accepted bin is uniform over the bins
//     with load < T. So drawing S from rng.Geometric (exact inversion
//     sampling) and the bin from a single bounded draw over the
//     CountBelow(T) acceptable positions yields the same joint
//     distribution of (reported samples, chosen bin) as the loop.
//  2. loadvec's bucket index makes both CountBelow(T) and "bin at a
//     uniform rank among the acceptable set" O(1).
//
// The two engines consume their RNG stream differently, so runs with
// the same seed differ between engines — but ball for ball the
// distributions of every observable (chosen bins, reported Samples,
// and hence MaxLoad/Gap/Ψ/Φ) are identical. One caveat on "exact":
// when acceptance is likely (p ≥ 1/4) the sample count is produced by
// literally counting Bernoulli trials, which is bit-exact; when it is
// rare the count comes from rng.Geometric's float64 inversion, whose
// per-quantile rounding error is O(2⁻⁵³) — identical for every
// practical purpose but not bit-level equal in the extreme tail. The
// equivalence tests in fast_test.go verify the engines agree with
// chi-square goodness of fit against the naive oracle.

// FastPlacer is implemented by protocols with a histogram-mode O(1)
// placement fast path. PlaceFast must produce the same distribution of
// (chosen bin, returned sample count) as Place on every reachable load
// vector, differing only in how it consumes the RNG stream.
type FastPlacer interface {
	Protocol
	// PlaceFast allocates ball i like Place, in O(1) amortized time.
	PlaceFast(v *loadvec.Vector, r *rng.Rand, i int64) int64
}

// HistPlacer is implemented by protocols whose dynamics depend on the
// load vector only through its level histogram — true of every uniform
// rejection-sampling protocol, which is symmetric under bin
// relabeling. PlaceHist must produce the same distribution of (chosen
// bin's level, returned sample count) as Place. When no per-ball
// observer needs bin identities, the fast engine runs the whole
// placement loop against a loadvec.Hist (O(#levels) working set, no
// random memory accesses) and materializes the per-bin Vector once at
// the end via Hist.ToVector — see that method for why the resulting
// load-vector distribution is exactly the naive engine's.
type HistPlacer interface {
	Protocol
	// PlaceHist allocates ball i on the histogram alone.
	PlaceHist(h *loadvec.Hist, r *rng.Rand, i int64) int64
}

// Engine selects the placement implementation for a run.
type Engine uint8

const (
	// EngineFast (the default) uses PlaceFast for protocols that
	// implement FastPlacer and falls back to the naive loop otherwise.
	EngineFast Engine = iota
	// EngineNaive always runs the literal rejection-sampling loop —
	// the reference oracle the fast path is validated against.
	EngineNaive
)

// String implements fmt.Stringer.
func (e Engine) String() string {
	switch e {
	case EngineFast:
		return "fast"
	case EngineNaive:
		return "naive"
	default:
		return fmt.Sprintf("engine(%d)", uint8(e))
	}
}

// ParseEngine resolves "fast" or "naive" (case-insensitive).
func ParseEngine(s string) (Engine, error) {
	switch strings.ToLower(s) {
	case "fast":
		return EngineFast, nil
	case "naive":
		return EngineNaive, nil
	default:
		return EngineFast, fmt.Errorf("unknown engine %q (want fast or naive)", s)
	}
}

// RunEngine is Run with an explicit engine selection.
func RunEngine(p Protocol, n int, m int64, r *rng.Rand, e Engine) Outcome {
	return RunWithObserverEngine(p, n, m, r, e, nil)
}

// RunWithObserverEngine is RunWithObserver with an explicit engine
// selection (nil observer behaves as RunEngine). It is a thin driver
// over Session — the incremental single-ball primitive.
//
// With EngineFast the session runs histogram-only when no observer is
// attached (the batched StepBatch path); an observer forces the
// per-ball bucket-index path (PlaceFast) so it can watch an exact
// Vector after every ball. Protocols implementing neither fast
// interface fall back to the naive loop under either engine.
func RunWithObserverEngine(p Protocol, n int, m int64, r *rng.Rand, e Engine, obs Observer) Outcome {
	if n <= 0 {
		panic("protocol: Run with n <= 0")
	}
	if m < 0 {
		panic("protocol: Run with m < 0")
	}
	s := NewSession(p, n, m, r, e)
	if obs == nil {
		s.StepBatch(m)
		return Outcome{Vector: s.Vector(), Samples: s.Samples()}
	}
	// Materialize before the first ball (free on an empty session) so
	// the observer sees an exact per-bin vector after every placement.
	v := s.Vector()
	for i := int64(1); i <= m; i++ {
		_, samples := s.Step()
		obs(i, samples, v)
	}
	return Outcome{Vector: v, Samples: s.Samples()}
}

// sampleBelow draws the outcome of "sample bins u.a.r. until one of
// the cb acceptable bins (out of n) is hit": the number of samples s
// (Geometric with p = cb/n) and the rank of the accepted bin (uniform
// on [0, cb), independent of s). When acceptance is likely it counts
// literal Bernoulli trials — one bounded draw each, no logarithms, and
// the accepting draw doubles as the rank. When acceptance is rare
// (4·cb < n) it switches to the exact Geometric inversion sampler so
// the cost stays O(1) regardless of the rejection rate. Both branches
// produce exactly the (Geometric, independent uniform) pair of the
// naive loop, so the choice of branch — a deterministic function of
// (cb, n) — never changes the distribution. It panics if cb <= 0, as
// the naive loop does.
func sampleBelow(r *rng.Rand, cb, n int64) (s, rank int64) {
	if cb <= 0 {
		panic(errNoAcceptable)
	}
	if 4*cb >= n {
		for {
			s++
			if j := int64(r.Uint64n(uint64(n))); j < cb {
				return s, j
			}
		}
	}
	return r.Geometric(float64(cb) / float64(n)), int64(r.Uint64n(uint64(cb)))
}

// placeBelow performs the fast-path equivalent of "sample bins u.a.r.
// until one has load < T, place the ball there" on the full vector.
func placeBelow(v *loadvec.Vector, r *rng.Rand, T int) int64 {
	s, rank := sampleBelow(r, v.CountBelow(T), int64(v.N()))
	v.Increment(v.BinAtRank(rank))
	return s
}

// placeBelowHist is placeBelow on the histogram alone: the accepted
// rank is mapped to its load level and the level count moved up.
func placeBelowHist(h *loadvec.Hist, r *rng.Rand, T int) int64 {
	s, rank := sampleBelow(r, h.CountBelow(T), int64(h.N()))
	h.IncrementLevel(h.LevelOfRank(rank))
	return s
}

// PlaceFast implements FastPlacer.
func (a *Adaptive) PlaceFast(v *loadvec.Vector, r *rng.Rand, i int64) int64 {
	return placeBelow(v, r, a.level(i))
}

// PlaceHist implements HistPlacer.
func (a *Adaptive) PlaceHist(h *loadvec.Hist, r *rng.Rand, i int64) int64 {
	return placeBelowHist(h, r, a.level(i))
}

// PlaceFast implements FastPlacer. Even the ablation's
// coupon-collector tail costs O(1) per ball here — its Θ(m log n)
// allocation time shows up only in the Samples statistic, no longer in
// wall-clock time.
func (a *AdaptiveNoSlack) PlaceFast(v *loadvec.Vector, r *rng.Rand, i int64) int64 {
	return placeBelow(v, r, a.level(i))
}

// PlaceHist implements HistPlacer.
func (a *AdaptiveNoSlack) PlaceHist(h *loadvec.Hist, r *rng.Rand, i int64) int64 {
	return placeBelowHist(h, r, a.level(i))
}

// PlaceFast implements FastPlacer.
func (t *Threshold) PlaceFast(v *loadvec.Vector, r *rng.Rand, i int64) int64 {
	return placeBelow(v, r, t.level(i))
}

// PlaceHist implements HistPlacer.
func (t *Threshold) PlaceHist(h *loadvec.Hist, r *rng.Rand, i int64) int64 {
	return placeBelowHist(h, r, t.level(i))
}

// PlaceFast implements FastPlacer.
func (f *FixedThreshold) PlaceFast(v *loadvec.Vector, r *rng.Rand, i int64) int64 {
	return placeBelow(v, r, f.level(i))
}

// PlaceHist implements HistPlacer.
func (f *FixedThreshold) PlaceHist(h *loadvec.Hist, r *rng.Rand, i int64) int64 {
	return placeBelowHist(h, r, f.level(i))
}

// PlaceFast implements FastPlacer. Single choice is already O(1); the
// draw selects a uniform RANK of the by-level permutation rather than
// a uniform bin identity — the two are the same distribution (a
// permutation of a uniform variable is uniform), but the rank
// formulation makes PlaceFast consume the RNG identically to PlaceHist
// and hit the same load level, so a ball-by-ball session reproduces
// the histogram-mode batch run value for value. (This deliberately
// changed the fast-engine observer path's stream for single-choice
// relative to the pre-Session code, which reused the draw as a bin
// identity: same seed, different — identically distributed — run. The
// no-observer fast path and the naive engine are unaffected.)
func (s *SingleChoice) PlaceFast(v *loadvec.Vector, r *rng.Rand, _ int64) int64 {
	v.Increment(v.BinAtRank(int64(r.Uint64n(uint64(v.N())))))
	return 1
}

// PlaceHist implements HistPlacer: a uniform rank is a uniform bin.
func (s *SingleChoice) PlaceHist(h *loadvec.Hist, r *rng.Rand, _ int64) int64 {
	h.IncrementLevel(h.LevelOfRank(int64(r.Uint64n(uint64(h.N())))))
	return 1
}

// PlaceFast implements FastPlacer. If the Geometric sample count
// exceeds the retry cap — probability (1−p)^R, exactly the chance the
// naive loop rejects all R samples — the R samples were i.i.d. uniform
// over the bins with load ≥ T, so the fallback draws them from the
// rejected bucket and keeps the first one attaining the minimum load,
// matching the naive rule. The fallback costs O(R), the same as naive;
// only the (typical) accepting case is O(1).
func (b *BoundedRetry) PlaceFast(v *loadvec.Vector, r *rng.Rand, _ int64) int64 {
	n := int64(v.N())
	T := int(CeilDiv(b.m, b.n)) + 1
	cb := v.CountBelow(T)
	retries := int64(b.retries)
	if cb > 0 {
		s := r.Geometric(float64(cb) / float64(n))
		if s <= retries {
			v.Increment(v.BinAtRank(int64(r.Uint64n(uint64(cb)))))
			return s
		}
	}
	reject := uint64(n - cb)
	best := -1
	bestLoad := 0
	for k := int64(0); k < retries; k++ {
		j := v.BinAtRank(cb + int64(r.Uint64n(reject)))
		if load := v.Load(j); best < 0 || load < bestLoad {
			best, bestLoad = j, load
		}
	}
	v.Increment(best)
	return retries
}

// PlaceHist implements HistPlacer. The histogram needs only the chosen
// bin's level: in the fallback, the level of the minimum sampled rank
// is exactly the minimum sampled load, i.e. the level of the bin the
// naive first-minimum rule selects.
func (b *BoundedRetry) PlaceHist(h *loadvec.Hist, r *rng.Rand, _ int64) int64 {
	n := int64(h.N())
	T := int(CeilDiv(b.m, b.n)) + 1
	cb := h.CountBelow(T)
	retries := int64(b.retries)
	if cb > 0 {
		s := r.Geometric(float64(cb) / float64(n))
		if s <= retries {
			h.IncrementLevel(h.LevelOfRank(int64(r.Uint64n(uint64(cb)))))
			return s
		}
	}
	reject := uint64(n - cb)
	minRank := n
	for k := int64(0); k < retries; k++ {
		if j := cb + int64(r.Uint64n(reject)); j < minRank {
			minRank = j
		}
	}
	h.IncrementLevel(h.LevelOfRank(minRank))
	return retries
}
