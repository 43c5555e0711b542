package protocol

import (
	"fmt"
	"math"

	"repro/internal/loadvec"
	"repro/internal/rng"
)

// Session is the incremental allocation primitive: a long-lived,
// stateful run of one protocol over one set of bins, advanced one ball
// (Step) or one batch (StepBatch) at a time, with support for
// departures (Remove). Every batch entry point in this package — Run,
// RunEngine, RunWithObserverEngine — is a thin driver over a Session,
// so there is exactly one allocation code path.
//
// Under the fast engine, a Session for a HistPlacer protocol starts in
// histogram mode: StepBatch executes on a loadvec.Hist (O(#levels)
// working set, fused PlaceBelowBatch hot loop for the rejection
// protocols), and the per-bin Vector is materialized lazily, the first
// time an operation needs bin identities (Step's return value, Remove,
// Vector). Materialization of a non-empty histogram draws the uniform
// identity assignment from the session's RNG (see Hist.ToVector);
// materializing before any ball has been placed is free and consumes
// no randomness. After materialization — and always under the naive
// engine or for protocols without a histogram path — the session runs
// on the exact per-bin Vector, using the O(1) bucket-index fast path
// (FastPlacer) when the engine and protocol support it.
//
// The ball index passed to the protocol is always the live ball count
// plus one. For pure arrival sequences this is exactly the 1-based
// ball index of the batch runners; under removals it makes the
// adaptive family's acceptance bound track the number of balls
// currently in the system — the natural online reading of the paper's
// rule, matching the dynamic-arrival transplant in internal/dynamic.
//
// A Session is not safe for concurrent use; see the public
// ballsbins.ShardedAllocator for a concurrent composition.
type Session struct {
	p      Protocol
	fast   FastPlacer // non-nil iff engine is fast and p implements it
	hp     HistPlacer // non-nil iff engine is fast and p implements it
	r      *rng.Rand
	engine Engine

	h *loadvec.Hist   // histogram mode; nil once materialized
	v *loadvec.Vector // nil while h is non-nil

	samples int64 // cumulative random bin choices
	placed  int64 // cumulative placements (not reduced by Remove)
	removed int64 // cumulative removals
}

// HorizonRequirer marks protocols whose acceptance rule depends on the
// total number of balls m (the Reset horizon): driving them with an
// unknown horizon (m = 0) deadlocks once every bin reaches the trivial
// bound. The public Allocator refuses to construct such a session
// without an explicit horizon.
type HorizonRequirer interface {
	RequiresHorizon()
}

// Rule returns the acceptance rule the session's protocol defends, or
// nil when it defends none (see Ruled). A threshold protocol's rule
// carries the session's horizon.
func (s *Session) Rule() Rule {
	if r, ok := s.p.(Ruled); ok {
		return r.Rule()
	}
	return nil
}

// RequiresHorizon marks Threshold's acceptance bound m/n + 1 as
// horizon-dependent.
func (t *Threshold) RequiresHorizon() {}

// RequiresHorizon marks BoundedRetry's acceptance bound m/n + 1 as
// horizon-dependent.
func (b *BoundedRetry) RequiresHorizon() {}

// NewSession resets p for a run of up to m balls into n bins (m = 0
// declares the horizon unknown — valid for online protocols whose rule
// does not depend on m) and returns a session drawing randomness from
// r under the given engine. It panics if n <= 0 or m < 0, and
// propagates any Reset panic (infeasible bounds, parameter checks).
func NewSession(p Protocol, n int, m int64, r *rng.Rand, e Engine) *Session {
	if n <= 0 {
		panic("protocol: NewSession with n <= 0")
	}
	if m < 0 {
		panic("protocol: NewSession with m < 0")
	}
	p.Reset(n, m)
	s := &Session{p: p, r: r, engine: e}
	if e == EngineFast {
		if hp, ok := p.(HistPlacer); ok {
			s.hp = hp
			s.h = loadvec.NewHist(n)
		}
		if fp, ok := p.(FastPlacer); ok {
			s.fast = fp
		}
	}
	if s.h == nil {
		s.v = loadvec.New(n)
	}
	return s
}

// Vector returns the live per-bin load vector, materializing it from
// the histogram if the session is still in histogram mode. The caller
// may read it freely; writes other than through the session (as the
// dynamic simulator's migration step does) are visible to subsequent
// placements, which is well-defined for every protocol in this
// package. The returned pointer stays valid for the session's
// lifetime.
func (s *Session) Vector() *loadvec.Vector {
	if s.v == nil {
		if s.h.Balls() == 0 {
			// Nothing placed yet: the uniform identity assignment is
			// trivial, so skip ToVector and its permutation draw. This
			// keeps observer-driven runs and ball-by-ball sessions on
			// exactly the RNG stream of the pre-Session engine code.
			s.v = loadvec.New(s.h.N())
		} else {
			s.v = s.h.ToVector(s.r)
		}
		s.h = nil
	}
	return s.v
}

// HistMode reports whether the session is still running histogram-only
// (no bin identities materialized yet).
func (s *Session) HistMode() bool { return s.h != nil }

// Step places one ball and returns the chosen bin and the number of
// random bin choices consumed. It materializes the per-bin vector if
// the session was in histogram mode.
func (s *Session) Step() (bin int, samples int64) {
	v := s.Vector()
	i := v.Balls() + 1
	if s.fast != nil {
		samples = s.fast.PlaceFast(v, s.r, i)
	} else {
		samples = s.p.Place(v, s.r, i)
	}
	s.samples += samples
	s.placed++
	return v.LastPlaced(), samples
}

// StepBatch places k balls without reporting their individual bins and
// returns the total number of random bin choices consumed. In
// histogram mode the rejection-sampling protocols execute through the
// fused Hist.PlaceBelowBatch hot loop (one call per span of balls
// sharing an acceptance threshold); otherwise the balls are stepped
// one at a time on the vector. k <= 0 is a no-op.
//
// A rejection protocol's batch must fit below the level of its last
// ball: n·level(balls+k) − balls ≥ k. The test is exact for threshold
// and fixed[<b], whose level is constant, and always passes for the
// adaptive family. A batch that does not fit panics, under either
// engine, before placing anything.
func (s *Session) StepBatch(k int64) int64 {
	if k <= 0 {
		return 0
	}
	if q, ok := s.p.(interface{ level(int64) int }); ok {
		n, balls := int64(s.N()), s.Balls()
		if n*int64(q.level(balls+k))-balls < k {
			panic(errNoAcceptable)
		}
	}
	var total int64
	if s.h != nil {
		total = s.stepBatchHist(k)
	} else {
		v := s.v
		for j := int64(0); j < k; j++ {
			i := v.Balls() + 1
			if s.fast != nil {
				total += s.fast.PlaceFast(v, s.r, i)
			} else {
				total += s.p.Place(v, s.r, i)
			}
		}
	}
	s.samples += total
	s.placed += k
	return total
}

// stepBatchHist advances the histogram-mode session by k balls. The
// uniform rejection-sampling protocols keep their acceptance threshold
// constant across long spans of balls (a whole run for Threshold /
// FixedThreshold / SingleChoice, one n-ball stage for the adaptive
// variants), so they execute as a few calls into Hist.PlaceBelowBatch
// instead of one dynamic dispatch per ball. Other HistPlacer
// implementations fall back to per-ball PlaceHist calls. The stage
// arithmetic is anchored at the current ball count, so successive
// batches compose exactly like one big batch.
func (s *Session) stepBatchHist(k int64) int64 {
	h := s.h
	r := s.r
	end := h.Balls() + k
	var total int64
	switch q := s.p.(type) {
	case *Threshold:
		total = h.PlaceBelowBatch(r, k, q.level(0))
	case *FixedThreshold:
		total = h.PlaceBelowBatch(r, k, q.level(0))
	case interface{ level(int64) int }:
		// Adaptive and AdaptiveNoSlack: balls s·n+1 … (s+1)·n share
		// one level.
		n := int64(h.N())
		for placed := h.Balls(); placed < end; {
			count := min((placed/n+1)*n, end) - placed
			total += h.PlaceBelowBatch(r, count, q.level(placed+1))
			placed += count
		}
	case *SingleChoice:
		total = h.PlaceBelowBatch(r, k, math.MaxInt32)
	default:
		for j := int64(0); j < k; j++ {
			total += s.hp.PlaceHist(h, r, h.Balls()+1)
		}
	}
	return total
}

// Remove takes one ball out of bin i — a departure. It materializes
// the per-bin vector if needed and panics if bin i is empty. The
// protocol is not consulted: removals are a property of the load
// state, and every protocol's next acceptance decision simply sees the
// reduced loads (and, for the adaptive family, the reduced live ball
// count).
func (s *Session) Remove(bin int) {
	s.Vector().Decrement(bin)
	s.removed++
}

// N returns the number of bins.
func (s *Session) N() int {
	if s.h != nil {
		return s.h.N()
	}
	return s.v.N()
}

// Balls returns the number of balls currently in the system.
func (s *Session) Balls() int64 {
	if s.h != nil {
		return s.h.Balls()
	}
	return s.v.Balls()
}

// Placed returns the cumulative number of placements (not reduced by
// removals).
func (s *Session) Placed() int64 { return s.placed }

// Removed returns the cumulative number of removals.
func (s *Session) Removed() int64 { return s.removed }

// Samples returns the cumulative number of random bin choices — the
// paper's allocation-time metric, summed over every Step and
// StepBatch so far.
func (s *Session) Samples() int64 { return s.samples }

// MaxLoad returns the current maximum load without materializing.
func (s *Session) MaxLoad() int {
	if s.h != nil {
		return s.h.MaxLoad()
	}
	return s.v.MaxLoad()
}

// MinLoad returns the current minimum load without materializing.
func (s *Session) MinLoad() int {
	if s.h != nil {
		return s.h.MinLoad()
	}
	return s.v.MinLoad()
}

// Gap returns MaxLoad − MinLoad without materializing.
func (s *Session) Gap() int {
	if s.h != nil {
		return s.h.Gap()
	}
	return s.v.Gap()
}

// SumSquares returns Σ loads² without materializing. Shard
// aggregations use it to combine exact global potentials.
func (s *Session) SumSquares() int64 {
	if s.h != nil {
		return s.h.SumSquares()
	}
	return s.v.SumSquares()
}

// LevelCount returns the number of bins with load exactly l without
// materializing.
func (s *Session) LevelCount(l int) int64 {
	if s.h != nil {
		return s.h.LevelCount(l)
	}
	return s.v.LevelCount(l)
}

// Psi returns the quadratic potential Ψ without materializing.
func (s *Session) Psi() float64 {
	if s.h != nil {
		return s.h.QuadraticPotential()
	}
	return s.v.QuadraticPotential()
}

// Phi returns the exponential potential Φ with the given ε without
// materializing.
func (s *Session) Phi(eps float64) float64 {
	if s.h != nil {
		return s.h.ExponentialPotential(eps)
	}
	return s.v.ExponentialPotential(eps)
}

// Name returns the protocol's identifier.
func (s *Session) Name() string { return s.p.Name() }

// String returns a compact human-readable description.
func (s *Session) String() string {
	mode := "vector"
	if s.h != nil {
		mode = "hist"
	}
	return fmt.Sprintf("session{%s engine=%s mode=%s n=%d live=%d placed=%d samples=%d}",
		s.p.Name(), s.engine, mode, s.N(), s.Balls(), s.placed, s.samples)
}
