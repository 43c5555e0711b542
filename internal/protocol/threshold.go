package protocol

import (
	"fmt"
	"math"

	"repro/internal/loadvec"
	"repro/internal/rng"
)

// Threshold is the protocol of Czumaj and Stemann [7] (the paper's
// Figure 2): every ball repeatedly samples bins uniformly at random
// until it finds one with load strictly less than m/n + 1, and is
// placed there. The maximum load is at most ⌈m/n⌉ + 1 by construction;
// Theorem 4.1 shows the allocation time is m + O(m^{3/4}·n^{1/4})
// w.h.p. and in expectation. The number of balls m must be known in
// advance — the contrast with Adaptive.
type Threshold struct {
	m int64
	n int64
}

// NewThreshold returns the threshold protocol.
func NewThreshold() *Threshold { return &Threshold{} }

// Name implements Protocol.
func (t *Threshold) Name() string { return "threshold" }

// Reset implements Protocol, capturing m and n for the acceptance test.
func (t *Threshold) Reset(n int, m int64) {
	t.n = int64(n)
	t.m = m
}

// Rule implements Ruled: the threshold Rule with the Reset horizon.
func (t *Threshold) Rule() Rule { return ThresholdRule(t.m) }

// level is every ball's acceptance level: load < m/n + 1 is
// load < ⌈m/n⌉ + 1 in integers.
func (t *Threshold) level(int64) int { return int(CeilDiv(t.m, t.n)) + 1 }

// Place implements Protocol.
func (t *Threshold) Place(v *loadvec.Vector, r *rng.Rand, i int64) int64 {
	return placeUnder(v, r, t.level(i))
}

// FixedThreshold accepts any bin with load strictly below Bound,
// sampling until it finds one. It generalizes Threshold to arbitrary
// constant bounds and is the building block for capacity experiments.
// The caller must ensure the bound is feasible (n·Bound ≥ m): Reset
// panics on an infeasible horizon, and Place panics once every bin is
// at the bound.
type FixedThreshold struct {
	Bound int
}

// NewFixedThreshold returns a protocol accepting loads < bound.
// It panics if bound < 1.
func NewFixedThreshold(bound int) *FixedThreshold {
	if bound < 1 {
		panic("protocol: NewFixedThreshold with bound < 1")
	}
	return &FixedThreshold{Bound: bound}
}

// Name implements Protocol.
func (f *FixedThreshold) Name() string { return fmt.Sprintf("fixed[<%d]", f.Bound) }

// Reset implements Protocol and panics if the bound cannot accommodate
// all m balls.
func (f *FixedThreshold) Reset(n int, m int64) {
	if int64(n)*int64(f.Bound) < m {
		panic(fmt.Sprintf("protocol: fixed threshold %d infeasible for n=%d m=%d",
			f.Bound, n, m))
	}
}

// Rule implements Ruled: the fixed Rule with the same bound.
func (f *FixedThreshold) Rule() Rule { return FixedRule(int64(f.Bound)) }

// level is every ball's acceptance level: the bound, clamped to the
// int32 load domain.
func (f *FixedThreshold) level(int64) int { return min(f.Bound, math.MaxInt32) }

// Place implements Protocol.
func (f *FixedThreshold) Place(v *loadvec.Vector, r *rng.Rand, i int64) int64 {
	return placeUnder(v, r, f.level(i))
}
