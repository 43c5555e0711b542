package protocol

import (
	"repro/internal/loadvec"
	"repro/internal/rng"
)

// Adaptive is the paper's new protocol (Figure 1): ball i repeatedly
// samples bins uniformly at random until it finds one with load
// strictly less than i/n + 1, and is placed there. The threshold
// adapts to the number of balls placed so far, so m need not be known
// in advance. The maximum load is at most ⌈m/n⌉ + 1 by construction;
// Theorem 3.1 shows the expected allocation time is O(m), and
// Corollary 3.5 that the final distribution is smooth:
// E[Φ] = O(n), E[Ψ] = O(n), and max − min = O(log n) w.h.p.
type Adaptive struct {
	n int64
}

// NewAdaptive returns the adaptive protocol.
func NewAdaptive() *Adaptive { return &Adaptive{} }

// Name implements Protocol.
func (a *Adaptive) Name() string { return "adaptive" }

// Reset implements Protocol. m is deliberately unused: the protocol is
// online.
func (a *Adaptive) Reset(n int, _ int64) { a.n = int64(n) }

// Rule implements Ruled: the paper's rule is the adaptive Rule.
func (a *Adaptive) Rule() Rule { return AdaptiveRule() }

// level is ball i's acceptance level: load < i/n + 1 is
// load < ⌈i/n⌉ + 1 in integers.
func (a *Adaptive) level(i int64) int { return int(CeilDiv(i, a.n)) + 1 }

// Place implements Protocol.
func (a *Adaptive) Place(v *loadvec.Vector, r *rng.Rand, i int64) int64 {
	return placeUnder(v, r, a.level(i))
}

// AdaptiveNoSlack is the ablation discussed in Section 2 of the paper:
// replacing the adaptive threshold i/n + 1 by i/n makes the allocation
// of each batch of n consecutive balls a coupon-collector process, so
// the overall allocation time degrades to Θ(m·log n). It demonstrates
// that the "+1" slack is what buys the O(m) running time.
type AdaptiveNoSlack struct {
	n int64
}

// NewAdaptiveNoSlack returns the slack-free adaptive ablation.
func NewAdaptiveNoSlack() *AdaptiveNoSlack { return &AdaptiveNoSlack{} }

// Name implements Protocol.
func (a *AdaptiveNoSlack) Name() string { return "adaptive-noslack" }

// Reset implements Protocol.
func (a *AdaptiveNoSlack) Reset(n int, _ int64) { a.n = int64(n) }

// Rule implements Ruled: its test is stricter than the adaptive Rule's,
// so it defends that bound.
func (a *AdaptiveNoSlack) Rule() Rule { return AdaptiveRule() }

// level is ball i's acceptance level: load < i/n is
// load < ⌊(i−1)/n⌋ + 1 in integers. The i−1 balls placed so far
// average below i/n, so a bin below the level always exists and the
// run terminates, under removals too.
func (a *AdaptiveNoSlack) level(i int64) int { return int((i-1)/a.n) + 1 }

// Place implements Protocol.
func (a *AdaptiveNoSlack) Place(v *loadvec.Vector, r *rng.Rand, i int64) int64 {
	return placeUnder(v, r, a.level(i))
}
