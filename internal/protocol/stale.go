package protocol

import (
	"fmt"

	"repro/internal/loadvec"
	"repro/internal/rng"
)

// This file studies the robustness of the adaptive protocol's one
// informational assumption — "each ball must know how many balls have
// been already placed" (Section 1.1) — under two relaxed counter
// models. The punchline, verified exactly by the tests:
//
//   - Synchronizing the counter once per stage (every n balls, at the
//     stage start) reproduces the adaptive protocol DECISION FOR
//     DECISION: the integer acceptance bound ⌊i/n + 1⌋ only changes at
//     stage boundaries, so intra-stage staleness is invisible.
//   - A counter lagging a full stage (L = n) turns the acceptance rule
//     n·(load−1) < i−n into n·load < i — which is precisely the
//     AdaptiveNoSlack ablation, i.e. Θ(m·log n) coupon-collector
//     behaviour. The "+1" slack in the threshold is exactly one stage
//     of counter slack.
//
// In other words: adaptive tolerates any counter error below n balls
// at (almost) no cost, and the cost cliff at one full stage is the
// paper's own no-slack remark in disguise.

// StaleAdaptive is the adaptive protocol with a counter that is
// synchronized every SyncEvery balls (at balls 1, B+1, 2B+1, ...); in
// between, the last synchronized value is used in the acceptance
// bound. The stale count never exceeds the true count, so acceptance
// is never easier and the ⌈m/n⌉+1 maximum-load guarantee is
// preserved. SyncEvery must be at most n (checked at Reset): beyond
// that the stale bound can deadlock.
type StaleAdaptive struct {
	n         int64
	syncEvery int64
}

// NewStaleAdaptive returns the stale-counter adaptive protocol.
// It panics if syncEvery < 1.
func NewStaleAdaptive(syncEvery int64) *StaleAdaptive {
	if syncEvery < 1 {
		panic("protocol: NewStaleAdaptive with syncEvery < 1")
	}
	return &StaleAdaptive{syncEvery: syncEvery}
}

// Name implements Protocol.
func (s *StaleAdaptive) Name() string {
	return fmt.Sprintf("adaptive-stale[%d]", s.syncEvery)
}

// Reset implements Protocol. It panics if syncEvery > n.
func (s *StaleAdaptive) Reset(n int, _ int64) {
	if s.syncEvery > int64(n) {
		panic(fmt.Sprintf("protocol: stale adaptive needs syncEvery <= n (%d > %d)",
			s.syncEvery, n))
	}
	s.n = int64(n)
}

// Rule implements Ruled: the stale count never exceeds the true one,
// so the protocol defends the adaptive Rule's bound.
func (s *StaleAdaptive) Rule() Rule { return AdaptiveRule() }

// level is ball i's acceptance level: the adaptive level ⌈c/n⌉ + 1 of
// the stale count c, the last synchronization point ((i-1)/B)*B + 1 =
// i − (i−1) mod B.
func (s *StaleAdaptive) level(i int64) int { return int(CeilDiv(i-(i-1)%s.syncEvery, s.n)) + 1 }

// Place implements Protocol. It has no fast path: one would change the
// fast engine's stream for this protocol.
func (s *StaleAdaptive) Place(v *loadvec.Vector, r *rng.Rand, i int64) int64 {
	return placeUnder(v, r, s.level(i))
}

// LaggedAdaptive is the adaptive protocol with a counter that runs a
// fixed Lag balls behind the truth: ball i uses max(1, i−Lag) in its
// acceptance bound. Lag = 0 is plain adaptive; Lag = n is (from ball
// n+1 onward) exactly the AdaptiveNoSlack ablation. Lag must be at
// most n (checked at Reset): two stages of lag deadlocks
// deterministically once every bin reaches the stale bound.
type LaggedAdaptive struct {
	n   int64
	lag int64
}

// NewLaggedAdaptive returns the lagged-counter adaptive protocol.
// It panics if lag < 0.
func NewLaggedAdaptive(lag int64) *LaggedAdaptive {
	if lag < 0 {
		panic("protocol: NewLaggedAdaptive with lag < 0")
	}
	return &LaggedAdaptive{lag: lag}
}

// Name implements Protocol.
func (l *LaggedAdaptive) Name() string {
	return fmt.Sprintf("adaptive-lag[%d]", l.lag)
}

// Reset implements Protocol. It panics if lag > n.
func (l *LaggedAdaptive) Reset(n int, _ int64) {
	if l.lag > int64(n) {
		panic(fmt.Sprintf("protocol: lagged adaptive needs lag <= n (%d > %d)",
			l.lag, n))
	}
	l.n = int64(n)
}

// Rule implements Ruled: the lagged count never exceeds the true
// one, so the protocol defends the adaptive Rule's bound.
func (l *LaggedAdaptive) Rule() Rule { return AdaptiveRule() }

// level is ball i's acceptance level: the adaptive level ⌈c/n⌉ + 1 of
// the lagged count c = max(1, i−Lag).
func (l *LaggedAdaptive) level(i int64) int { return int(CeilDiv(max(1, i-l.lag), l.n)) + 1 }

// Place implements Protocol. Like StaleAdaptive it has no fast path.
func (l *LaggedAdaptive) Place(v *loadvec.Vector, r *rng.Rand, i int64) int64 {
	return placeUnder(v, r, l.level(i))
}
