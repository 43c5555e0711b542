// Package protocol implements the sequential balls-into-bins
// allocation protocols studied by the paper and its Table 1 baselines:
//
//   - Adaptive — the paper's new protocol (Figure 1): ball i samples
//     bins u.a.r. until one has load < i/n + 1.
//   - Threshold — Czumaj–Stemann (Figure 2): ball i samples bins u.a.r.
//     until one has load < m/n + 1.
//   - SingleChoice — the classical one-random-bin process.
//   - Greedy — greedy[d] of Azar et al.: best of d random bins.
//   - Left — left[d] of Vöcking: one bin from each of d groups,
//     ties broken towards the leftmost group.
//   - Memory — the (d,k)-memory process of Mitzenmacher, Prabhakar and
//     Shah: d fresh random bins plus the k best bins remembered from
//     the previous ball.
//   - AdaptiveNoSlack — the ablation the paper remarks on in Section 2:
//     replacing the adaptive threshold i/n + 1 by i/n turns each stage
//     into a coupon-collector process and the total allocation time
//     into Θ(m log n).
//   - FixedThreshold — accept below an arbitrary constant bound
//     (building block for tests and custom experiments).
//
// Allocation time follows the paper's accounting: the number of random
// bin choices, not wall-clock time. Every Place reports exactly how
// many choices it consumed.
//
// Each rejection-sampling protocol additionally implements FastPlacer,
// an O(1)-per-ball placement path that draws the rejection count from
// the exact Geometric sampler instead of looping (see fast.go). Run
// always uses the naive loop; RunEngine selects between the two.
package protocol

import (
	"fmt"

	"repro/internal/loadvec"
	"repro/internal/rng"
)

// Protocol places balls one at a time into a load vector. A Protocol
// instance carries per-run state (for example the memory protocol's
// cache) and must be Reset before each run; instances are not safe for
// concurrent use — create one per goroutine via a Factory.
type Protocol interface {
	// Name returns a short identifier such as "adaptive" or "greedy[2]".
	Name() string

	// Reset prepares the protocol for a fresh run of m balls into n
	// bins. Protocols that do not depend on n or m may ignore them.
	Reset(n int, m int64)

	// Place allocates ball number i (1-based, 1 ≤ i ≤ m) into v and
	// returns the number of random bin choices consumed.
	Place(v *loadvec.Vector, r *rng.Rand, i int64) int64
}

// Factory creates fresh protocol instances, one per concurrent run.
type Factory func() Protocol

// Outcome summarizes a completed run.
type Outcome struct {
	// Vector is the final load distribution.
	Vector *loadvec.Vector
	// Samples is the paper's "allocation time": the total number of
	// random bin choices used to place all m balls.
	Samples int64
}

// Run places m balls into n bins using p and the random stream r,
// always via the naive Place loop — it is the reference oracle the
// fast engine is validated against. Use RunEngine to select the
// engine. It panics if n <= 0 or m < 0.
func Run(p Protocol, n int, m int64, r *rng.Rand) Outcome {
	return RunWithObserver(p, n, m, r, nil)
}

// Observer is invoked after each ball is placed, with the 1-based ball
// index, the samples that ball consumed, and the current load vector.
// The observer must not modify the vector.
type Observer func(ball int64, samples int64, v *loadvec.Vector)

// RunWithObserver is Run with a per-ball callback (nil behaves as Run).
func RunWithObserver(p Protocol, n int, m int64, r *rng.Rand, obs Observer) Outcome {
	return RunWithObserverEngine(p, n, m, r, EngineNaive, obs)
}

// CeilDiv returns ⌈a/b⌉ for positive b.
func CeilDiv(a, b int64) int64 {
	if b <= 0 {
		panic("protocol: CeilDiv with b <= 0")
	}
	return (a + b - 1) / b
}

// MaxLoadBound returns the deterministic maximum-load guarantee
// ⌈m/n⌉ + 1 shared by the threshold and adaptive protocols.
func MaxLoadBound(n int, m int64) int64 {
	return CeilDiv(m, int64(n)) + 1
}

// errNoAcceptable is the panic of a rejection loop run with every bin
// at or above its acceptance level, under either engine.
const errNoAcceptable = "protocol: rejection sampling with no acceptable bin"

// placeUnder is the naive loop every rejection protocol shares: sample
// bins u.a.r. until one has load below the protocol's level T and
// place the ball there. When no bin is below T, where the loop would
// spin forever, it panics without drawing (v.CountBelow is O(1)).
func placeUnder(v *loadvec.Vector, r *rng.Rand, T int) int64 {
	if v.CountBelow(T) == 0 {
		panic(errNoAcceptable)
	}
	for samples := int64(1); ; samples++ {
		if j := r.Intn(v.N()); v.Load(j) < T {
			v.Increment(j)
			return samples
		}
	}
}

func formatD(base string, d int) string { return fmt.Sprintf("%s[%d]", base, d) }
