// Package batched implements the b-batched arrival model: balls
// arrive in batches of size b, and every ball in a batch makes its
// decisions against the load vector as it was at the START of the
// batch. This models parallel dispatchers whose load information is
// refreshed only periodically — the bridge between the paper's
// sequential protocols (b = 1) and the fully parallel single-round
// model (b = m), studied for greedy[d] by Berenbrink et al.
//
// Two families are provided, both as protocol.Protocol implementations
// so they run through the same allocation code path (protocol.Session)
// as every sequential protocol and can be driven incrementally by the
// public Allocator:
//
//   - Greedy: greedy[d] decisions against the stale snapshot. With
//     b = 1 it coincides exactly with the sequential greedy[d]
//     (verified by tests); as b grows the gap degrades towards
//     single-choice behaviour, since intra-batch placements are
//     invisible.
//   - Adaptive: the paper's adaptive rule with both the load vector
//     and the ball counter frozen at the batch start. The ⌈m/n⌉+1
//     guarantee degrades gracefully: a bin that looks acceptable can
//     receive several balls in one batch, so the bound weakens by the
//     number of accepting balls that can pile on — the experiments
//     quantify the actual degradation, which is far milder than the
//     worst case.
package batched

import (
	"fmt"

	"repro/internal/loadvec"
	"repro/internal/protocol"
	"repro/internal/rng"
)

// Outcome summarizes a batched run.
type Outcome struct {
	Vector  *loadvec.Vector
	Samples int64
	Batches int
}

// Greedy is greedy[d] against a load snapshot refreshed every b balls.
// It implements protocol.Protocol; the refresh counts the protocol's
// own placements (not the session ball index, which under Allocator
// churn tracks the live count and could otherwise stall the refresh
// forever), so every b-th placement starts a fresh batch.
type Greedy struct {
	b        int64
	d        int
	placed   int64
	snapshot []int32
}

// NewGreedy returns batched greedy[d] with batch size b. It panics if
// b < 1 or d < 1.
func NewGreedy(b int64, d int) *Greedy {
	if b < 1 {
		panic("batched: batch size must be at least 1")
	}
	if d < 1 {
		panic("batched: NewGreedy with d < 1")
	}
	return &Greedy{b: b, d: d}
}

// Name implements protocol.Protocol.
func (g *Greedy) Name() string { return fmt.Sprintf("batched-greedy[%d,b=%d]", g.d, g.b) }

// Reset implements protocol.Protocol.
func (g *Greedy) Reset(n int, _ int64) {
	g.snapshot = make([]int32, n)
	g.placed = 0
}

// Place implements protocol.Protocol, using exactly d random choices
// evaluated against the batch-start snapshot.
func (g *Greedy) Place(v *loadvec.Vector, r *rng.Rand, _ int64) int64 {
	if g.placed%g.b == 0 {
		refresh(g.snapshot, v)
	}
	g.placed++
	n := v.N()
	best := r.Intn(n)
	bestLoad := g.snapshot[best]
	for j := 1; j < g.d; j++ {
		c := r.Intn(n)
		if g.snapshot[c] < bestLoad {
			best, bestLoad = c, g.snapshot[c]
		}
	}
	v.Increment(best)
	return int64(g.d)
}

// Adaptive is the paper's adaptive rule with the load vector and the
// ball counter both frozen at the batch start. Acceptance is always
// possible within a batch: the snapshot is a legal adaptive state, so
// at least one bin satisfies the stale bound. It implements
// protocol.Protocol; Reset panics if b > n (beyond one stage the stale
// counter rule can reject every bin, exactly as for the lagged
// sequential variant).
type Adaptive struct {
	b        int64
	placed   int64
	known    int64 // ball counter as of the batch start
	snapshot []int32
}

// NewAdaptive returns the batched adaptive protocol with batch size b.
// It panics if b < 1.
func NewAdaptive(b int64) *Adaptive {
	if b < 1 {
		panic("batched: batch size must be at least 1")
	}
	return &Adaptive{b: b}
}

// Name implements protocol.Protocol.
func (a *Adaptive) Name() string { return fmt.Sprintf("batched-adaptive[b=%d]", a.b) }

// Reset implements protocol.Protocol. It panics if b > n.
func (a *Adaptive) Reset(n int, _ int64) {
	if a.b > int64(n) {
		panic(fmt.Sprintf("batched: adaptive needs b <= n (%d > %d)", a.b, n))
	}
	a.snapshot = make([]int32, n)
	a.placed = 0
	a.known = 0
}

// Place implements protocol.Protocol: resample until the batch-start
// snapshot shows a load below known/n + 1, refreshing both the
// snapshot and the frozen counter every b placements (placement count,
// not session ball index — see Greedy).
func (a *Adaptive) Place(v *loadvec.Vector, r *rng.Rand, i int64) int64 {
	if a.placed%a.b == 0 {
		refresh(a.snapshot, v)
		a.known = i
	}
	a.placed++
	n := v.N()
	var samples int64
	for {
		j := r.Intn(n)
		samples++
		if protocol.Accepts(n, int64(a.snapshot[j]), a.known) {
			v.Increment(j)
			return samples
		}
	}
}

// refresh copies the live loads into the snapshot.
func refresh(snapshot []int32, v *loadvec.Vector) {
	for i := range snapshot {
		snapshot[i] = int32(v.Load(i))
	}
}

// RunGreedy places m balls into n bins in batches of size b, each ball
// choosing the least loaded of d bins according to the batch-start
// snapshot. It is a driver over protocol.Run. It panics if n <= 0,
// m < 0, b < 1, or d < 1.
func RunGreedy(n int, m int64, b int64, d int, r *rng.Rand) Outcome {
	p := NewGreedy(b, d)
	validate(n, m)
	out := protocol.Run(p, n, m, r)
	return Outcome{Vector: out.Vector, Samples: out.Samples, Batches: batches(m, b)}
}

// RunAdaptive places m balls in batches of size b using the adaptive
// acceptance rule evaluated against the batch-start snapshot. It is a
// driver over protocol.Run. It panics if n <= 0, m < 0, or b < 1;
// b must be at most n.
func RunAdaptive(n int, m int64, b int64, r *rng.Rand) Outcome {
	p := NewAdaptive(b)
	validate(n, m)
	out := protocol.Run(p, n, m, r)
	return Outcome{Vector: out.Vector, Samples: out.Samples, Batches: batches(m, b)}
}

// batches returns ⌈m/b⌉ — the number of snapshot refreshes a run of m
// balls performs.
func batches(m, b int64) int {
	if m <= 0 {
		return 0
	}
	return int(protocol.CeilDiv(m, b))
}

func validate(n int, m int64) {
	if n <= 0 {
		panic("batched: n must be positive")
	}
	if m < 0 {
		panic("batched: m must be non-negative")
	}
}
