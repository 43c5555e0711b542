package ballsbins

import "repro/internal/protocol"

// Allocator is a long-lived, stateful allocator: the online
// counterpart of Run. Where Run places a fixed m balls and returns, an
// Allocator accepts arrivals one at a time (Place), in bulk
// (PlaceBatch), and departures (Remove), exposing the live load state
// after every operation — the setting where the paper's adaptive rule
// (accept load < i/n + 1 with i the live ball count) shines, since the
// total number of balls need not be known in advance.
//
// Construct with New from any Spec. The batch entry points Run,
// Replicates, RunBatchedGreedy/Adaptive and the dynamic simulator all
// drive the same incremental core (internal/protocol.Session), and
// Run, Metrics and Snapshot read it the same way, so an Allocator
// stepped ball-by-ball reproduces Run's Result exactly under the same
// seed and engine — for both engines: the fast engine's per-ball
// bucket-index path consumes the random stream identically to its
// fused histogram batch path and selects the same load levels, so
// every Result field agrees value for value (verified exhaustively in
// allocator_test.go). Under the fast engine an Allocator runs on the
// load histogram alone, as Run does, and builds the per-bin vector the
// first time a call needs bin identities (Place, Remove, Load, Loads).
//
// Removal support: every protocol accepts Remove mechanically. The
// adaptive family (Adaptive, AdaptiveNoSlack, StaleAdaptive,
// LaggedAdaptive) re-reads the live ball count, so its acceptance
// bound tracks departures — the natural online reading of the paper's
// rule. Threshold, FixedThreshold and BoundedRetry keep their fixed
// bound (removals only make acceptance easier). Greedy, Left, Memory,
// SingleChoice and OnePlusBeta are oblivious to the count entirely.
//
// An Allocator is not safe for concurrent use; see ShardedAllocator.
type Allocator struct {
	sess *protocol.Session
	n    int
}

// New returns an Allocator for n bins using the given protocol spec.
// Options: WithSeed, WithEngine, and WithHorizon (required for specs
// whose acceptance rule depends on the total ball count — Threshold
// and BoundedRetry). It panics if n <= 0, s is the zero Spec, a
// required horizon is missing, or WithSnapshots is passed.
func New(s Spec, n int, opts ...Option) *Allocator {
	s.mustBeValid()
	if n <= 0 {
		panic("ballsbins: New with n <= 0")
	}
	o := buildOptions(opts)
	if o.snapFn != nil {
		panic("ballsbins: WithSnapshots is a Run option; poll Allocator.Snapshot instead")
	}
	return &Allocator{sess: newSession(s, n, o.horizon, o.horizon > 0, o), n: n}
}

// Name returns the protocol's identifier.
func (a *Allocator) Name() string { return a.sess.Name() }

// N returns the number of bins.
func (a *Allocator) N() int { return a.n }

// Balls returns the number of balls currently in the system.
func (a *Allocator) Balls() int64 { return a.sess.Balls() }

// Placed returns the cumulative number of placements (not reduced by
// Remove).
func (a *Allocator) Placed() int64 { return a.sess.Placed() }

// Removed returns the cumulative number of departures.
func (a *Allocator) Removed() int64 { return a.sess.Removed() }

// Samples returns the cumulative allocation time: the total number of
// random bin choices consumed so far.
func (a *Allocator) Samples() int64 { return a.sess.Samples() }

// Place allocates one ball and returns the chosen bin together with
// the number of random bin choices it consumed. A spec with a fixed
// bound (Threshold, FixedThreshold) panics, under either engine, once
// every bin is at its acceptance level; protocol.Fits tells a caller
// beforehand whether a place can be taken.
func (a *Allocator) Place() (bin int, samples int64) { return a.sess.Step() }

// PlaceBatch allocates k balls without reporting their individual bins
// and returns the number of random bin choices consumed. Under the
// fast engine, a fresh Allocator for a histogram-capable spec runs
// this through the fused O(1)-per-ball histogram hot loop; once bin
// identities have been observed (Place, Remove, Loads, Load) it
// continues on the per-ball bucket-index fast path. k <= 0 is a no-op.
// A batch that does not fit below a Threshold or FixedThreshold bound
// panics, under either engine, before placing any of its balls.
func (a *Allocator) PlaceBatch(k int64) int64 { return a.sess.StepBatch(k) }

// Remove takes one ball out of bin i — a departure. It panics if bin i
// is empty.
func (a *Allocator) Remove(bin int) { a.sess.Remove(bin) }

// Load returns the current load of bin i.
func (a *Allocator) Load(bin int) int { return a.sess.Vector().Load(bin) }

// Loads returns a copy of the current per-bin loads.
func (a *Allocator) Loads() []int { return a.sess.Vector().Loads() }

// MaxLoad returns the current maximum load.
func (a *Allocator) MaxLoad() int { return a.sess.MaxLoad() }

// MinLoad returns the current minimum load.
func (a *Allocator) MinLoad() int { return a.sess.MinLoad() }

// Gap returns MaxLoad − MinLoad, the smoothness measure.
func (a *Allocator) Gap() int { return a.Snapshot().Gap }

// Psi returns the quadratic potential Ψ of the current load vector.
func (a *Allocator) Psi() float64 { return a.Snapshot().Psi }

// SumSquares returns Σℓᵢ², the raw second moment of the load vector.
// Together with Balls it lets several allocators' quadratic potentials
// be combined exactly: Ψ_total = Σ SumSquares − t²/n over the union.
func (a *Allocator) SumSquares() int64 { return a.sess.SumSquares() }

// LevelCount returns the number of bins currently at load l — the load
// histogram read O(1) at a time, for stats pipelines that want the
// level distribution without copying all n loads.
func (a *Allocator) LevelCount(l int) int64 { return a.sess.LevelCount(l) }

// Phi returns the exponential potential Φ with the paper's ε = 1/200.
func (a *Allocator) Phi() float64 { return a.Metrics().Phi }

// Metrics summarizes the session so far as a Result. SamplesPerBall
// divides by the cumulative placements, so it remains the paper's
// allocation-time-per-ball under churn.
func (a *Allocator) Metrics() Result { return reading{a.sess}.result() }

// Snapshot returns the mid-run observation Run's WithSnapshots would
// deliver at this point: Ball is the cumulative number of placements.
func (a *Allocator) Snapshot() Snapshot { return reading{a.sess}.snapshot() }
