package ballsbins

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/loadvec"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/stats"
)

// Spec selects an allocation protocol. Construct with Adaptive,
// Threshold, Greedy, etc. The zero value is invalid.
type Spec struct {
	factory protocol.Factory
}

// Name returns the protocol's identifier, e.g. "adaptive" or
// "greedy[2]".
func (s Spec) Name() string {
	s.mustBeValid()
	return s.factory().Name()
}

func (s Spec) mustBeValid() {
	if s.factory == nil {
		panic("ballsbins: zero Spec; use a constructor such as Adaptive()")
	}
}

// newSpec wraps a factory in a Spec, invoking it once eagerly so that
// invalid parameters panic at construction time (in the constructor
// the user called) rather than at first use inside a worker.
func newSpec(f protocol.Factory) Spec {
	f()
	return Spec{factory: f}
}

// Engine selects the placement implementation.
//
// EngineFast (the default) makes each ball's placement O(1) amortized:
// the number of rejected samples is drawn from the Geometric
// distribution implied by the load histogram (bit-exact Bernoulli
// counting when acceptance is likely, float64 inversion — error
// O(2⁻⁵³) — when it is rare) and the accepted bin from the bucket of
// acceptable bins, so every reported statistic keeps the same
// distribution as the literal rejection loop.
// EngineNaive runs that literal loop — one RNG draw and one load probe
// per sample — and serves as the reference oracle.
//
// The engines consume randomness differently, so the same seed gives
// different (identically distributed) runs on each engine.
type Engine = protocol.Engine

const (
	// EngineFast is the histogram-mode O(1) placement path (default).
	EngineFast = protocol.EngineFast
	// EngineNaive is the literal rejection-sampling loop.
	EngineNaive = protocol.EngineNaive
)

// Adaptive returns the paper's adaptive protocol: ball i accepts a bin
// with load < i/n + 1. Max load ⌈m/n⌉+1, O(m) expected time, smooth
// final distribution; m need not be known in advance.
func Adaptive() Spec {
	return newSpec(func() protocol.Protocol { return protocol.NewAdaptive() })
}

// Threshold returns the Czumaj–Stemann protocol: every ball accepts a
// bin with load < m/n + 1. Max load ⌈m/n⌉+1 and allocation time
// m + O(m^{3/4}·n^{1/4}), but a rough final distribution.
func Threshold() Spec {
	return newSpec(func() protocol.Protocol { return protocol.NewThreshold() })
}

// AdaptiveNoSlack returns the ablation with acceptance bound i/n
// (without the +1): Θ(m·log n) allocation time.
func AdaptiveNoSlack() Spec {
	return newSpec(func() protocol.Protocol { return protocol.NewAdaptiveNoSlack() })
}

// SingleChoice returns the classical one-random-bin process.
func SingleChoice() Spec {
	return newSpec(func() protocol.Protocol { return protocol.NewSingleChoice() })
}

// Greedy returns greedy[d]: best of d random bins (Azar et al.).
// It panics if d < 1.
func Greedy(d int) Spec {
	return newSpec(func() protocol.Protocol { return protocol.NewGreedy(d) })
}

// Left returns left[d]: one bin from each of d groups with
// Always-Go-Left tie breaking (Vöcking). It panics if d < 2.
func Left(d int) Spec {
	return newSpec(func() protocol.Protocol { return protocol.NewLeft(d) })
}

// Memory returns the (d,k)-memory protocol of Mitzenmacher, Prabhakar
// and Shah. It panics if d < 1 or k < 0.
func Memory(d, k int) Spec {
	return newSpec(func() protocol.Protocol { return protocol.NewMemory(d, k) })
}

// FixedThreshold returns the protocol accepting bins with load
// strictly below bound. It panics if bound < 1.
func FixedThreshold(bound int) Spec {
	return newSpec(func() protocol.Protocol { return protocol.NewFixedThreshold(bound) })
}

// OnePlusBeta returns the (1+β)-choice process of Peres, Talwar and
// Wieder: each ball uses two choices with probability beta, one
// otherwise. Gap Θ(log n/β) independent of m. It panics unless
// 0 <= beta <= 1.
func OnePlusBeta(beta float64) Spec {
	return newSpec(func() protocol.Protocol { return protocol.NewOnePlusBeta(beta) })
}

// StaleAdaptive returns the adaptive protocol with a ball counter that
// is synchronized only every syncEvery balls (must be <= n at run
// time). Stage-aligned synchronization (syncEvery = n) reproduces
// Adaptive exactly; see the protocol documentation. It panics if
// syncEvery < 1.
func StaleAdaptive(syncEvery int64) Spec {
	return newSpec(func() protocol.Protocol { return protocol.NewStaleAdaptive(syncEvery) })
}

// LaggedAdaptive returns the adaptive protocol with a counter running
// lag balls behind the truth (must be <= n at run time). lag = n is
// exactly the AdaptiveNoSlack ablation from ball n+1 onward. It panics
// if lag < 0.
func LaggedAdaptive(lag int64) Spec {
	return newSpec(func() protocol.Protocol { return protocol.NewLaggedAdaptive(lag) })
}

// BoundedRetry returns the threshold protocol with at most `retries`
// samples per ball, falling back to the least loaded sample — the
// per-ball-time vs max-load tradeoff family of Czumaj–Stemann.
// retries = 1 is single-choice; retries → ∞ recovers Threshold. It
// panics if retries < 1.
func BoundedRetry(retries int) Spec {
	return newSpec(func() protocol.Protocol { return protocol.NewBoundedRetry(retries) })
}

// Result summarizes one allocation run.
type Result struct {
	// Samples is the allocation time: the total number of random bin
	// choices (the quantity the paper's Figure 3(a) plots).
	Samples int64
	// SamplesPerBall is Samples/m.
	SamplesPerBall float64
	// MaxLoad, MinLoad and Gap describe the final load distribution.
	MaxLoad, MinLoad, Gap int
	// Psi is the quadratic potential Σ(ℓᵢ−m/n)² (Figure 3(b)).
	Psi float64
	// Phi is the exponential potential with the paper's ε = 1/200.
	Phi float64
}

// Snapshot is a mid-run observation delivered by WithSnapshots.
type Snapshot struct {
	Ball    int64 // 1-based index of the ball just placed
	Samples int64 // cumulative random choices
	MaxLoad int
	Gap     int
	Psi     float64
}

type options struct {
	seed     uint64
	engine   Engine
	horizon  int64
	snapEach int64
	snapFn   func(Snapshot)
}

// Option configures Run, Replicates and New.
type Option func(*options)

// WithSeed fixes the master random seed (default 1). Identical seeds
// reproduce runs exactly.
func WithSeed(seed uint64) Option {
	return func(o *options) { o.seed = seed }
}

// WithEngine selects the placement engine (default EngineFast). Use
// EngineNaive to run the literal rejection-sampling loop, e.g. as the
// reference when validating the fast path.
func WithEngine(e Engine) Option {
	return func(o *options) { o.engine = e }
}

// WithHorizon declares the expected total number of balls to an
// Allocator constructed with New. Protocols whose acceptance rule
// depends on m — Threshold and BoundedRetry, whose bound is m/n + 1 —
// require it; the online protocols ignore it. Placing more than the
// horizon with such a bounded rule eventually leaves no acceptable
// bin: the fast engine panics at that point, while the naive engine's
// literal rejection loop never returns — stay within the declared
// horizon. Run and Replicates ignore this option (they know m). It
// panics if m < 0.
func WithHorizon(m int64) Option {
	if m < 0 {
		panic("ballsbins: WithHorizon with m < 0")
	}
	return func(o *options) { o.horizon = m }
}

// WithSnapshots invokes fn after every `every` balls (and after the
// first ball) with a summary of the run so far. It panics if every <=
// 0 or fn is nil. Replicates ignores snapshots; New rejects this
// option (poll the Allocator's Snapshot method instead).
func WithSnapshots(every int64, fn func(Snapshot)) Option {
	if every <= 0 {
		panic("ballsbins: WithSnapshots with every <= 0")
	}
	if fn == nil {
		panic("ballsbins: WithSnapshots with nil callback")
	}
	return func(o *options) { o.snapEach = every; o.snapFn = fn }
}

func buildOptions(opts []Option) options {
	o := options{seed: 1}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// newSession builds the protocol.Session behind New and Run with one
// call to the spec's factory, reset for a run of up to horizon balls.
// Run always knows its horizon, m; an Allocator knows it only when
// WithHorizon declares it, and a spec whose acceptance rule needs it
// (Threshold, BoundedRetry) refuses to start without.
func newSession(s Spec, n int, horizon int64, known bool, o options) *protocol.Session {
	p := s.factory()
	if _, ok := p.(protocol.HorizonRequirer); ok && !known {
		panic(fmt.Sprintf(
			"ballsbins: %s needs the total ball count; construct with WithHorizon(m)",
			p.Name()))
	}
	return protocol.NewSession(p, n, horizon, rng.New(o.seed), o.engine)
}

// reading is the one reader of the load histogram: the sessions of
// disjoint sets of bins, read as one system — one session for Run and
// an Allocator, every shard's for a ShardedAllocator. Histograms of
// disjoint bins merge exactly (counters add, min and max fold, level
// counts add level by level), so max, min, gap, Ψ and Φ equal bit for
// bit those of one load vector over the union. Nothing is
// materialized. The caller holds every session's lock for the whole
// read, Φ included.
type reading []*protocol.Session

// totals is a reading's Result but for Phi, with the counts behind it.
type totals struct {
	Result
	n             int
	balls, placed int64
}

// totals sums the counters and folds the extremes. Ψ = Σℓ² − t²/n
// comes from the summed integers, and SamplesPerBall divides by the
// cumulative placements, so it remains the paper's allocation time per
// ball under churn.
func (r reading) totals() totals {
	t := totals{Result: Result{MinLoad: math.MaxInt}}
	var sumSq int64
	for _, s := range r {
		t.n += s.N()
		t.balls += s.Balls()
		t.placed += s.Placed()
		t.Samples += s.Samples()
		sumSq += s.SumSquares()
		t.MinLoad = min(t.MinLoad, s.MinLoad())
		t.MaxLoad = max(t.MaxLoad, s.MaxLoad())
	}
	b := float64(t.balls)
	t.Gap = t.MaxLoad - t.MinLoad
	t.Psi = float64(sumSq) - b*b/float64(t.n)
	if t.placed > 0 {
		t.SamplesPerBall = float64(t.Samples) / float64(t.placed)
	}
	return t
}

// result reads the Result. Φ, with the paper's ε, sums the merged
// level counts in ascending level order by the formula of
// loadvec.Vector.ExponentialPotential.
func (r reading) result() Result {
	t := r.totals()
	avg := float64(t.balls) / float64(t.n)
	log1pe := math.Log1p(loadvec.DefaultEpsilon)
	for l := t.MinLoad; l <= t.MaxLoad; l++ {
		var c int64
		for _, s := range r {
			c += s.LevelCount(l)
		}
		if c != 0 {
			t.Phi += float64(c) * math.Exp((avg+2-float64(l))*log1pe)
		}
	}
	return t.Result
}

// snapshot reads the Snapshot; Ball is the cumulative number of
// placements.
func (r reading) snapshot() Snapshot {
	t := r.totals()
	return Snapshot{Ball: t.placed, Samples: t.Samples, MaxLoad: t.MaxLoad, Gap: t.Gap, Psi: t.Psi}
}

// Run places m balls into n bins with the chosen protocol and returns
// the measured result. The fast engine is used unless WithEngine
// selects the naive loop. Every Result field depends on the load
// histogram alone, so Run reads it from the histogram: without
// WithSnapshots a fast-engine run stays histogram-only to the end and
// never builds the per-bin vector. It panics if n <= 0, m < 0, or s is
// the zero Spec.
func Run(s Spec, n int, m int64, opts ...Option) Result {
	s.mustBeValid()
	o := buildOptions(opts)
	sess := newSession(s, n, m, true, o)
	if o.snapFn == nil {
		sess.StepBatch(m)
		return reading{sess}.result()
	}
	for ball := int64(1); ball <= m; ball++ {
		sess.Step()
		if ball%o.snapEach == 0 || ball == 1 {
			o.snapFn(reading{sess}.snapshot())
		}
	}
	return reading{sess}.result()
}

// Stat is a per-metric summary across replicates.
type Stat struct {
	Mean, Std, Min, Max float64
	// CI95 is the half-width of the ~95% confidence interval of Mean.
	CI95 float64
}

func toStat(w stats.Welford) Stat {
	return Stat{Mean: w.Mean(), Std: w.Std(), Min: w.Min(), Max: w.Max(), CI95: w.CI95()}
}

// Summary aggregates a replicated experiment, one Stat per metric.
type Summary struct {
	Protocol string
	N        int
	M        int64
	Reps     int

	Time        Stat // allocation time (samples)
	TimePerBall Stat
	MaxLoad     Stat
	Gap         Stat
	Psi         Stat
	Phi         Stat
}

// Replicates runs `reps` independent replicates (the paper uses 100)
// through Run across a worker pool and returns aggregate statistics.
// Replicate r runs on stream r of the master seed and the results are
// aggregated in replicate order, so the Summary is reproducible and
// independent of parallelism. The context cancels outstanding work; a
// replicate that panics comes back as an error naming it. It panics if
// n <= 0, m < 0, reps <= 0, or s is the zero Spec.
func Replicates(ctx context.Context, s Spec, n int, m int64, reps int, opts ...Option) (Summary, error) {
	s.mustBeValid()
	if n <= 0 || m < 0 || reps <= 0 {
		panic(fmt.Sprintf("ballsbins: Replicates with n = %d, m = %d, reps = %d", n, m, reps))
	}
	o := buildOptions(opts)
	results := make([]Result, reps)
	errs := make([]error, reps)
	next := make(chan int)
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), reps) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := range next {
				results[rep], errs[rep] = replicate(s, n, m, o, rep)
			}
		}()
	}
feed:
	for rep := range reps {
		select {
		case next <- rep:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return Summary{}, err
	}
	for _, err := range errs {
		if err != nil {
			return Summary{}, err
		}
	}

	var samples, perBall, maxLoad, gap, psi, phi stats.Welford
	for _, r := range results {
		samples.Add(float64(r.Samples))
		perBall.Add(r.SamplesPerBall)
		maxLoad.Add(float64(r.MaxLoad))
		gap.Add(float64(r.Gap))
		psi.Add(r.Psi)
		phi.Add(r.Phi)
	}
	return Summary{
		Protocol:    s.Name(),
		N:           n,
		M:           m,
		Reps:        reps,
		Time:        toStat(samples),
		TimePerBall: toStat(perBall),
		MaxLoad:     toStat(maxLoad),
		Gap:         toStat(gap),
		Psi:         toStat(psi),
		Phi:         toStat(phi),
	}, nil
}

// replicate runs replicate rep of a Replicates call on stream rep of
// the master seed, returning a panic inside the run as an error.
func replicate(s Spec, n int, m int64, o options, rep int) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("replicate %d panicked: %v", rep, r)
		}
	}()
	return Run(s, n, m, WithSeed(rng.StreamSeed(o.seed, uint64(rep))), WithEngine(o.engine)), nil
}

// MaxLoadGuarantee returns the deterministic bound ⌈m/n⌉+1 that the
// adaptive and threshold protocols never exceed.
func MaxLoadGuarantee(n int, m int64) int64 {
	return protocol.MaxLoadBound(n, m)
}
