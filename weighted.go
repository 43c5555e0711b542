package ballsbins

import (
	"repro/internal/batched"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/weighted"
)

// WeightSampler draws ball weights for RunWeighted. Construct with
// ConstWeights, ExpWeights, UniformWeights or ParetoWeights.
type WeightSampler = weighted.Sampler

// ConstWeights yields the constant weight w (> 0).
func ConstWeights(w float64) WeightSampler { return weighted.ConstWeights(w) }

// ExpWeights yields exponential weights with the given mean (> 0).
func ExpWeights(mean float64) WeightSampler { return weighted.ExpWeights(mean) }

// UniformWeights yields weights uniform on [lo, hi], 0 < lo <= hi.
func UniformWeights(lo, hi float64) WeightSampler { return weighted.UniformWeights(lo, hi) }

// ParetoWeights yields bounded-Pareto (heavy-tailed) weights with
// shape alpha on [lo, hi].
func ParetoWeights(alpha, lo, hi float64) WeightSampler {
	return weighted.ParetoWeights(alpha, lo, hi)
}

// WeightedSpec selects a weighted allocation protocol.
type WeightedSpec struct {
	factory func() weighted.Protocol
}

// Name returns the protocol identifier.
func (s WeightedSpec) Name() string {
	if s.factory == nil {
		panic("ballsbins: zero WeightedSpec; use a constructor")
	}
	return s.factory().Name()
}

// newWeightedSpec wraps a factory in a WeightedSpec, invoking it once
// eagerly so that invalid parameters panic at construction time (in
// the constructor the user called) rather than at first use inside a
// worker — the exact mirror of newSpec for the unweighted protocols.
func newWeightedSpec(f func() weighted.Protocol) WeightedSpec {
	f()
	return WeightedSpec{factory: f}
}

// WeightedAdaptive returns the weighted generalization of the paper's
// adaptive protocol: accept bin j iff load(j) < Wᵢ/n + wmax, where Wᵢ
// is the weight placed so far.
func WeightedAdaptive() WeightedSpec {
	return newWeightedSpec(func() weighted.Protocol { return weighted.NewAdaptive() })
}

// WeightedThreshold returns the weighted Czumaj–Stemann rule:
// accept bin j iff load(j) < W/n + wmax, with the final total weight W
// known up front.
func WeightedThreshold() WeightedSpec {
	return newWeightedSpec(func() weighted.Protocol { return weighted.NewThreshold() })
}

// WeightedGreedy returns weighted greedy[d]. It panics if d < 1.
func WeightedGreedy(d int) WeightedSpec {
	return newWeightedSpec(func() weighted.Protocol { return weighted.NewGreedy(d) })
}

// WeightedSingleChoice returns the weighted one-random-bin process.
func WeightedSingleChoice() WeightedSpec {
	return newWeightedSpec(func() weighted.Protocol { return weighted.NewSingleChoice() })
}

// WeightedResult summarizes one weighted allocation run.
type WeightedResult struct {
	// Samples is the allocation time (random bin choices).
	Samples        int64
	SamplesPerBall float64
	// TotalWeight and MaxWeight describe the drawn weight sequence.
	TotalWeight, MaxWeight float64
	// MaxLoad, MinLoad, Gap and Psi describe the final weighted loads.
	MaxLoad, MinLoad, Gap float64
	Psi                   float64
}

// RunWeighted draws m ball weights from the sampler and places them
// into n bins with the chosen protocol. The weight stream and the
// placement stream derive independently from the seed, so different
// protocols see identical weight sequences under the same seed.
func RunWeighted(s WeightedSpec, n int, m int64, ws WeightSampler, opts ...Option) WeightedResult {
	if s.factory == nil {
		panic("ballsbins: zero WeightedSpec; use a constructor")
	}
	if ws == nil {
		panic("ballsbins: RunWeighted with nil sampler")
	}
	o := buildOptions(opts)
	base := rng.New(o.seed)
	weightsRand := base.Stream(1)
	placeRand := base.Stream(2)
	weights := weighted.GenWeights(m, ws, weightsRand)
	out := weighted.Run(s.factory(), n, weights, placeRand)
	res := WeightedResult{
		Samples:     out.Samples,
		TotalWeight: out.TotalWeight,
		MaxWeight:   out.MaxWeight,
		MaxLoad:     out.Vector.MaxLoad(),
		MinLoad:     out.Vector.MinLoad(),
		Gap:         out.Vector.Gap(),
		Psi:         out.Vector.QuadraticPotential(),
	}
	if m > 0 {
		res.SamplesPerBall = float64(out.Samples) / float64(m)
	}
	return res
}

// BatchedGreedy returns the b-batched greedy[d] protocol as a Spec:
// every ball picks the least loaded of d bins according to the load
// vector as of its batch's start (stale within a batch). batch = 1 is
// exactly Greedy(d). Being a Spec, it runs everywhere the sequential
// protocols do — Run, Replicates, and the incremental Allocator. It
// panics if batch < 1 or d < 1.
func BatchedGreedy(batch int64, d int) Spec {
	return newSpec(func() protocol.Protocol { return batched.NewGreedy(batch, d) })
}

// BatchedAdaptive returns the b-batched adaptive protocol as a Spec:
// the paper's acceptance rule with loads and ball counter frozen at
// each batch start. batch must be at most n at run time; batch = 1 is
// exactly Adaptive(). It panics if batch < 1.
func BatchedAdaptive(batch int64) Spec {
	return newSpec(func() protocol.Protocol { return batched.NewAdaptive(batch) })
}

// BatchedResult summarizes a batched-arrival run (see RunBatchedGreedy
// and RunBatchedAdaptive).
type BatchedResult struct {
	Samples int64
	Batches int
	MaxLoad int
	Gap     int
	Psi     float64
}

// RunBatchedGreedy places m balls in batches of size batch; every ball
// picks the least loaded of d bins according to the load vector as of
// the batch start (stale within a batch). batch = 1 is exactly
// Greedy(d). It is Run(BatchedGreedy(batch, d), n, m, opts...) with
// the batch count ⌈m/batch⌉ added.
func RunBatchedGreedy(n int, m, batch int64, d int, opts ...Option) BatchedResult {
	return batchedResult(Run(BatchedGreedy(batch, d), n, m, opts...), m, batch)
}

// RunBatchedAdaptive places m balls in batches of size batch with the
// adaptive acceptance rule frozen at each batch start. batch must be
// at most n; batch = 1 is exactly Adaptive(). It is
// Run(BatchedAdaptive(batch), n, m, opts...) with the batch count
// ⌈m/batch⌉ added.
func RunBatchedAdaptive(n int, m, batch int64, opts ...Option) BatchedResult {
	return batchedResult(Run(BatchedAdaptive(batch), n, m, opts...), m, batch)
}

func batchedResult(r Result, m, batch int64) BatchedResult {
	return BatchedResult{
		Samples: r.Samples,
		Batches: int(protocol.CeilDiv(m, batch)),
		MaxLoad: r.MaxLoad,
		Gap:     r.Gap,
		Psi:     r.Psi,
	}
}
