package ballsbins

import (
	"repro/internal/dynamic"
	"repro/internal/parallel"
	"repro/internal/queueing"
	"repro/internal/realloc"
	"repro/internal/rng"
)

// ParallelResult summarizes a run of the round-synchronous parallel
// engine: the model of Adler et al. and Lenzen–Wattenhofer, where all
// balls are placed simultaneously over communication rounds and the
// figure of merit is rounds × messages × maximum load.
type ParallelResult struct {
	MaxLoad  int
	Rounds   int
	Messages int64 // requests + offers + commits
	Placed   int64
	Loads    []int
}

func toParallelResult(r parallel.Result) ParallelResult {
	return ParallelResult{
		MaxLoad:  r.MaxLoad,
		Rounds:   r.Rounds,
		Messages: r.Messages,
		Placed:   r.Placed,
		Loads:    r.Loads,
	}
}

// LenzenWattenhofer runs the symmetric adaptive parallel protocol of
// Lenzen and Wattenhofer for m = n balls: bin capacity 2, doubling
// contact schedule. It achieves maximum load 2 within log*(n)+O(1)
// rounds using O(n) messages.
func LenzenWattenhofer(n int, seed uint64) (ParallelResult, error) {
	r, err := parallel.Run(parallel.LenzenWattenhofer(n, seed))
	return toParallelResult(r), err
}

// AdlerCollision runs a collision-style parallel protocol after Adler
// et al.: d fixed candidate bins per ball, one grant per bin per
// round.
func AdlerCollision(n, d int, seed uint64) (ParallelResult, error) {
	r, err := parallel.Run(parallel.AdlerCollision(n, d, seed))
	return toParallelResult(r), err
}

// HeavyParallel runs the parallel analogue of the threshold protocol:
// m balls into n bins of capacity ⌈m/n⌉+1.
func HeavyParallel(n int, m int64, seed uint64) (ParallelResult, error) {
	r, err := parallel.Run(parallel.HeavyParallel(n, m, seed))
	return toParallelResult(r), err
}

// BalanceResult summarizes a self-balancing reallocation run
// (Czumaj–Riley–Scheideler style): greedy[2] initial placement, then
// local moves between each ball's two choices until a fixed point.
type BalanceResult struct {
	// MaxLoad is the final maximum load (⌈m/n⌉ or ⌈m/n⌉+1 w.h.p.).
	MaxLoad int
	// InitialMaxLoad is the maximum load right after greedy[2].
	InitialMaxLoad int
	// Moves counts reallocation steps — the cost the paper's protocols
	// avoid entirely.
	Moves int64
	// Passes is the number of sweeps until quiescence.
	Passes int
	// Psi is the final quadratic potential.
	Psi float64
	// Samples is the number of random bin choices (2m).
	Samples int64
}

// SelfBalance allocates m balls with two choices each and rebalances
// to a local optimum, reproducing the Table 1 baseline [6].
func SelfBalance(n int, m int64, seed uint64) BalanceResult {
	res := realloc.SelfBalance(n, m, rng.New(seed))
	return BalanceResult{
		MaxLoad:        res.Vector.MaxLoad(),
		InitialMaxLoad: res.InitialMaxLoad,
		Moves:          res.Moves,
		Passes:         res.Passes,
		Psi:            res.Vector.QuadraticPotential(),
		Samples:        res.InitialSamples,
	}
}

// DynamicConfig parameterizes a fully dynamic load-balancing
// simulation (arrivals, departures, optional pairwise balancing); see
// RunDynamic and the field documentation.
type DynamicConfig = dynamic.Config

// DynamicResult holds the steady-state statistics of a dynamic run.
type DynamicResult = dynamic.Result

// Arrival rules for DynamicConfig.
const (
	// ArriveSingle places arrivals into one uniform random bin.
	ArriveSingle = dynamic.ArriveSingle
	// ArriveGreedy2 places arrivals into the lesser loaded of two.
	ArriveGreedy2 = dynamic.ArriveGreedy2
	// ArriveAdaptive resamples until a bin is below average+1 — the
	// paper's acceptance rule in the dynamic setting.
	ArriveAdaptive = dynamic.ArriveAdaptive
)

// RunDynamic executes a time-stepped dynamic load-balancing simulation
// in the spirit of the paper's dynamic-reallocation related work [13]:
// Poisson arrivals per step, independent departures, and optional
// pairwise balancing between random partners. It panics on invalid
// configuration.
func RunDynamic(cfg DynamicConfig) DynamicResult { return dynamic.Run(cfg) }

// QueueConfig parameterizes a discrete-event dispatching simulation
// (the "supermarket model"); see RunQueue.
type QueueConfig = queueing.Config

// QueueResult holds sojourn-time statistics of a queueing run.
type QueueResult = queueing.Result

// Dispatch policies for QueueConfig.
const (
	// PickSingle sends each job to one uniform random server.
	PickSingle = queueing.PickSingle
	// PickGreedy2 sends each job to the shorter of two random queues.
	PickGreedy2 = queueing.PickGreedy2
	// PickAdaptive resamples until a queue is below jobs-in-system/n+1.
	PickAdaptive = queueing.PickAdaptive
)

// RunQueue executes a discrete-event simulation of a dispatching
// cluster with Poisson arrivals and exponential service times, using
// the allocation protocols as dispatch policies. It panics on invalid
// configuration (including an unstable offered load).
func RunQueue(cfg QueueConfig) QueueResult { return queueing.Run(cfg) }
