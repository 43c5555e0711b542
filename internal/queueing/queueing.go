// Package queueing is a discrete-event simulation of a dispatching
// cluster — the "supermarket model" that motivates balls-into-bins
// processes in the load-balancing literature: jobs arrive as a Poisson
// process, a dispatcher assigns each job to one of n FIFO servers with
// exponential service times, and the figure of merit is the sojourn
// time distribution.
//
// The dispatcher policies mirror the allocation protocols: one random
// server (single choice), the shorter of d random queues (greedy[d],
// Mitzenmacher's supermarket model), and the paper's adaptive
// acceptance rule transplanted to queues (resample until a server's
// queue is below jobs-in-system/n + 1).
//
// The engine is a classic event-heap simulation; determinism under a
// seed is preserved by drawing all randomness from a single stream in
// event order.
package queueing

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"repro/internal/protocol"
	"repro/internal/rng"
)

// Policy selects the dispatching rule.
type Policy int

const (
	// PickSingle sends each job to one uniform random server.
	PickSingle Policy = iota
	// PickGreedy2 sends each job to the shorter of two random queues.
	PickGreedy2
	// PickAdaptive resamples servers until one has queue length below
	// (jobs in system)/n + 1 — the paper's acceptance rule on queues.
	PickAdaptive
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case PickSingle:
		return "single"
	case PickGreedy2:
		return "greedy2"
	case PickAdaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Config parameterizes a simulation run.
type Config struct {
	N           int     // servers; required > 0
	ArrivalRate float64 // total job arrival rate Λ (jobs per unit time); required > 0
	ServiceRate float64 // per-server service rate μ; required > 0
	Jobs        int64   // jobs to complete; required > 0
	Policy      Policy
	Seed        uint64
	// WarmupJobs are completed jobs excluded from statistics
	// (default Jobs/5).
	WarmupJobs int64
}

// Result summarizes a run.
type Result struct {
	Completed     int64
	MeanSojourn   float64 // time from arrival to completion
	P50Sojourn    float64
	P99Sojourn    float64
	MaxQueue      int     // max queue length observed at arrivals
	MeanQueueSeen float64 // average queue length at the chosen server on arrival
	Probes        int64   // server probes spent by the dispatcher
	ProbesPerJob  float64
	Utilization   float64 // Λ/(n·μ), the offered load ρ
}

// event kinds, ordered so ties at equal time process arrivals first
// (deterministic; the exact choice only matters for reproducibility).
const (
	evArrival = iota
	evDeparture
)

type event struct {
	time   float64
	kind   int
	server int
	seq    int64 // tie-break for determinism
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	if h[i].kind != h[j].kind {
		return h[i].kind < h[j].kind
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Run executes the simulation until cfg.Jobs jobs have completed and
// returns sojourn-time statistics. It panics on invalid configuration,
// including an unstable offered load (Λ >= n·μ), for which no steady
// state exists.
func Run(cfg Config) Result {
	switch {
	case cfg.N <= 0:
		panic("queueing: Config.N must be positive")
	case cfg.ArrivalRate <= 0 || math.IsNaN(cfg.ArrivalRate):
		panic("queueing: Config.ArrivalRate must be positive")
	case cfg.ServiceRate <= 0 || math.IsNaN(cfg.ServiceRate):
		panic("queueing: Config.ServiceRate must be positive")
	case cfg.Jobs <= 0:
		panic("queueing: Config.Jobs must be positive")
	case cfg.ArrivalRate >= float64(cfg.N)*cfg.ServiceRate:
		panic("queueing: offered load >= 1; the system is unstable")
	}
	warmup := cfg.WarmupJobs
	if warmup == 0 {
		warmup = cfg.Jobs / 5
	}
	if warmup >= cfg.Jobs {
		panic("queueing: warm-up consumes every job")
	}

	r := rng.New(cfg.Seed)
	queues := make([][]float64, cfg.N) // arrival times of queued jobs (FIFO)
	inSystem := int64(0)
	var seq int64

	h := &eventHeap{}
	heap.Init(h)
	push := func(t float64, kind, server int) {
		seq++
		heap.Push(h, event{time: t, kind: kind, server: server, seq: seq})
	}
	now := 0.0
	push(r.Exponential(cfg.ArrivalRate), evArrival, -1)

	res := Result{Utilization: cfg.ArrivalRate / (float64(cfg.N) * cfg.ServiceRate)}
	sojourns := make([]float64, 0, cfg.Jobs-warmup)
	var queueSeenSum float64
	var arrivalsCounted int64

	for res.Completed < cfg.Jobs {
		ev := heap.Pop(h).(event)
		now = ev.time
		switch ev.kind {
		case evArrival:
			server, probes := dispatch(cfg, queues, inSystem, r)
			res.Probes += probes
			qlen := len(queues[server])
			queueSeenSum += float64(qlen)
			arrivalsCounted++
			if qlen > res.MaxQueue {
				res.MaxQueue = qlen
			}
			queues[server] = append(queues[server], now)
			inSystem++
			if qlen == 0 {
				push(now+r.Exponential(cfg.ServiceRate), evDeparture, server)
			}
			push(now+r.Exponential(cfg.ArrivalRate), evArrival, -1)
		case evDeparture:
			q := queues[ev.server]
			arrived := q[0]
			queues[ev.server] = q[1:]
			inSystem--
			res.Completed++
			if res.Completed > warmup {
				sojourns = append(sojourns, now-arrived)
			}
			if len(queues[ev.server]) > 0 {
				push(now+r.Exponential(cfg.ServiceRate), evDeparture, ev.server)
			}
		}
	}

	if len(sojourns) > 0 {
		var sum float64
		for _, s := range sojourns {
			sum += s
		}
		res.MeanSojourn = sum / float64(len(sojourns))
		sort.Float64s(sojourns)
		res.P50Sojourn = quantile(sojourns, 0.50)
		res.P99Sojourn = quantile(sojourns, 0.99)
	}
	if arrivalsCounted > 0 {
		res.MeanQueueSeen = queueSeenSum / float64(arrivalsCounted)
		res.ProbesPerJob = float64(res.Probes) / float64(arrivalsCounted)
	}
	return res
}

// dispatch picks a server per the policy and returns it plus probes.
func dispatch(cfg Config, queues [][]float64, inSystem int64, r *rng.Rand) (int, int64) {
	n := cfg.N
	switch cfg.Policy {
	case PickGreedy2:
		a, b := r.Intn(n), r.Intn(n)
		if len(queues[b]) < len(queues[a]) {
			a = b
		}
		return a, 2
	case PickAdaptive:
		var probes int64
		for {
			j := r.Intn(n)
			probes++
			// Accept iff queue length < inSystem/n + 1. Some server is
			// always at or below the average, so this terminates.
			if protocol.Accepts(n, int64(len(queues[j])), inSystem) {
				return j, probes
			}
		}
	default:
		return r.Intn(n), 1
	}
}

// quantile interpolates the q-quantile of sorted data.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	hi := lo + 1
	if hi >= len(sorted) {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
