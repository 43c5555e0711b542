package ballsbins_test

// This file is the benchmark harness for the paper's evaluation: one
// benchmark per table/figure/theorem, each reporting the quantities the
// paper reports as custom testing.B metrics (choices/ball, maxload,
// psi, rounds, ...). Run with:
//
//	go test -bench=. -benchmem
//
// and see EXPERIMENTS.md for the paper-vs-measured record. Sizes are
// chosen so the full suite completes in minutes on a laptop; the cmd/
// tools run the same experiments at the paper's full scale.

import (
	"fmt"
	"math"
	"testing"

	ballsbins "repro"
	"repro/internal/core"
	"repro/internal/protocol"
	"repro/internal/realloc"
	"repro/internal/rng"
)

// benchRun runs one replicate per iteration (fresh seed each time) and
// reports averaged domain metrics.
func benchRun(b *testing.B, spec ballsbins.Spec, n int, m int64) ballsbins.Result {
	b.Helper()
	var last ballsbins.Result
	var samples, maxLoad, gap, psi float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last = ballsbins.Run(spec, n, m, ballsbins.WithSeed(uint64(i)+1))
		samples += float64(last.Samples)
		maxLoad += float64(last.MaxLoad)
		gap += float64(last.Gap)
		psi += last.Psi
	}
	inv := 1 / float64(b.N)
	b.ReportMetric(samples*inv/float64(m), "choices/ball")
	b.ReportMetric(maxLoad*inv, "maxload")
	b.ReportMetric(gap*inv, "gap")
	b.ReportMetric(psi*inv, "psi")
	return last
}

// BenchmarkTable1 regenerates the paper's Table 1: allocation time and
// maximum load for every algorithm, at light (phi=1) and heavy
// (phi=32) load. Predictions are attached as metrics where Table 1
// gives a closed form.
func BenchmarkTable1(b *testing.B) {
	const n = 10000
	rows := []struct {
		name string
		spec ballsbins.Spec
		pred func(m int64) float64 // predicted max load; NaN = none
	}{
		{"single", ballsbins.SingleChoice(),
			func(m int64) float64 { return core.PredictSingleChoiceMaxLoad(n, m) }},
		{"greedy2", ballsbins.Greedy(2),
			func(m int64) float64 { return core.PredictGreedyMaxLoad(n, m, 2) }},
		{"greedy3", ballsbins.Greedy(3),
			func(m int64) float64 { return core.PredictGreedyMaxLoad(n, m, 3) }},
		{"left2", ballsbins.Left(2),
			func(m int64) float64 { return core.PredictLeftMaxLoad(n, m, 2) }},
		{"memory11", ballsbins.Memory(1, 1),
			func(m int64) float64 {
				return float64(m)/n + core.PredictMemoryMaxLoad(n)
			}},
		{"threshold", ballsbins.Threshold(),
			func(m int64) float64 { return float64(protocol.MaxLoadBound(n, m)) }},
		{"adaptive", ballsbins.Adaptive(),
			func(m int64) float64 { return float64(protocol.MaxLoadBound(n, m)) }},
	}
	for _, phi := range []int64{1, 32} {
		m := phi * n
		for _, row := range rows {
			b.Run(fmt.Sprintf("%s/phi=%d", row.name, phi), func(b *testing.B) {
				benchRun(b, row.spec, n, m)
				b.ReportMetric(row.pred(m), "predicted-maxload")
			})
		}
	}
}

// BenchmarkTable1SelfBalancing covers Table 1's reallocation baseline
// [6]: max load ceil(m/n) at the cost of O(m)+n^{O(1)} moves.
func BenchmarkTable1SelfBalancing(b *testing.B) {
	const n = 4096
	for _, phi := range []int64{1, 8} {
		m := phi * n
		b.Run(fmt.Sprintf("phi=%d", phi), func(b *testing.B) {
			var moves, maxLoad float64
			for i := 0; i < b.N; i++ {
				res := realloc.SelfBalance(n, m, rng.New(uint64(i)+1))
				moves += float64(res.Moves)
				maxLoad += float64(res.Vector.MaxLoad())
			}
			b.ReportMetric(moves/float64(b.N)/float64(m), "moves/ball")
			b.ReportMetric(maxLoad/float64(b.N), "maxload")
			b.ReportMetric(float64(protocol.CeilDiv(m, n)), "perfect-maxload")
		})
	}
}

// BenchmarkFigure3a regenerates Figure 3(a): average allocation time
// of ADAPTIVE and THRESHOLD as m grows with n = 10^4 fixed. The
// paper's series: THRESHOLD converges to m (choices/ball -> 1),
// ADAPTIVE to a small constant times m.
func BenchmarkFigure3a(b *testing.B) {
	const n = 10000
	for _, m := range []int64{200000, 400000, 600000, 800000, 1000000} {
		b.Run(fmt.Sprintf("adaptive/m=%d", m), func(b *testing.B) {
			benchRun(b, ballsbins.Adaptive(), n, m)
		})
		b.Run(fmt.Sprintf("threshold/m=%d", m), func(b *testing.B) {
			benchRun(b, ballsbins.Threshold(), n, m)
		})
	}
}

// BenchmarkFigure3b regenerates Figure 3(b): average quadratic
// potential of the final load distribution across the same sweep. The
// paper's series: ADAPTIVE converges to a value independent of m,
// THRESHOLD keeps growing.
func BenchmarkFigure3b(b *testing.B) {
	const n = 10000
	for _, m := range []int64{200000, 600000, 1000000} {
		b.Run(fmt.Sprintf("adaptive/m=%d", m), func(b *testing.B) {
			res := benchRun(b, ballsbins.Adaptive(), n, m)
			b.ReportMetric(res.Psi/float64(n), "psi/n")
		})
		b.Run(fmt.Sprintf("threshold/m=%d", m), func(b *testing.B) {
			res := benchRun(b, ballsbins.Threshold(), n, m)
			b.ReportMetric(res.Psi/float64(n), "psi/n")
		})
	}
}

// BenchmarkTheorem31AdaptiveLinearTime verifies E[time] = O(m): the
// choices/ball metric must stay bounded as phi = m/n grows.
func BenchmarkTheorem31AdaptiveLinearTime(b *testing.B) {
	const n = 10000
	for _, phi := range []int64{1, 8, 64} {
		b.Run(fmt.Sprintf("phi=%d", phi), func(b *testing.B) {
			benchRun(b, ballsbins.Adaptive(), n, phi*n)
		})
	}
}

// BenchmarkTheorem41ThresholdOverhead verifies time = m +
// O(m^{3/4}n^{1/4}): the reported normalized overhead
// (time-m)/(m^{3/4}n^{1/4}) must stay bounded as m grows.
func BenchmarkTheorem41ThresholdOverhead(b *testing.B) {
	const n = 10000
	for _, phi := range []int64{4, 16, 64} {
		m := phi * n
		b.Run(fmt.Sprintf("phi=%d", phi), func(b *testing.B) {
			var overhead float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := ballsbins.Run(ballsbins.Threshold(), n, m,
					ballsbins.WithSeed(uint64(i)+1))
				overhead += float64(res.Samples - m)
			}
			scale := math.Pow(float64(m), 0.75) * math.Pow(float64(n), 0.25)
			b.ReportMetric(overhead/float64(b.N)/scale, "overhead/m34n14")
		})
	}
}

// BenchmarkCorollary35Smoothness verifies adaptive's smoothness: gap
// normalized by log2(n) and psi normalized by n stay O(1) as n grows.
func BenchmarkCorollary35Smoothness(b *testing.B) {
	for _, n := range []int{1024, 4096, 16384} {
		m := int64(32 * n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var gap, psi float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := ballsbins.Run(ballsbins.Adaptive(), n, m,
					ballsbins.WithSeed(uint64(i)+1))
				gap += float64(res.Gap)
				psi += res.Psi
			}
			b.ReportMetric(gap/float64(b.N)/math.Log2(float64(n)), "gap/log2n")
			b.ReportMetric(psi/float64(b.N)/float64(n), "psi/n")
		})
	}
}

// BenchmarkLemma42ThresholdRoughness verifies threshold's roughness at
// m = n²: psi normalized by n^{9/8} and gap normalized by n^{1/8} stay
// bounded AWAY FROM ZERO as n grows.
func BenchmarkLemma42ThresholdRoughness(b *testing.B) {
	for _, n := range []int{64, 128, 256} {
		m := int64(n) * int64(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var gap, psi float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := ballsbins.Run(ballsbins.Threshold(), n, m,
					ballsbins.WithSeed(uint64(i)+1))
				gap += float64(res.Gap)
				psi += res.Psi
			}
			b.ReportMetric(psi/float64(b.N)/math.Pow(float64(n), 9.0/8.0), "psi/n98")
			b.ReportMetric(gap/float64(b.N)/math.Pow(float64(n), 1.0/8.0), "gap/n18")
		})
	}
}

// BenchmarkAblationAdaptiveNoSlack quantifies the Section 2 remark:
// dropping the +1 slack costs a Theta(log n) factor. The reported
// ratio metric is (noslack time)/(adaptive time)/ln(n), which should
// be roughly constant across n.
func BenchmarkAblationAdaptiveNoSlack(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		m := int64(8 * n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var ratio float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				seed := uint64(i) + 1
				a := ballsbins.Run(ballsbins.Adaptive(), n, m, ballsbins.WithSeed(seed))
				ns := ballsbins.Run(ballsbins.AdaptiveNoSlack(), n, m, ballsbins.WithSeed(seed))
				ratio += float64(ns.Samples) / float64(a.Samples)
			}
			b.ReportMetric(ratio/float64(b.N), "noslack/adaptive")
			b.ReportMetric(ratio/float64(b.N)/math.Log(float64(n)), "ratio/lnN")
		})
	}
}

// BenchmarkParallelLenzenWattenhofer covers the parallel line the
// paper cites ([12] in Table 1's context): max load 2 in ~log* n
// rounds with O(n) messages.
func BenchmarkParallelLenzenWattenhofer(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var rounds, messages, maxLoad float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := ballsbins.LenzenWattenhofer(n, uint64(i)+1)
				if err != nil {
					b.Fatal(err)
				}
				rounds += float64(res.Rounds)
				messages += float64(res.Messages)
				maxLoad += float64(res.MaxLoad)
			}
			inv := 1 / float64(b.N)
			b.ReportMetric(rounds*inv, "rounds")
			b.ReportMetric(messages*inv/float64(n), "messages/n")
			b.ReportMetric(maxLoad*inv, "maxload")
		})
	}
}

// BenchmarkEngineThroughput is the raw engineering number: how many
// balls per second the hot loop places (adaptive protocol, n = 10^4).
func BenchmarkEngineThroughput(b *testing.B) {
	const n = 10000
	spec := ballsbins.Adaptive()
	b.ReportAllocs()
	b.ResetTimer()
	// One run of b.N balls: per-op time is per-ball time.
	ballsbins.Run(spec, n, int64(b.N), ballsbins.WithSeed(1))
}

// BenchmarkFastEngine compares the naive rejection loop against the
// histogram-mode fast engine on Figure-3(a)-class workloads (adaptive
// and threshold, m = 100n) across n. The fast engine's advantage grows
// with n because the naive loop's working set (per-bin loads plus the
// bucket index) falls out of cache while the histogram stays
// L1-resident; see BENCH_*.json for a recorded grid. Cases at n >= 10^6
// are skipped in -short mode; per-op time divided by m gives ns/ball.
func BenchmarkFastEngine(b *testing.B) {
	protos := []struct {
		name string
		spec ballsbins.Spec
	}{
		{"adaptive", ballsbins.Adaptive()},
		{"threshold", ballsbins.Threshold()},
	}
	engines := []struct {
		name string
		e    ballsbins.Engine
	}{
		{"naive", ballsbins.EngineNaive},
		{"fast", ballsbins.EngineFast},
	}
	for _, n := range []int{100000, 1000000, 10000000} {
		m := 100 * int64(n)
		if n >= 10000000 {
			m = 20 * int64(n) // keep one naive op under a minute
		}
		for _, p := range protos {
			for _, eng := range engines {
				if n >= 1000000 && testing.Short() {
					continue
				}
				b.Run(fmt.Sprintf("%s/n=%d/%s", p.name, n, eng.name), func(b *testing.B) {
					b.ReportAllocs()
					var samples float64
					for i := 0; i < b.N; i++ {
						res := ballsbins.Run(p.spec, n, m, ballsbins.WithSeed(uint64(i)+1),
							ballsbins.WithEngine(eng.e))
						samples += float64(res.Samples)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(m), "ns/ball")
					b.ReportMetric(samples/float64(b.N)/float64(m), "choices/ball")
				})
			}
		}
	}
}

// BenchmarkFastEngineLowAcceptance measures the regime the geometric
// rejection count was built for: a fixed threshold exactly at
// capacity, where the naive loop needs Θ(n) samples for the last balls
// while the fast engine stays O(1) per ball.
func BenchmarkFastEngineLowAcceptance(b *testing.B) {
	const n = 100000
	const bound = 8
	m := int64(n) * bound
	for _, eng := range []struct {
		name string
		e    ballsbins.Engine
	}{
		{"naive", ballsbins.EngineNaive},
		{"fast", ballsbins.EngineFast},
	} {
		b.Run(eng.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ballsbins.Run(ballsbins.FixedThreshold(bound), n, m,
					ballsbins.WithSeed(uint64(i)+1), ballsbins.WithEngine(eng.e))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(m), "ns/ball")
		})
	}
}

// --- Extension ablations (beyond the paper's evaluation) -------------

// BenchmarkExtensionOnePlusBeta sweeps the (1+β)-choice process: the
// gap metric shrinks like Θ(log n/β) as β grows while cost stays
// 1+β choices/ball — the cheap-smoothness tradeoff to compare with
// adaptive's.
func BenchmarkExtensionOnePlusBeta(b *testing.B) {
	const n = 4096
	m := int64(64 * n)
	for _, beta := range []float64{0.1, 0.5, 0.9} {
		b.Run(fmt.Sprintf("beta=%.1f", beta), func(b *testing.B) {
			benchRun(b, ballsbins.OnePlusBeta(beta), n, m)
		})
	}
}

// BenchmarkExtensionStaleCounter quantifies adaptive's robustness to
// counter staleness: sync period up to one stage costs (almost)
// nothing; the lagged variant at a full stage degrades to the
// no-slack Θ(m log n) behaviour.
func BenchmarkExtensionStaleCounter(b *testing.B) {
	const n = 4096
	m := int64(16 * n)
	for _, spec := range []struct {
		name string
		s    ballsbins.Spec
	}{
		{"adaptive", ballsbins.Adaptive()},
		{"stale-sync=n/8", ballsbins.StaleAdaptive(n / 8)},
		{"stale-sync=n", ballsbins.StaleAdaptive(n)},
		{"lag=n(noslack)", ballsbins.LaggedAdaptive(n)},
	} {
		b.Run(spec.name, func(b *testing.B) {
			benchRun(b, spec.s, n, m)
		})
	}
}

// BenchmarkExtensionWeighted compares weight distributions at equal
// mean: heavy tails roughen the distribution but the weighted adaptive
// rule keeps max load below W/n + 2·wmax.
func BenchmarkExtensionWeighted(b *testing.B) {
	const n = 4096
	m := int64(16 * n)
	for _, w := range []struct {
		name string
		s    ballsbins.WeightSampler
	}{
		{"const", ballsbins.ConstWeights(1)},
		{"exp", ballsbins.ExpWeights(1)},
		{"pareto", ballsbins.ParetoWeights(1.2, 0.3, 30)},
	} {
		b.Run(w.name, func(b *testing.B) {
			var gap, psi, perBall float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := ballsbins.RunWeighted(ballsbins.WeightedAdaptive(), n, m, w.s,
					ballsbins.WithSeed(uint64(i)+1))
				gap += res.Gap
				psi += res.Psi
				perBall += res.SamplesPerBall
			}
			inv := 1 / float64(b.N)
			b.ReportMetric(gap*inv, "gap")
			b.ReportMetric(psi*inv/float64(n), "psi/n")
			b.ReportMetric(perBall*inv, "choices/ball")
		})
	}
}

// BenchmarkExtensionBatched sweeps the batch size of the b-batched
// arrival model: stale load information degrades greedy[2]'s max load
// toward single-choice as batches grow, while batched adaptive keeps
// its near-optimal max load at every batch size up to a stage.
func BenchmarkExtensionBatched(b *testing.B) {
	const n = 4096
	m := int64(16 * n)
	for _, batch := range []int64{1, n / 8, n} {
		b.Run(fmt.Sprintf("greedy2/b=%d", batch), func(b *testing.B) {
			var maxLoad float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := ballsbins.RunBatchedGreedy(n, m, batch, 2,
					ballsbins.WithSeed(uint64(i)+1))
				maxLoad += float64(res.MaxLoad)
			}
			b.ReportMetric(maxLoad/float64(b.N), "maxload")
		})
		b.Run(fmt.Sprintf("adaptive/b=%d", batch), func(b *testing.B) {
			var maxLoad, psi float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := ballsbins.RunBatchedAdaptive(n, m, batch,
					ballsbins.WithSeed(uint64(i)+1))
				maxLoad += float64(res.MaxLoad)
				psi += res.Psi
			}
			b.ReportMetric(maxLoad/float64(b.N), "maxload")
			b.ReportMetric(psi/float64(b.N)/float64(n), "psi/n")
		})
	}
}

// BenchmarkExtensionDynamic compares strategies in the fully dynamic
// regime (arrivals + departures): smart arrivals vs after-the-fact
// migration. Reported: steady-state gap and migrations per step.
func BenchmarkExtensionDynamic(b *testing.B) {
	base := ballsbins.DynamicConfig{
		N: 512, Steps: 200, ArrivalRate: 2, DepartureProb: 0.25,
	}
	for _, sc := range []struct {
		name string
		edit func(*ballsbins.DynamicConfig)
	}{
		{"single", func(c *ballsbins.DynamicConfig) { c.Arrival = ballsbins.ArriveSingle }},
		{"adaptive", func(c *ballsbins.DynamicConfig) { c.Arrival = ballsbins.ArriveAdaptive }},
		{"single+migration", func(c *ballsbins.DynamicConfig) {
			c.Arrival = ballsbins.ArriveSingle
			c.BalanceProb = 0.5
		}},
	} {
		b.Run(sc.name, func(b *testing.B) {
			var gap, migrations float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := base
				sc.edit(&cfg)
				cfg.Seed = uint64(i) + 1
				res := ballsbins.RunDynamic(cfg)
				gap += res.MeanGap
				migrations += float64(res.Migrations) / float64(cfg.Steps)
			}
			b.ReportMetric(gap/float64(b.N), "gap")
			b.ReportMetric(migrations/float64(b.N), "migrations/step")
		})
	}
}

// BenchmarkExtensionSupermarket runs the discrete-event queueing
// simulation at high load: p99 sojourn time and probes per job, per
// dispatch policy.
func BenchmarkExtensionSupermarket(b *testing.B) {
	for _, policy := range []struct {
		name string
		p    ballsbins.QueueConfig
	}{
		{"single", ballsbins.QueueConfig{Policy: ballsbins.PickSingle}},
		{"greedy2", ballsbins.QueueConfig{Policy: ballsbins.PickGreedy2}},
		{"adaptive", ballsbins.QueueConfig{Policy: ballsbins.PickAdaptive}},
	} {
		b.Run(policy.name, func(b *testing.B) {
			var p99, probes float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := policy.p
				cfg.N = 64
				cfg.ArrivalRate = 64 * 0.9
				cfg.ServiceRate = 1
				cfg.Jobs = 50000
				cfg.Seed = uint64(i) + 1
				res := ballsbins.RunQueue(cfg)
				p99 += res.P99Sojourn
				probes += res.ProbesPerJob
			}
			b.ReportMetric(p99/float64(b.N), "p99-sojourn")
			b.ReportMetric(probes/float64(b.N), "probes/job")
		})
	}
}

// BenchmarkExtensionBoundedRetry sweeps the per-ball retry cap of the
// capped threshold protocol: the Czumaj–Stemann tradeoff between
// maximum per-ball time (R), average time, and max load.
func BenchmarkExtensionBoundedRetry(b *testing.B) {
	const n = 4096
	m := int64(64 * n)
	for _, retries := range []int{1, 2, 4, 16} {
		b.Run(fmt.Sprintf("R=%d", retries), func(b *testing.B) {
			benchRun(b, ballsbins.BoundedRetry(retries), n, m)
		})
	}
}

// BenchmarkAblationGreedyTieBreak measures whether greedy[2]'s
// tie-breaking rule (first-sampled vs uniformly random) matters: it
// does not, which is why the paper can leave it unspecified.
func BenchmarkAblationGreedyTieBreak(b *testing.B) {
	const n = 8192
	m := int64(8 * n)
	b.Run("first", func(b *testing.B) {
		benchRun(b, ballsbins.Greedy(2), n, m)
	})
	b.Run("random", func(b *testing.B) {
		var maxLoad float64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out := protocol.Run(protocol.NewGreedyRandomTies(2), n, m,
				rng.New(uint64(i)+1))
			maxLoad += float64(out.Vector.MaxLoad())
		}
		b.ReportMetric(maxLoad/float64(b.N), "maxload")
	})
}
