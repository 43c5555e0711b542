// Package core evaluates the closed-form allocation-time and
// maximum-load expressions from the paper's Table 1, so the benchmark
// harness can print prediction columns next to measurements.
package core

import "math"

// PhiD returns Vöcking's generalized golden ratio Φ_d: the unique real
// root in (1, 2) of x^d = x^{d-1} + x^{d-2} + ... + 1. Φ₂ is the
// golden ratio 1.618...; Φ_d increases towards 2. It panics if d < 2.
func PhiD(d int) float64 {
	if d < 2 {
		panic("core: PhiD with d < 2")
	}
	// f(x) = x^d - (x^{d-1} + ... + 1); f(1) = 1-d < 0, f(2) = 1 > 0.
	f := func(x float64) float64 {
		sum := 0.0
		for i := 0; i < d; i++ {
			sum += math.Pow(x, float64(i))
		}
		return math.Pow(x, float64(d)) - sum
	}
	lo, hi := 1.0, 2.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if f(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// PredictGreedyMaxLoad returns the Table 1 expression for greedy[d]:
// m/n + ln ln n / ln d + Θ(1) (the Θ(1) term is omitted).
func PredictGreedyMaxLoad(n int, m int64, d int) float64 {
	if d < 2 {
		panic("core: PredictGreedyMaxLoad with d < 2")
	}
	return float64(m)/float64(n) + math.Log(math.Log(float64(n)))/math.Log(float64(d))
}

// PredictLeftMaxLoad returns the Table 1 expression for left[d]:
// m/n + ln ln n / (d·ln Φ_d) + Θ(1) (the Θ(1) term is omitted).
func PredictLeftMaxLoad(n int, m int64, d int) float64 {
	return float64(m)/float64(n) +
		math.Log(math.Log(float64(n)))/(float64(d)*math.Log(PhiD(d)))
}

// PredictMemoryMaxLoad returns the Table 1 expression for the
// (1,1)-memory protocol of [14] at m = n:
// ln ln n / (2·ln Φ₂) + Θ(1) (the Θ(1) term is omitted).
func PredictMemoryMaxLoad(n int) float64 {
	return math.Log(math.Log(float64(n))) / (2 * math.Log(PhiD(2)))
}

// PredictSingleChoiceMaxLoad returns the classical bounds for the
// single-choice process: log n/log log n·(1+o(1)) for m = n, and
// m/n + Θ(sqrt(m·log n / n)) in the heavily loaded case m >> n log n
// (Raab–Steger). The o(1)/Θ constants are omitted.
func PredictSingleChoiceMaxLoad(n int, m int64) float64 {
	ln := math.Log(float64(n))
	if m <= int64(n) {
		return ln / math.Log(ln)
	}
	return float64(m)/float64(n) + math.Sqrt(2*float64(m)*ln/float64(n))
}

// PredictThresholdTime returns Theorem 4.1's allocation time
// m + m^{3/4}·n^{1/4} (the big-O constant taken as 1, which the
// paper's experiments indicate is the right scale).
func PredictThresholdTime(n int, m int64) float64 {
	return float64(m) + math.Pow(float64(m), 0.75)*math.Pow(float64(n), 0.25)
}

// PredictAdaptiveNoSlackTime returns the Θ(m·log n) coupon-collector
// cost of the ablation discussed in Section 2 (constant taken as 1:
// each stage of n balls costs ~n·H_n ≈ n·ln n samples).
func PredictAdaptiveNoSlackTime(n int, m int64) float64 {
	return float64(m) * math.Log(float64(n))
}
