package core

import (
	"math"
	"testing"
)

func TestPhiD(t *testing.T) {
	// Φ₂ is the golden ratio.
	if got := PhiD(2); math.Abs(got-(1+math.Sqrt(5))/2) > 1e-9 {
		t.Errorf("PhiD(2) = %v want golden ratio", got)
	}
	// Φ₃ is the tribonacci constant 1.839286...
	if got := PhiD(3); math.Abs(got-1.839286755214161) > 1e-9 {
		t.Errorf("PhiD(3) = %v want tribonacci constant", got)
	}
	// The paper notes 1.61 <= Φ_d <= 2 and Φ_d increases with d.
	prev := 0.0
	for d := 2; d <= 10; d++ {
		v := PhiD(d)
		if v <= prev || v < 1.61 || v >= 2 {
			t.Errorf("PhiD(%d) = %v violates 1.61 <= Φ_d < 2 or monotonicity", d, v)
		}
		prev = v
	}
}

func TestPhiDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PhiD(1) did not panic")
		}
	}()
	PhiD(1)
}

func TestPredictionsOrdering(t *testing.T) {
	// Structural relations from Table 1 at n = 10^4, m = n:
	// left[d] <= greedy[d] (asymmetric tie-breaking helps), and both
	// improve with d; memory(1,1) matches left[2]'s order.
	const n = 10000
	const m = int64(n)
	g2 := PredictGreedyMaxLoad(n, m, 2)
	g3 := PredictGreedyMaxLoad(n, m, 3)
	l2 := PredictLeftMaxLoad(n, m, 2)
	l3 := PredictLeftMaxLoad(n, m, 3)
	if !(g3 < g2) {
		t.Errorf("greedy[3] %v not below greedy[2] %v", g3, g2)
	}
	if !(l2 < g2) || !(l3 < g3) {
		t.Errorf("left not below greedy: l2=%v g2=%v l3=%v g3=%v", l2, g2, l3, g3)
	}
	mem := PredictMemoryMaxLoad(n)
	if math.Abs(mem-(l2-float64(m)/float64(n))) > 1e-9 {
		t.Errorf("memory(1,1) prediction %v should equal left[2]'s ln ln n/(2 ln Phi2) term %v",
			mem, l2-float64(m)/float64(n))
	}
}

func TestPredictSingleChoice(t *testing.T) {
	// m = n regime: log n / log log n.
	const n = 10000
	light := PredictSingleChoiceMaxLoad(n, n)
	ln := math.Log(float64(n))
	if math.Abs(light-ln/math.Log(ln)) > 1e-9 {
		t.Errorf("light-load prediction wrong: %v", light)
	}
	// Heavy regime grows like m/n + sqrt(2 (m/n) ln n).
	heavy := PredictSingleChoiceMaxLoad(n, 100*n)
	if heavy <= 100 {
		t.Errorf("heavy-load prediction %v should exceed m/n", heavy)
	}
}

func TestPredictThresholdTimeShape(t *testing.T) {
	// Overhead must be sublinear in m: (T(m)-m)/m decreases in m.
	const n = 10000
	small := PredictThresholdTime(n, 10*n) - float64(10*n)
	big := PredictThresholdTime(n, 1000*n) - float64(1000*n)
	if small/float64(10*n) <= big/float64(1000*n) {
		t.Error("threshold overhead fraction did not shrink with m")
	}
}

func TestPredictPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PredictGreedyMaxLoad d=1 did not panic")
		}
	}()
	PredictGreedyMaxLoad(10, 10, 1)
}

func TestPredictNoSlack(t *testing.T) {
	// The ablation prediction must dominate plain adaptive's O(m).
	const n = 4096
	m := int64(16 * n)
	if PredictAdaptiveNoSlackTime(n, m) < 4*float64(m) {
		t.Error("no-slack prediction should be several times m at n=4096")
	}
}
