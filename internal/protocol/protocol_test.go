package protocol

import (
	"testing"
	"testing/quick"

	"repro/internal/loadvec"
	"repro/internal/rng"
)

// allFactories enumerates every protocol for cross-cutting invariants.
// Protocols that need n >= d are guarded by the callers.
func allFactories() map[string]Factory {
	return map[string]Factory{
		"single":           func() Protocol { return NewSingleChoice() },
		"greedy[2]":        func() Protocol { return NewGreedy(2) },
		"greedy[3]":        func() Protocol { return NewGreedy(3) },
		"greedy[2]-random": func() Protocol { return NewGreedyRandomTies(2) },
		"left[2]":          func() Protocol { return NewLeft(2) },
		"left[4]":          func() Protocol { return NewLeft(4) },
		"memory[1,1]":      func() Protocol { return NewMemory(1, 1) },
		"memory[2,2]":      func() Protocol { return NewMemory(2, 2) },
		"threshold":        func() Protocol { return NewThreshold() },
		"adaptive":         func() Protocol { return NewAdaptive() },
		"adaptive-noslack": func() Protocol { return NewAdaptiveNoSlack() },
	}
}

func TestRunPlacesAllBalls(t *testing.T) {
	const n, m = 64, 640
	for name, f := range allFactories() {
		p := f()
		out := Run(p, n, m, rng.New(1))
		if out.Vector.Balls() != m {
			t.Errorf("%s: placed %d balls, want %d", name, out.Vector.Balls(), m)
		}
		if out.Samples < m {
			t.Errorf("%s: samples %d < m", name, out.Samples)
		}
		if err := out.Vector.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	const n, m = 50, 500
	for name, f := range allFactories() {
		a := Run(f(), n, m, rng.New(7))
		b := Run(f(), n, m, rng.New(7))
		if a.Samples != b.Samples {
			t.Errorf("%s: samples differ %d vs %d", name, a.Samples, b.Samples)
		}
		la, lb := a.Vector.Loads(), b.Vector.Loads()
		for i := range la {
			if la[i] != lb[i] {
				t.Errorf("%s: loads differ at bin %d", name, i)
				break
			}
		}
	}
}

func TestProtocolReusableAfterReset(t *testing.T) {
	// Running the same instance twice with the same seed must agree:
	// Reset must clear all per-run state (this catches stale memory
	// caches and stale thresholds).
	for name, f := range allFactories() {
		p := f()
		a := Run(p, 32, 320, rng.New(3))
		b := Run(p, 32, 320, rng.New(3))
		if a.Samples != b.Samples {
			t.Errorf("%s: instance reuse changed samples: %d vs %d",
				name, a.Samples, b.Samples)
		}
	}
}

func TestRunZeroBalls(t *testing.T) {
	out := Run(NewAdaptive(), 10, 0, rng.New(1))
	if out.Samples != 0 || out.Vector.Balls() != 0 {
		t.Fatal("m=0 run should be empty")
	}
}

func TestRunPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"n=0": func() { Run(NewAdaptive(), 0, 1, rng.New(1)) },
		"m<0": func() { Run(NewAdaptive(), 1, -1, rng.New(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestSampleAccounting(t *testing.T) {
	const n, m = 128, 1024
	if out := Run(NewSingleChoice(), n, m, rng.New(2)); out.Samples != m {
		t.Errorf("single: samples %d want %d", out.Samples, m)
	}
	if out := Run(NewGreedy(3), n, m, rng.New(2)); out.Samples != 3*m {
		t.Errorf("greedy[3]: samples %d want %d", out.Samples, 3*m)
	}
	if out := Run(NewLeft(2), n, m, rng.New(2)); out.Samples != 2*m {
		t.Errorf("left[2]: samples %d want %d", out.Samples, 2*m)
	}
	if out := Run(NewMemory(1, 1), n, m, rng.New(2)); out.Samples != m {
		t.Errorf("memory[1,1]: samples %d want %d (memory choices are free)",
			out.Samples, m)
	}
}

func TestMaxLoadGuaranteeProperty(t *testing.T) {
	// The deterministic guarantee of both headline protocols:
	// max load <= ceil(m/n) + 1, for arbitrary n and m.
	f := func(seed uint64, nRaw, mRaw uint16) bool {
		n := 1 + int(nRaw%128)
		m := int64(mRaw % 2048)
		bound := int(MaxLoadBound(n, m))
		for _, fac := range []Factory{
			func() Protocol { return NewThreshold() },
			func() Protocol { return NewAdaptive() },
		} {
			out := Run(fac(), n, m, rng.New(seed))
			if out.Vector.MaxLoad() > bound {
				t.Logf("n=%d m=%d: max %d > bound %d", n, m, out.Vector.MaxLoad(), bound)
				return false
			}
			if err := out.Vector.Validate(); err != nil {
				t.Log(err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptivePrefixInvariant(t *testing.T) {
	// Adaptive guarantees max load <= ceil(i/n) + 1 after EVERY ball i,
	// not only at the end — the online version of the guarantee.
	const n, m = 37, 700
	violated := false
	Run(NewAdaptive(), n, m, rng.New(5))
	RunWithObserver(NewAdaptive(), n, m, rng.New(5),
		func(ball, _ int64, v *loadvec.Vector) {
			if int64(v.MaxLoad()) > CeilDiv(ball, n)+1 {
				violated = true
			}
		})
	if violated {
		t.Fatal("adaptive exceeded ceil(i/n)+1 at some prefix")
	}
}

func TestThresholdNeverExceedsCapacityDuringRun(t *testing.T) {
	const n, m = 29, 400
	cap := int(MaxLoadBound(n, m))
	RunWithObserver(NewThreshold(), n, m, rng.New(6),
		func(_, _ int64, v *loadvec.Vector) {
			if v.MaxLoad() > cap {
				t.Fatalf("threshold exceeded capacity %d mid-run", cap)
			}
		})
}

func TestGreedyBeatsSingleChoice(t *testing.T) {
	// The power of two choices: for m = n the two-choice maximum load
	// O(log log n) is far below single-choice's log n/log log n.
	// Compare means over a few replicates at n = 4096.
	const n = 4096
	const reps = 5
	var sumSingle, sumGreedy int
	for rep := 0; rep < reps; rep++ {
		seed := uint64(100 + rep)
		sumSingle += Run(NewSingleChoice(), n, n, rng.New(seed)).Vector.MaxLoad()
		sumGreedy += Run(NewGreedy(2), n, n, rng.New(seed)).Vector.MaxLoad()
	}
	if sumGreedy >= sumSingle {
		t.Fatalf("greedy[2] mean max load %d/%d not below single %d/%d",
			sumGreedy, reps, sumSingle, reps)
	}
}

func TestGreedyMaxLoadSmall(t *testing.T) {
	const n = 4096
	out := Run(NewGreedy(2), n, n, rng.New(42))
	// ln ln n / ln 2 + O(1) ~ 3; anything above 8 indicates a bug.
	if out.Vector.MaxLoad() > 8 {
		t.Fatalf("greedy[2] max load %d implausibly large", out.Vector.MaxLoad())
	}
}

func TestLeftAtMostGreedy(t *testing.T) {
	// Vöcking's Always-Go-Left is never substantially worse than
	// greedy[d]; compare means over replicates with slack 1.
	const n = 4096
	const reps = 5
	var sumLeft, sumGreedy int
	for rep := 0; rep < reps; rep++ {
		seed := uint64(200 + rep)
		sumLeft += Run(NewLeft(2), n, n, rng.New(seed)).Vector.MaxLoad()
		sumGreedy += Run(NewGreedy(2), n, n, rng.New(seed)).Vector.MaxLoad()
	}
	if sumLeft > sumGreedy+reps {
		t.Fatalf("left[2] mean max load %d/%d above greedy[2] %d/%d + 1",
			sumLeft, reps, sumGreedy, reps)
	}
}

func TestMemoryMatchesTwoChoiceQuality(t *testing.T) {
	// Mitzenmacher–Prabhakar–Shah: memory(1,1) achieves two-choice
	// quality with one random choice per ball.
	const n = 4096
	out := Run(NewMemory(1, 1), n, n, rng.New(9))
	if out.Vector.MaxLoad() > 8 {
		t.Fatalf("memory[1,1] max load %d implausibly large", out.Vector.MaxLoad())
	}
	if out.Samples != n {
		t.Fatalf("memory[1,1] samples %d want %d", out.Samples, n)
	}
}

func TestLeftGroupBounds(t *testing.T) {
	l := NewLeft(3)
	l.Reset(10, 0)
	covered := make([]int, 10)
	for g := 0; g < 3; g++ {
		lo, hi := l.groupBounds(g)
		if lo >= hi {
			t.Fatalf("group %d empty: [%d,%d)", g, lo, hi)
		}
		for i := lo; i < hi; i++ {
			covered[i]++
		}
	}
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("bin %d covered %d times", i, c)
		}
	}
}

func TestLeftPlacesInCorrectGroups(t *testing.T) {
	// With d=2 and loads forced equal, Always-Go-Left must always pick
	// the left group.
	l := NewLeft(2)
	l.Reset(8, 8)
	v := loadvec.New(8)
	r := rng.New(3)
	for i := int64(1); i <= 4; i++ {
		l.Place(v, r, i)
	}
	var right int
	for i := 4; i < 8; i++ {
		right += v.Load(i)
	}
	// Ties at load 0 always go left, and left-group loads stay <= right
	// +1 thereafter; with only 4 balls the right group can receive a
	// ball only when the left sample is strictly more loaded.
	if right > 2 {
		t.Fatalf("right group received %d of 4 balls under Always-Go-Left", right)
	}
}

func TestConstructorPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"greedy d=0":       func() { NewGreedy(0) },
		"left d=1":         func() { NewLeft(1) },
		"memory d=0":       func() { NewMemory(0, 1) },
		"memory k<0":       func() { NewMemory(1, -1) },
		"fixed bound=0":    func() { NewFixedThreshold(0) },
		"left n<d":         func() { Run(NewLeft(4), 3, 3, rng.New(1)) },
		"fixed infeasible": func() { Run(NewFixedThreshold(1), 4, 5, rng.New(1)) },
		"ceilDiv b=0":      func() { CeilDiv(1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestFixedThresholdRespectsBound(t *testing.T) {
	const n, m, bound = 16, 48, 4
	out := Run(NewFixedThreshold(bound), n, m, rng.New(11))
	if out.Vector.MaxLoad() > bound {
		t.Fatalf("fixed threshold exceeded bound: %d > %d", out.Vector.MaxLoad(), bound)
	}
	if out.Vector.Balls() != m {
		t.Fatalf("placed %d want %d", out.Vector.Balls(), m)
	}
}

func TestNames(t *testing.T) {
	cases := map[string]Protocol{
		"single":           NewSingleChoice(),
		"greedy[2]":        NewGreedy(2),
		"left[3]":          NewLeft(3),
		"memory[1,1]":      NewMemory(1, 1),
		"threshold":        NewThreshold(),
		"adaptive":         NewAdaptive(),
		"adaptive-noslack": NewAdaptiveNoSlack(),
		"fixed[<5]":        NewFixedThreshold(5),
	}
	for want, p := range cases {
		if got := p.Name(); got != want {
			t.Errorf("Name() = %q want %q", got, want)
		}
	}
}

func TestMaxLoadBound(t *testing.T) {
	cases := []struct {
		n    int
		m    int64
		want int64
	}{
		{10, 0, 1}, {10, 10, 2}, {10, 11, 3}, {10, 25, 4}, {10, 100, 11}, {3, 7, 4},
	}
	for _, c := range cases {
		if got := MaxLoadBound(c.n, c.m); got != c.want {
			t.Errorf("MaxLoadBound(%d,%d) = %d want %d", c.n, c.m, got, c.want)
		}
	}
}

func TestGreedyRandomTiesStillCorrect(t *testing.T) {
	const n, m = 256, 2560
	out := Run(NewGreedyRandomTies(2), n, m, rng.New(12))
	if out.Vector.Balls() != m || out.Samples != 2*m {
		t.Fatalf("random-tie greedy bookkeeping wrong: balls=%d samples=%d",
			out.Vector.Balls(), out.Samples)
	}
}

func TestObserverSeesEveryBall(t *testing.T) {
	const n, m = 8, 100
	var calls int64
	var sampleSum int64
	out := RunWithObserver(NewAdaptive(), n, m, rng.New(13),
		func(ball, samples int64, v *loadvec.Vector) {
			calls++
			sampleSum += samples
			if ball != calls {
				t.Fatalf("observer ball %d at call %d", ball, calls)
			}
		})
	if calls != m {
		t.Fatalf("observer called %d times want %d", calls, m)
	}
	if sampleSum != out.Samples {
		t.Fatalf("observer sample sum %d != outcome %d", sampleSum, out.Samples)
	}
}
