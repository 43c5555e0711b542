package ballsbins

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestRunAdaptive(t *testing.T) {
	res := Run(Adaptive(), 100, 1000, WithSeed(7))
	if res.MaxLoad > int(MaxLoadGuarantee(100, 1000)) {
		t.Fatalf("max load %d exceeds guarantee", res.MaxLoad)
	}
	if res.Samples < 1000 {
		t.Fatalf("samples %d below m", res.Samples)
	}
	if res.SamplesPerBall < 1 || res.SamplesPerBall > 3 {
		t.Fatalf("samples per ball %v implausible", res.SamplesPerBall)
	}
	if res.Gap != res.MaxLoad-res.MinLoad {
		t.Fatal("gap inconsistent")
	}
}

func TestRunDeterminism(t *testing.T) {
	a := Run(Threshold(), 64, 640, WithSeed(5))
	b := Run(Threshold(), 64, 640, WithSeed(5))
	if a != b {
		t.Fatalf("same seed differs: %+v vs %+v", a, b)
	}
}

func TestSpecNames(t *testing.T) {
	cases := map[string]Spec{
		"adaptive":         Adaptive(),
		"threshold":        Threshold(),
		"adaptive-noslack": AdaptiveNoSlack(),
		"single":           SingleChoice(),
		"greedy[2]":        Greedy(2),
		"left[2]":          Left(2),
		"memory[1,1]":      Memory(1, 1),
		"fixed[<3]":        FixedThreshold(3),
	}
	for want, spec := range cases {
		if got := spec.Name(); got != want {
			t.Errorf("Name = %q want %q", got, want)
		}
	}
}

func TestZeroSpecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero Spec did not panic")
		}
	}()
	Run(Spec{}, 1, 1)
}

func TestConstructorValidationIsEager(t *testing.T) {
	for name, f := range map[string]func(){
		"Greedy(0)":         func() { Greedy(0) },
		"Left(1)":           func() { Left(1) },
		"Memory(0,0)":       func() { Memory(0, 0) },
		"FixedThreshold(0)": func() { FixedThreshold(0) },
		"WithSnapshots bad": func() { WithSnapshots(0, func(Snapshot) {}) },
		"WithSnapshots nil": func() { WithSnapshots(1, nil) },
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

func TestSnapshots(t *testing.T) {
	var snaps []Snapshot
	Run(Adaptive(), 32, 320, WithSeed(3), WithSnapshots(32, func(s Snapshot) {
		snaps = append(snaps, s)
	}))
	if len(snaps) != 1+10 {
		t.Fatalf("got %d snapshots, want 11", len(snaps))
	}
	if snaps[0].Ball != 1 || snaps[len(snaps)-1].Ball != 320 {
		t.Fatalf("snapshot boundaries wrong: %+v", snaps)
	}
	prev := int64(0)
	for _, s := range snaps {
		if s.Samples < prev {
			t.Fatal("cumulative samples decreased")
		}
		prev = s.Samples
	}
}

func TestReplicates(t *testing.T) {
	sum, err := Replicates(context.Background(), Adaptive(), 64, 640, 10, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Reps != 10 || sum.Protocol != "adaptive" {
		t.Fatalf("summary header wrong: %+v", sum)
	}
	if sum.TimePerBall.Mean < 1 || sum.TimePerBall.Mean > 3 {
		t.Fatalf("time per ball %v", sum.TimePerBall.Mean)
	}
	if sum.Time.Min > sum.Time.Max {
		t.Fatal("min > max")
	}
	if sum.Time.CI95 <= 0 {
		t.Fatal("CI95 should be positive for 10 replicates")
	}
}

func TestReplicatesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Replicates(ctx, Adaptive(), 64, 640, 1000); err == nil {
		t.Fatal("cancelled context did not error")
	}
}

// TestReplicatesGolden pins the exact Summary of a small replicated
// experiment on both engines: each replicate runs on its own stream of
// the master seed, so these values change only if a run's random
// stream, its Result or the aggregation order does.
func TestReplicatesGolden(t *testing.T) {
	for _, tc := range []struct {
		spec   Spec
		engine Engine
		// Mean, Std, Min and Max of Time, TimePerBall, MaxLoad, Gap,
		// Psi and Phi.
		want [6][4]float64
	}{
		{Adaptive(), EngineFast, [6][4]float64{
			{26353.333333333332, 125.8583860270473, 26269, 26498},
			{1.3176666666666665, 0.006292919301352235, 1.31345, 1.3249},
			{11, 0, 11, 11},
			{7.666666666666667, 1.1547005383792517, 7, 9},
			{3446, 156.16657773031974, 3332, 3624},
			{2020.0934401108254, 0.001985396599730499, 2020.091991990947, 2020.095703330039},
		}},
		{Adaptive(), EngineNaive, [6][4]float64{
			{26267.666666666668, 49.96331987902033, 26210, 26298},
			{1.3133833333333333, 0.002498165993951041, 1.3105, 1.3149},
			{11, 0, 11, 11},
			{7.666666666666667, 1.1547005383792517, 7, 9},
			{3382.6666666666665, 223.2696426595728, 3180, 3622},
			{2020.0926412558006, 0.002832905264787362, 2020.0900726683126, 2020.0956797219924},
		}},
		{Threshold(), EngineFast, [6][4]float64{
			{23520.666666666668, 93.51648695996563, 23422, 23608},
			{1.1760333333333335, 0.004675824347998308, 1.1711, 1.1804},
			{11, 0, 11, 11},
			{8.333333333333334, 0.5773502691896258, 8, 9},
			{5202, 207.62466134830902, 4978, 5388},
			{2020.1156484662872, 0.002642591617297649, 2020.1128013555635, 2020.1180226850233},
		}},
		{Threshold(), EngineNaive, [6][4]float64{
			{23400.666666666668, 139.78674233750928, 23256, 23535},
			{1.1700333333333335, 0.0069893371168753896, 1.1628, 1.17675},
			{11, 0, 11, 11},
			{8.333333333333334, 0.5773502691896258, 8, 9},
			{5037.333333333333, 161.29889439588027, 4882, 5204},
			{2020.1135612017626, 0.0020517955252339595, 2020.1115875422945, 2020.115683093656},
		}},
	} {
		sum, err := Replicates(context.Background(), tc.spec, 2000, 20000, 3,
			WithSeed(5), WithEngine(tc.engine))
		if err != nil {
			t.Fatal(err)
		}
		for i, st := range []Stat{sum.Time, sum.TimePerBall, sum.MaxLoad, sum.Gap, sum.Psi, sum.Phi} {
			if got := [4]float64{st.Mean, st.Std, st.Min, st.Max}; got != tc.want[i] {
				t.Errorf("%s/%v: stat %d = %v, want %v", tc.spec.Name(), tc.engine, i, got, tc.want[i])
			}
		}
	}
}

func TestReplicatesIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	one, err := Replicates(context.Background(), Adaptive(), 64, 640, 16, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(8)
	eight, err := Replicates(context.Background(), Adaptive(), 64, 640, 16, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if one != eight {
		t.Fatalf("Summary depends on GOMAXPROCS:\n1: %+v\n8: %+v", one, eight)
	}
}

func TestReplicatesDiffer(t *testing.T) {
	sum, err := Replicates(context.Background(), Adaptive(), 64, 640, 10, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Time.Std == 0 {
		t.Fatal("replicates produced identical times; seeding is broken")
	}
}

func TestReplicatePanicIsCaptured(t *testing.T) {
	// left[4] over 2 bins panics at Reset: n < d.
	_, err := Replicates(context.Background(), Left(4), 2, 2, 3)
	if err == nil || !strings.Contains(err.Error(), "replicate 0 panicked") {
		t.Fatalf("expected replicate 0's panic as an error, got %v", err)
	}
}

func TestReplicatesPanicsOnBadArguments(t *testing.T) {
	ctx := context.Background()
	for name, f := range map[string]func(){
		"reps=0":  func() { Replicates(ctx, Adaptive(), 1, 1, 0) },
		"n=0":     func() { Replicates(ctx, Adaptive(), 0, 1, 1) },
		"m<0":     func() { Replicates(ctx, Adaptive(), 1, -1, 1) },
		"Run n=0": func() { Run(Adaptive(), 0, 1) },
		"Run m<0": func() { Run(Adaptive(), 1, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestRunEmpty: a run of no balls reports no samples, and Run knows its
// horizon even when it is 0, so Threshold needs no WithHorizon.
func TestRunEmpty(t *testing.T) {
	for _, s := range []Spec{Adaptive(), Threshold()} {
		res := Run(s, 4, 0)
		if res.Samples != 0 || res.SamplesPerBall != 0 || res.MaxLoad != 0 {
			t.Errorf("%s: empty run = %+v", s.Name(), res)
		}
	}
}

// TestRunBuildsNoVector pins Run's allocations: a histogram-capable spec
// on the fast engine runs histogram-only to the end, so it never
// allocates the per-bin vector or the permutation that would build it.
// greedy[2] has no histogram path and runs on the vector throughout.
func TestRunBuildsNoVector(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	for _, tc := range []struct {
		spec   Spec
		allocs float64
	}{
		{Adaptive(), 9},
		{Threshold(), 9},
		{SingleChoice(), 10},
		{Greedy(2), 11},
	} {
		if got := testing.AllocsPerRun(3, func() { Run(tc.spec, 10_000, 100_000) }); got != tc.allocs {
			t.Errorf("%s: Run allocates %v times, want %v", tc.spec.Name(), got, tc.allocs)
		}
	}
}

func TestBatchCounting(t *testing.T) {
	if got := RunBatchedGreedy(16, 100, 30, 2, WithSeed(1)).Batches; got != 4 { // 30+30+30+10
		t.Fatalf("batches = %d want 4", got)
	}
	if res := RunBatchedAdaptive(16, 0, 5, WithSeed(1)); res.Batches != 0 || res.Samples != 0 {
		t.Fatalf("empty run should have no batches: %+v", res)
	}
}

func TestMaxLoadGuaranteeProperty(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint16) bool {
		n := 1 + int(nRaw%200)
		m := int64(mRaw % 4000)
		for _, spec := range []Spec{Adaptive(), Threshold()} {
			res := Run(spec, n, m, WithSeed(seed))
			if res.MaxLoad > int(MaxLoadGuarantee(n, m)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelFacade(t *testing.T) {
	res, err := LenzenWattenhofer(1<<10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxLoad > 2 || res.Placed != 1<<10 {
		t.Fatalf("LW result wrong: %+v", res)
	}
	ac, err := AdlerCollision(512, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ac.Placed != 512 {
		t.Fatalf("Adler result wrong: %+v", ac)
	}
	hp, err := HeavyParallel(256, 4096, 5)
	if err != nil {
		t.Fatal(err)
	}
	if hp.MaxLoad > 17 {
		t.Fatalf("heavy parallel max load %d", hp.MaxLoad)
	}
}

func TestSelfBalanceFacade(t *testing.T) {
	res := SelfBalance(128, 1024, 6)
	if res.MaxLoad > 9 { // ceil(m/n)+1 = 9
		t.Fatalf("self-balance max load %d", res.MaxLoad)
	}
	if res.Samples != 2048 {
		t.Fatalf("samples %d want 2m", res.Samples)
	}
	if res.MaxLoad > res.InitialMaxLoad {
		t.Fatal("balancing made things worse")
	}
}

func TestSmoothnessHeadline(t *testing.T) {
	// The package-level claim: adaptive is smoother than threshold at
	// the same (n, m), at slightly higher allocation time.
	const n = 128
	m := int64(n) * int64(n)
	a := Run(Adaptive(), n, m, WithSeed(11))
	th := Run(Threshold(), n, m, WithSeed(11))
	if a.Psi >= th.Psi {
		t.Fatalf("adaptive Psi %v not below threshold %v", a.Psi, th.Psi)
	}
	if a.Samples <= th.Samples {
		t.Logf("note: adaptive used fewer samples (%d vs %d) this seed",
			a.Samples, th.Samples)
	}
}
