package batched

import (
	"testing"

	"repro/internal/protocol"
	"repro/internal/rng"
)

func TestBatchSizeOneIsSequentialGreedy(t *testing.T) {
	// With b = 1 the snapshot is always fresh: decisions must coincide
	// exactly with the sequential greedy[d] on the same stream.
	const n, m, d = 64, 640, 2
	seq := protocol.Run(protocol.NewGreedy(d), n, m, rng.New(3))
	bat := protocol.Run(NewGreedy(1, d), n, m, rng.New(3))
	if seq.Samples != bat.Samples {
		t.Fatalf("samples differ: %d vs %d", seq.Samples, bat.Samples)
	}
	ls, lb := seq.Vector.Loads(), bat.Vector.Loads()
	for i := range ls {
		if ls[i] != lb[i] {
			t.Fatalf("loads differ at bin %d", i)
		}
	}
}

func TestGreedyGapDegradesWithBatchSize(t *testing.T) {
	// Stale information hurts: the max load for b = n (one full stage
	// per batch) must exceed the sequential b = 1 value in the heavily
	// loaded regime, approaching single-choice as b -> m.
	const n = 512
	const m = int64(64 * n)
	const reps = 3
	var fresh, stale, blind float64
	for rep := 0; rep < reps; rep++ {
		seed := uint64(100 + rep)
		fresh += float64(protocol.Run(NewGreedy(1, 2), n, m, rng.New(seed)).Vector.MaxLoad())
		stale += float64(protocol.Run(NewGreedy(int64(n), 2), n, m, rng.New(seed)).Vector.MaxLoad())
		blind += float64(protocol.Run(NewGreedy(m, 2), n, m, rng.New(seed)).Vector.MaxLoad())
	}
	if !(fresh < stale) {
		t.Errorf("b=n max load %.1f not above b=1 %.1f", stale/reps, fresh/reps)
	}
	if !(stale <= blind) {
		t.Errorf("b=m max load %.1f below b=n %.1f", blind/reps, stale/reps)
	}
}

func TestBatchedAdaptiveGuaranteeDegradesGracefully(t *testing.T) {
	// Within-batch pile-up can push a bin past ceil(m/n)+1, but only
	// by a little: the acceptance bound still caps each batch's
	// snapshot, so the overshoot is bounded by the per-batch pile-up,
	// which concentrates around b/n + O(1).
	const n = 256
	const m = int64(32 * n)
	for _, b := range []int64{1, 16, n} {
		out := protocol.Run(NewAdaptive(b), n, m, rng.New(7))
		if out.Vector.Balls() != m {
			t.Fatalf("b=%d: placed %d", b, out.Vector.Balls())
		}
		bound := int(protocol.MaxLoadBound(n, m)) + int(b/int64(n)) + 3
		if out.Vector.MaxLoad() > bound {
			t.Errorf("b=%d: max load %d beyond degraded bound %d",
				b, out.Vector.MaxLoad(), bound)
		}
		if err := out.Vector.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBatchedAdaptiveBatchOneIsAdaptive(t *testing.T) {
	const n, m = 64, 640
	seq := protocol.Run(protocol.NewAdaptive(), n, m, rng.New(5))
	bat := protocol.Run(NewAdaptive(1), n, m, rng.New(5))
	if seq.Samples != bat.Samples {
		t.Fatalf("samples differ: %d vs %d", seq.Samples, bat.Samples)
	}
	ls, lb := seq.Vector.Loads(), bat.Vector.Loads()
	for i := range ls {
		if ls[i] != lb[i] {
			t.Fatalf("loads differ at bin %d", i)
		}
	}
}

func TestBatchedAdaptiveCostStaysLinear(t *testing.T) {
	// Even with full-stage batches the adaptive rule stays O(m):
	// the stale rule is the stage-synchronized one (cf. the sequential
	// StaleAdaptive equivalence).
	const n = 1000
	const m = int64(32 * n)
	out := protocol.Run(NewAdaptive(int64(n)), n, m, rng.New(9))
	if perBall := float64(out.Samples) / float64(m); perBall > 3 {
		t.Fatalf("samples/ball %.2f not O(1)", perBall)
	}
}

func TestPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"greedy n=0":   func() { protocol.Run(NewGreedy(1, 2), 0, 1, rng.New(1)) },
		"greedy m<0":   func() { protocol.Run(NewGreedy(1, 2), 1, -1, rng.New(1)) },
		"greedy b<1":   func() { NewGreedy(0, 2) },
		"greedy d<1":   func() { NewGreedy(1, 0) },
		"adaptive b<1": func() { NewAdaptive(0) },
		"adaptive b>n": func() { protocol.Run(NewAdaptive(5), 4, 8, rng.New(1)) },
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

func BenchmarkBatchedGreedy(b *testing.B) {
	const n = 4096
	for i := 0; i < b.N; i++ {
		protocol.Run(NewGreedy(int64(n), 2), n, int64(8*n), rng.New(uint64(i)))
	}
}
