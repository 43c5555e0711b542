package ballsbins

import (
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/dist"
	"repro/internal/loadvec"
)

// allocSpecs enumerates every protocol Spec with parameters feasible
// for the n=64, m=640 equivalence grid (FixedThreshold capacity
// 64·16 ≥ 640, StaleAdaptive/LaggedAdaptive/BatchedAdaptive windows
// ≤ n).
func allocSpecs() []struct {
	name string
	spec Spec
} {
	return []struct {
		name string
		spec Spec
	}{
		{"adaptive", Adaptive()},
		{"threshold", Threshold()},
		{"adaptive-noslack", AdaptiveNoSlack()},
		{"single", SingleChoice()},
		{"greedy2", Greedy(2)},
		{"left2", Left(2)},
		{"memory11", Memory(1, 1)},
		{"fixed16", FixedThreshold(16)},
		{"oneplusbeta", OnePlusBeta(0.5)},
		{"stale8", StaleAdaptive(8)},
		{"lag4", LaggedAdaptive(4)},
		{"retry3", BoundedRetry(3)},
		{"batched-greedy", BatchedGreedy(16, 2)},
		{"batched-adaptive", BatchedAdaptive(16)},
	}
}

// TestAllocatorBallByBallMatchesRun is the core equivalence contract:
// an Allocator stepped one Place at a time reproduces Run's Result
// exactly — same seed, same engine, every protocol. For the fast
// engine this is the nontrivial half of the refactor: the per-ball
// bucket-index path must consume the random stream identically to the
// fused histogram batch path and select the same load levels.
func TestAllocatorBallByBallMatchesRun(t *testing.T) {
	const n, m = 64, 640
	for _, tc := range allocSpecs() {
		for _, e := range []Engine{EngineFast, EngineNaive} {
			want := Run(tc.spec, n, m, WithSeed(11), WithEngine(e))
			a := New(tc.spec, n, WithSeed(11), WithEngine(e), WithHorizon(m))
			for i := 0; i < m; i++ {
				bin, samples := a.Place()
				if bin < 0 || bin >= n {
					t.Fatalf("%s/%v: Place returned bin %d", tc.name, e, bin)
				}
				if samples < 1 {
					t.Fatalf("%s/%v: Place reported %d samples", tc.name, e, samples)
				}
			}
			if got := a.Metrics(); got != want {
				t.Errorf("%s/%v: ball-by-ball Metrics() = %+v, Run = %+v", tc.name, e, got, want)
			}
			if a.Balls() != m || a.Placed() != m {
				t.Errorf("%s/%v: balls=%d placed=%d want %d", tc.name, e, a.Balls(), a.Placed(), m)
			}
		}
	}
}

// TestAllocatorPlaceBatchMatchesRun checks that PlaceBatch — in
// uneven chunks, exercising the stage-anchored histogram batching —
// also reproduces Run exactly, and that the allocator's Snapshot
// agrees with the final Result.
func TestAllocatorPlaceBatchMatchesRun(t *testing.T) {
	const n, m = 64, 640
	chunks := []int64{1, 63, 100, 256, 220}
	for _, tc := range allocSpecs() {
		for _, e := range []Engine{EngineFast, EngineNaive} {
			want := Run(tc.spec, n, m, WithSeed(23), WithEngine(e))
			a := New(tc.spec, n, WithSeed(23), WithEngine(e), WithHorizon(m))
			var placed, samples int64
			for _, c := range chunks {
				samples += a.PlaceBatch(c)
				placed += c
			}
			if placed != m {
				t.Fatalf("test bug: chunks sum to %d", placed)
			}
			if got := a.Metrics(); got != want {
				t.Errorf("%s/%v: chunked PlaceBatch Metrics() = %+v, Run = %+v", tc.name, e, got, want)
			}
			if samples != want.Samples {
				t.Errorf("%s/%v: PlaceBatch returned %d samples total, want %d",
					tc.name, e, samples, want.Samples)
			}
			snap := a.Snapshot()
			if snap.Ball != m || snap.Samples != want.Samples ||
				snap.MaxLoad != want.MaxLoad || snap.Gap != want.Gap || snap.Psi != want.Psi {
				t.Errorf("%s/%v: Snapshot %+v inconsistent with Result %+v", tc.name, e, snap, want)
			}
		}
	}
}

// TestAllocatorHistMode checks the lazy materialization contract: a
// fast-engine allocator for a histogram-capable spec batches without
// bin identities, and the first identity-dependent call switches it
// permanently to the per-bin vector.
func TestAllocatorHistMode(t *testing.T) {
	a := New(Adaptive(), 32, WithSeed(1))
	if !a.sess.HistMode() {
		t.Fatal("fresh fast adaptive allocator not in hist mode")
	}
	a.PlaceBatch(100)
	if !a.sess.HistMode() {
		t.Fatal("PlaceBatch materialized the vector")
	}
	if a.MaxLoad() <= 0 || a.Balls() != 100 {
		t.Fatalf("hist-mode stats wrong: max=%d balls=%d", a.MaxLoad(), a.Balls())
	}
	bin, _ := a.Place()
	if a.sess.HistMode() {
		t.Fatal("Place left the session in hist mode")
	}
	if got := a.Load(bin); got < 1 {
		t.Fatalf("Load(%d) = %d after placing there", bin, got)
	}
	// Naive engine never uses hist mode.
	b := New(Adaptive(), 32, WithSeed(1), WithEngine(EngineNaive))
	if b.sess.HistMode() {
		t.Fatal("naive allocator in hist mode")
	}
}

// TestAllocatorChurn drives place/remove cycles and checks every load
// vector invariant plus the allocator's bookkeeping after each phase.
func TestAllocatorChurn(t *testing.T) {
	const n = 48
	for _, tc := range allocSpecs() {
		for _, e := range []Engine{EngineFast, EngineNaive} {
			a := New(tc.spec, n, WithSeed(7), WithEngine(e), WithHorizon(10*n))
			var live []int // multiset of bins holding our balls
			for round := 0; round < 8; round++ {
				for i := 0; i < 2*n; i++ {
					bin, _ := a.Place()
					live = append(live, bin)
				}
				// Remove every third live ball, newest first.
				for i := len(live) - 1; i >= 0; i -= 3 {
					a.Remove(live[i])
					live = append(live[:i], live[i+1:]...)
				}
				if err := a.sess.Vector().Validate(); err != nil {
					t.Fatalf("%s/%v round %d: %v", tc.name, e, round, err)
				}
				if a.Balls() != int64(len(live)) {
					t.Fatalf("%s/%v round %d: Balls()=%d want %d",
						tc.name, e, round, a.Balls(), len(live))
				}
			}
			counts := make([]int, n)
			for _, b := range live {
				counts[b]++
			}
			for bin, want := range counts {
				if got := a.Load(bin); got != want {
					t.Fatalf("%s/%v: bin %d load %d want %d", tc.name, e, bin, got, want)
				}
			}
			if a.Placed() != 16*n || a.Placed()-a.Balls() != a.sess.Removed() {
				t.Fatalf("%s/%v: placed=%d balls=%d removed=%d inconsistent",
					tc.name, e, a.Placed(), a.Balls(), a.sess.Removed())
			}
		}
	}
}

// chiCompareInts buckets two integer samples and applies the
// two-sample chi-square, merging adjacent sparse buckets (pooled
// count < 16) so the approximation holds; p-values below 1e-6 fail,
// matching the engine-equivalence suite in internal/protocol.
func chiCompareInts(t *testing.T, label string, a, b []int64) {
	t.Helper()
	lo, hi := a[0], a[0]
	for _, v := range append(append([]int64(nil), a...), b...) {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	width := hi - lo + 1
	ca := make([]int64, width)
	cb := make([]int64, width)
	for _, v := range a {
		ca[v-lo]++
	}
	for _, v := range b {
		cb[v-lo]++
	}
	var ma, mb []int64
	var accA, accB int64
	for i := int64(0); i < width; i++ {
		accA += ca[i]
		accB += cb[i]
		if accA+accB >= 16 || i == width-1 {
			ma = append(ma, accA)
			mb = append(mb, accB)
			accA, accB = 0, 0
		}
	}
	if len(ma) < 2 {
		return // everything in one bucket: trivially equal
	}
	if _, p := dist.TwoSampleChiSquare(ma, mb); p < 1e-6 {
		t.Errorf("%s: chi-square p = %g, distributions differ", label, p)
	}
}

// TestAllocatorPlaceBatchChiSquareVsNaive checks the distributional
// half of the PlaceBatch contract: the fast batched path (histogram
// hot loop) produces Samples and MaxLoad distributed as the naive
// literal rejection loop, under churn that forces materialization
// mid-stream.
func TestAllocatorPlaceBatchChiSquareVsNaive(t *testing.T) {
	if testing.Short() {
		t.Skip("distributional test")
	}
	const n, reps = 16, 1500
	script := func(spec Spec, e Engine, seed uint64) (samples, maxLoad int64) {
		a := New(spec, n, WithSeed(seed), WithEngine(e), WithHorizon(8*n))
		a.PlaceBatch(4 * n)
		bin, _ := a.Place() // forces materialization under the fast engine
		a.Remove(bin)
		a.PlaceBatch(4 * n)
		return a.Samples(), int64(a.MaxLoad())
	}
	for _, tc := range []struct {
		name string
		spec Spec
	}{
		{"adaptive", Adaptive()},
		{"threshold", Threshold()},
		{"single", SingleChoice()},
		{"retry3", BoundedRetry(3)},
	} {
		var fastS, naiveS, fastM, naiveM []int64
		for rep := 0; rep < reps; rep++ {
			s, m := script(tc.spec, EngineFast, uint64(rep+1))
			fastS, fastM = append(fastS, s), append(fastM, m)
			s, m = script(tc.spec, EngineNaive, uint64(rep+1))
			naiveS, naiveM = append(naiveS, s), append(naiveM, m)
		}
		chiCompareInts(t, tc.name+"/samples", fastS, naiveS)
		chiCompareInts(t, tc.name+"/maxload", fastM, naiveM)
	}
}

// TestBatchedSpecRefreshesUnderChurn pins the batched snapshot
// contract under Allocator churn: the refresh counts placements, not
// the live ball count, so a steady place+remove workload still gets a
// fresh snapshot every b placements and the power-of-two-choices
// benefit survives (a permanently stale all-zero snapshot would let
// loads drift arbitrarily far apart).
func TestBatchedSpecRefreshesUnderChurn(t *testing.T) {
	const n, b = 32, 64
	a := New(BatchedGreedy(b, 2), n, WithSeed(5))
	var live []int
	for i := 0; i < 200*b; i++ {
		bin, _ := a.Place()
		live = append(live, bin)
		if len(live) > 4*n { // hold the live count near 4n < b·2
			a.Remove(live[0])
			live = live[1:]
		}
	}
	// With working refreshes greedy[2] keeps the gap tight; a frozen
	// snapshot degenerates to single-choice-on-zeros and the gap blows
	// past any small bound at this depth (empirically ≥ 15).
	if gap := a.Gap(); gap > 8 {
		t.Fatalf("batched-greedy gap %d under churn: snapshot went stale", gap)
	}
}

func TestNewPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"zero spec":          func() { New(Spec{}, 8) },
		"n=0":                func() { New(Adaptive(), 0) },
		"snapshots option":   func() { New(Adaptive(), 8, WithSnapshots(1, func(Snapshot) {})) },
		"threshold horizon":  func() { New(Threshold(), 8) },
		"retry horizon":      func() { New(BoundedRetry(2), 8) },
		"negative horizon":   func() { WithHorizon(-1) },
		"remove empty":       func() { New(Adaptive(), 8).Remove(3) },
		"sharded shards=0":   func() { NewSharded(Adaptive(), 8, 0) },
		"sharded shards>n":   func() { NewSharded(Adaptive(), 8, 9) },
		"sharded bin range":  func() { NewSharded(Adaptive(), 8, 2).Remove(8) },
		"sharded zero spec":  func() { NewSharded(Spec{}, 8, 2) },
		"sharded n=0":        func() { NewSharded(Adaptive(), 0, 1) },
		"sharded no horizon": func() { NewSharded(Threshold(), 8, 2) },
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

// TestPlaceAtCapacityPanics: FixedThreshold(1) over 4 bins takes four
// balls, and the place past them panics with the rejection loop's
// message on both engines: a fifth Place, or a batch that does not
// fit, which places none of its balls. Each run is on its own
// goroutine against a deadline, so a rejection loop without an exit
// fails the test instead of hanging it.
func TestPlaceAtCapacityPanics(t *testing.T) {
	for _, tc := range []struct {
		name  string
		place func(a *Allocator)
		balls int64 // placed before the refused place
	}{
		{"fifth Place", func(a *Allocator) {
			for range 5 {
				a.Place()
			}
		}, 4},
		{"PlaceBatch(5)", func(a *Allocator) { a.PlaceBatch(5) }, 0},
		{"PlaceBatch(2) then PlaceBatch(3)", func(a *Allocator) { a.PlaceBatch(2); a.PlaceBatch(3) }, 2},
	} {
		for _, e := range []Engine{EngineFast, EngineNaive} {
			books := make(chan [3]int64, 1)
			got := make(chan any, 1)
			go func() {
				a := New(FixedThreshold(1), 4, WithSeed(1), WithEngine(e))
				defer func() {
					books <- [3]int64{a.Balls(), a.Placed(), a.Removed()}
					got <- recover()
				}()
				tc.place(a)
			}()
			select {
			case p := <-got:
				if b := <-books; b != [3]int64{tc.balls, tc.balls, 0} {
					t.Errorf("%s, %s: balls, placed, removed %v after the panic, want %d, %d, 0", tc.name, e, b, tc.balls, tc.balls)
				}
				if p != "protocol: rejection sampling with no acceptable bin" {
					t.Errorf("%s, %s: recovered %v", tc.name, e, p)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s, %s: still running after 5s", tc.name, e)
			}
		}
	}
}

// TestAllocatorHorizonOnlineProtocolsDontNeedIt pins the horizon
// contract: online specs construct without one, and the two
// m-dependent specs work once it is given.
func TestAllocatorHorizonOnlineProtocolsDontNeedIt(t *testing.T) {
	for _, s := range []Spec{Adaptive(), SingleChoice(), Greedy(2), FixedThreshold(4)} {
		a := New(s, 16, WithSeed(1))
		a.PlaceBatch(16)
		if a.Balls() != 16 {
			t.Fatalf("%s: placed %d", s.Name(), a.Balls())
		}
	}
	a := New(Threshold(), 16, WithSeed(1), WithHorizon(64))
	a.PlaceBatch(64)
	if got, want := int64(a.MaxLoad()), MaxLoadGuarantee(16, 64); got > want {
		t.Fatalf("threshold allocator max load %d beyond guarantee %d", got, want)
	}
}

func TestShardedAllocatorSequential(t *testing.T) {
	const n, shards = 60, 7 // deliberately not divisible
	const m = 20 * n
	sa := NewSharded(Adaptive(), n, shards, WithSeed(5))
	var placed []int
	for i := 0; i < m/2; i++ {
		bin, samples := sa.Place()
		if bin < 0 || bin >= n || samples < 1 {
			t.Fatalf("Place returned (%d, %d)", bin, samples)
		}
		placed = append(placed, bin)
	}
	sa.PlaceBatch(int64(m / 2))
	if sa.Balls() != m {
		t.Fatalf("Balls() = %d want %d", sa.Balls(), m)
	}
	// Round-robin bounds each shard's ball count by ⌈m/P⌉ and the
	// smallest shard has ⌊n/P⌋ bins, so the per-shard adaptive
	// guarantee caps the global max load at ⌈⌈m/P⌉/⌊n/P⌋⌉ + 1.
	ceil := func(a, b int64) int64 { return (a + b - 1) / b }
	bound := ceil(ceil(m, shards), n/shards) + 1
	if got := sa.MaxLoad(); int64(got) > bound {
		t.Errorf("sharded max load %d beyond %d", got, bound)
	}
	loads := sa.Loads()
	if len(loads) != n {
		t.Fatalf("Loads() length %d", len(loads))
	}
	var sum, sumSq int64
	min, max := loads[0], loads[0]
	for _, l := range loads {
		sum += int64(l)
		sumSq += int64(l) * int64(l)
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	if sum != m {
		t.Fatalf("loads sum to %d want %d", sum, m)
	}
	res, snap := sa.Metrics(), sa.Snapshot()
	if sa.MaxLoad() != max || res.MinLoad != min || snap.Gap != max-min {
		t.Fatalf("aggregates disagree with Loads: max %d/%d min %d/%d gap %d",
			sa.MaxLoad(), max, res.MinLoad, min, snap.Gap)
	}
	wantPsi := float64(sumSq) - float64(m)*float64(m)/float64(n)
	if snap.Psi != wantPsi {
		t.Fatalf("Snapshot().Psi = %v want %v", snap.Psi, wantPsi)
	}
	if res.MaxLoad != max || res.Gap != max-min || res.Psi != wantPsi || res.Samples != snap.Samples {
		t.Fatalf("Metrics inconsistent: %+v", res)
	}
	if res.Phi <= 0 {
		t.Fatalf("Phi = %v", res.Phi)
	}
	// Removals route back to the owning shard.
	for _, bin := range placed {
		before := sa.Load(bin)
		sa.Remove(bin)
		if sa.Load(bin) != before-1 {
			t.Fatalf("Remove(%d) did not decrement", bin)
		}
	}
	if sa.Balls() != m-int64(len(placed)) {
		t.Fatalf("Balls() = %d after removals", sa.Balls())
	}
}

// TestShardedAllocatorMixedRoundRobin pins the shared-cursor contract:
// Place and PlaceBatch claim tickets from the same round-robin
// counter, so any interleaving keeps per-shard ball counts within one
// of each other.
func TestShardedAllocatorMixedRoundRobin(t *testing.T) {
	const n, shards = 16, 2
	sa := NewSharded(SingleChoice(), n, shards, WithSeed(1))
	for i := 0; i < 20; i++ {
		sa.Place()
		sa.PlaceBatch(1)
		sa.PlaceBatch(3)
	}
	var counts []int64
	for _, sh := range sa.shards {
		counts = append(counts, sh.a.Balls())
	}
	if diff := counts[0] - counts[1]; diff > 1 || diff < -1 {
		t.Fatalf("mixed Place/PlaceBatch skewed shards: %v", counts)
	}
}

// TestShardedAllocatorThresholdHorizon pins the horizon split: a
// horizon-bound spec must absorb its full declared horizon through any
// mix of entry points, even when shard sizes are uneven (each shard
// can receive up to ⌈m/P⌉ balls regardless of its bin share).
func TestShardedAllocatorThresholdHorizon(t *testing.T) {
	const n, shards = 5, 2 // shard sizes 2 and 3
	const m = 40
	sa := NewSharded(Threshold(), n, shards, WithSeed(2), WithHorizon(m))
	for i := 0; i < m/2; i++ {
		sa.Place()
	}
	sa.PlaceBatch(m / 2)
	if sa.Balls() != m {
		t.Fatalf("placed %d of horizon %d", sa.Balls(), m)
	}
	// Same script under the naive engine (the literal rejection loop
	// would spin forever on an exhausted shard rather than panic).
	sb := NewSharded(Threshold(), n, shards, WithSeed(2), WithHorizon(m), WithEngine(EngineNaive))
	for i := 0; i < m; i++ {
		sb.Place()
	}
	if sb.Balls() != m {
		t.Fatalf("naive placed %d of horizon %d", sb.Balls(), m)
	}
}

// TestShardedAllocatorShardMetrics pins the one-shard monitoring read:
// each shard's result must equal the shard allocator's own metrics,
// before and after removals, and an index out of range panics.
func TestShardedAllocatorShardMetrics(t *testing.T) {
	const n, shards, m = 60, 7, 600
	sa := NewSharded(Adaptive(), n, shards, WithSeed(11))
	sa.PlaceBatch(m)
	check := func(when string) {
		t.Helper()
		for i := 0; i < shards; i++ {
			got := sa.ShardMetrics(i)
			want := sa.shards[i].a.Metrics()
			if got != want {
				t.Errorf("%s ShardMetrics(%d) = %+v, shard allocator says %+v", when, i, got, want)
			}
		}
	}
	check("quiescent")
	for b := 0; b < n; b++ {
		if sa.Load(b) > 0 {
			sa.Remove(b)
		}
	}
	check("post-churn")
	for _, bad := range []int{-1, shards} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ShardMetrics(%d) did not panic", bad)
				}
			}()
			sa.ShardMetrics(bad)
		}()
	}
}

// TestShardedMetricsMatchOneVector checks the one reader of the
// shards' merged histogram against an independent reference: the
// sharded Metrics must give exactly the max, min, gap, Ψ and Φ of a
// single load vector built from Loads, on both engines, for every
// shard count, before and after removals.
func TestShardedMetricsMatchOneVector(t *testing.T) {
	const n, m = 97, 20 * 97
	for _, spec := range []Spec{Adaptive(), Threshold(), SingleChoice(), Greedy(2)} {
		for _, engine := range []Engine{EngineFast, EngineNaive} {
			for _, shards := range []int{1, 3, 7, 16} {
				sa := NewSharded(spec, n, shards, WithSeed(4), WithEngine(engine), WithHorizon(m))
				check := func(when string) {
					t.Helper()
					v := loadvec.New(n)
					for bin, l := range sa.Loads() {
						for range l {
							v.Increment(bin)
						}
					}
					got := sa.Metrics()
					if got.MaxLoad != v.MaxLoad() || got.MinLoad != v.MinLoad() || got.Gap != v.Gap() ||
						got.Psi != v.QuadraticPotential() || got.Phi != v.ExponentialPotential(loadvec.DefaultEpsilon) {
						t.Errorf("%s engine=%v P=%d %s: Metrics %+v, one vector: max %d min %d gap %d psi %v phi %v",
							spec.Name(), engine, shards, when, got, v.MaxLoad(), v.MinLoad(), v.Gap(),
							v.QuadraticPotential(), v.ExponentialPotential(loadvec.DefaultEpsilon))
					}
				}
				sa.PlaceBatch(m / 2)
				check("after a batch")
				var bins []int
				for range m / 4 {
					bin, _ := sa.Place()
					bins = append(bins, bin)
				}
				for i := 0; i < len(bins); i += 3 {
					sa.Remove(bins[i])
				}
				check("after removals")
			}
		}
	}
}

// TestShardedAllocatorConcurrent hammers one ShardedAllocator from
// many goroutines doing placements and departures; run under -race it
// is the concurrency-safety acceptance test, and the final bookkeeping
// must balance exactly.
func TestShardedAllocatorConcurrent(t *testing.T) {
	const n, shards, workers, perWorker = 128, 8, 16, 2000
	sa := NewSharded(Adaptive(), n, shards, WithSeed(9))
	var wg sync.WaitGroup
	removedCounts := make([]int64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []int
			for i := 0; i < perWorker; i++ {
				bin, _ := sa.Place()
				mine = append(mine, bin)
				if i%3 == 2 { // churn: drop the oldest of our live balls
					sa.Remove(mine[0])
					mine = mine[1:]
					removedCounts[w]++
				}
				if i%64 == 0 {
					_ = sa.Snapshot() // aggregate reads race against writes
					_ = sa.Metrics()  // Φ's merged levels, read with all shards locked
					_ = sa.MaxLoad()
				}
			}
		}(w)
	}
	wg.Wait()
	var removed int64
	for _, c := range removedCounts {
		removed += c
	}
	const totalPlaced = int64(workers * perWorker)
	if sa.Placed() != totalPlaced {
		t.Fatalf("Placed() = %d want %d", sa.Placed(), totalPlaced)
	}
	if sa.Balls() != totalPlaced-removed {
		t.Fatalf("Balls() = %d want %d", sa.Balls(), totalPlaced-removed)
	}
	var sum int64
	for _, l := range sa.Loads() {
		sum += int64(l)
	}
	if sum != sa.Balls() {
		t.Fatalf("loads sum %d != Balls %d", sum, sa.Balls())
	}
}

// TestShardedAllocatorCacheLines pins the layout that keeps concurrent
// callers from false sharing: each shard header is exactly one cache
// line (Go's allocator starts every object of the 64-byte size class on
// a 64-byte boundary, so no two headers share a line), and the ticket
// cursor, written by every ticket, fills a line of its own away from
// the shards slice every op reads. The addresses of a live allocator
// confirm the alignment.
func TestShardedAllocatorCacheLines(t *testing.T) {
	var sa ShardedAllocator
	if got := unsafe.Sizeof(shard{}); got != cacheLine {
		t.Errorf("shard header is %d B, want one %d B cache line", got, cacheLine)
	}
	if off, size := unsafe.Offsetof(sa.next), unsafe.Sizeof(sa); off != cacheLine || size != 2*cacheLine {
		t.Errorf("cursor at offset %d of a %d B struct, want the whole second of two %d B lines", off, size, cacheLine)
	}
	live := NewSharded(Adaptive(), 64, 8)
	if addr := uintptr(unsafe.Pointer(&live.next)); addr%cacheLine != 0 {
		t.Errorf("cursor at %#x, not on a cache-line boundary", addr)
	}
	for i, sh := range live.shards {
		if addr := uintptr(unsafe.Pointer(sh)); addr%cacheLine != 0 {
			t.Errorf("shard %d header at %#x, not on a cache-line boundary", i, addr)
		}
	}
}

// FuzzAllocatorChurn drives an Allocator with an arbitrary tape of
// placements, batched placements and removals, and checks the load
// vector invariants and ball bookkeeping after every operation batch.
// Byte semantics: 0x00–0x7F place (low 5 bits + 1 balls via PlaceBatch
// when bit 5 set, else one Place); 0x80–0xFF remove from bin (op mod
// n), skipped when empty.
func FuzzAllocatorChurn(f *testing.F) {
	f.Add([]byte{0x01, 0x21, 0x80, 0x05}, true)
	f.Add([]byte{0x3F, 0x81, 0x82, 0x83, 0x20}, false)
	f.Add([]byte{}, true)
	f.Fuzz(func(t *testing.T, tape []byte, fast bool) {
		const n = 13
		engine := EngineNaive
		if fast {
			engine = EngineFast
		}
		a := New(Adaptive(), n, WithSeed(3), WithEngine(engine))
		var placed, removed int64
		for _, op := range tape {
			if op&0x80 != 0 {
				bin := int(op) % n
				if a.Load(bin) > 0 {
					a.Remove(bin)
					removed++
				}
				continue
			}
			if op&0x20 != 0 {
				k := int64(op&0x1F) + 1
				a.PlaceBatch(k)
				placed += k
			} else {
				bin, _ := a.Place()
				if bin < 0 || bin >= n {
					t.Fatalf("Place returned %d", bin)
				}
				placed++
			}
		}
		if a.Placed() != placed || a.Balls() != placed-removed {
			t.Fatalf("bookkeeping: placed=%d/%d balls=%d/%d",
				a.Placed(), placed, a.Balls(), placed-removed)
		}
		if err := a.sess.Vector().Validate(); err != nil {
			t.Fatalf("invariants after %d ops: %v", len(tape), err)
		}
	})
}
