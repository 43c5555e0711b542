package serve

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/url"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	ballsbins "repro"
	"repro/internal/hdrhist"
	"repro/internal/watch"
)

func newTestDispatcher(t *testing.T, n, shards int) *Dispatcher {
	t.Helper()
	d := NewDispatcher(Config{
		Spec:   ballsbins.Adaptive(),
		N:      n,
		Shards: shards,
		Seed:   1,
	})
	t.Cleanup(d.Close)
	return d
}

func TestDispatcherPlaceRemove(t *testing.T) {
	d := newTestDispatcher(t, 64, 4)
	ctx := context.Background()

	bin, samples, err := d.Place(ctx)
	if err != nil || bin < 0 || bin >= 64 || samples < 1 {
		t.Fatalf("Place = (%d, %d, %v)", bin, samples, err)
	}
	if err := d.Remove(ctx, bin); err != nil {
		t.Fatalf("Remove(%d) = %v", bin, err)
	}
	if err := d.Remove(ctx, bin); err != ErrEmptyBin {
		t.Fatalf("Remove from empty bin = %v, want ErrEmptyBin", err)
	}
	if err := d.Remove(ctx, -1); err == nil {
		t.Fatal("Remove(-1) accepted")
	}
	if err := d.Remove(ctx, 64); err == nil {
		t.Fatal("Remove(64) accepted")
	}
	if _, _, err := d.PlaceMany(ctx, 0); err == nil {
		t.Fatal("PlaceMany(0) accepted")
	}
}

func TestDispatcherPlaceMany(t *testing.T) {
	const n, shards, k = 60, 7, 100
	d := newTestDispatcher(t, n, shards)
	bins, samples, err := d.PlaceMany(context.Background(), k)
	if err != nil {
		t.Fatalf("PlaceMany: %v", err)
	}
	if len(bins) != k || samples < k {
		t.Fatalf("PlaceMany returned %d bins, %d samples", len(bins), samples)
	}
	for _, b := range bins {
		if b < 0 || b >= n {
			t.Fatalf("bin %d out of range", b)
		}
	}
	sa := d.Allocator()
	if sa.Balls() != k || sa.Samples() != samples {
		t.Fatalf("allocator holds %d balls / %d samples, want %d / %d",
			sa.Balls(), sa.Samples(), k, samples)
	}
	// Round-robin ticketing spreads a bulk arrival evenly: per-shard
	// ball counts stay within one of each other.
	minB, maxB := int64(1<<62), int64(0)
	for s := 0; s < shards; s++ {
		var balls int64
		sa.WithShardLocked(s, func(a *ballsbins.Allocator, base int) { balls = a.Balls() })
		if balls < minB {
			minB = balls
		}
		if balls > maxB {
			maxB = balls
		}
	}
	if maxB-minB > 1 {
		t.Fatalf("bulk placement skewed shards: min %d max %d", minB, maxB)
	}
}

// TestDispatcherOneLockPerRequest drives one shard from 16 goroutines
// and checks the stats pipeline's exact operation counts: every
// request takes its own shard lock, so requests, lock acquisitions and
// latency samples all equal the op count.
func TestDispatcherOneLockPerRequest(t *testing.T) {
	const n, workers, perWorker = 32, 16, 200
	d := newTestDispatcher(t, n, 1) // one shard: every request shares its lock
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, _, err := d.Place(ctx); err != nil {
					t.Errorf("Place: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	v := d.Stats()
	if v.Placed != workers*perWorker || v.Balls != workers*perWorker {
		t.Fatalf("stats placed/balls = %d/%d, want %d", v.Placed, v.Balls, workers*perWorker)
	}
	if row := v.Shards[0]; row.Requests != workers*perWorker || row.Batches != workers*perWorker {
		t.Fatalf("stats requests/batches = %d/%d, want %d", row.Requests, row.Batches, workers*perWorker)
	}
	if lat := d.Latency(); lat.Count != workers*perWorker {
		t.Fatalf("latency histogram recorded %d ops, want %d", lat.Count, workers*perWorker)
	}
}

// TestDispatcherHammer is the -race acceptance test for the dispatch
// core: mixed concurrent Place/PlaceMany/Remove plus monitoring reads,
// then exact bookkeeping and the sharded adaptive max-load bound
// ⌈⌈m/P⌉/⌊n/P⌋⌉ + 1 on the cumulative placements m (live load only
// ever being smaller, the bound holds a fortiori under churn).
func TestDispatcherHammer(t *testing.T) {
	const n, shards, workers, perWorker = 128, 8, 12, 600
	d := newTestDispatcher(t, n, shards)
	ctx := context.Background()
	var placed, removed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []int
			for i := 0; i < perWorker; i++ {
				switch {
				case w%3 == 0 && i%5 == 4: // occasional small bulk
					bins, _, err := d.PlaceMany(ctx, 3)
					if err != nil {
						t.Errorf("PlaceMany: %v", err)
						return
					}
					mine = append(mine, bins...)
					placed.Add(int64(len(bins)))
				default:
					bin, _, err := d.Place(ctx)
					if err != nil {
						t.Errorf("Place: %v", err)
						return
					}
					mine = append(mine, bin)
					placed.Add(1)
				}
				if i%3 == 2 { // churn the oldest of our live balls
					if err := d.Remove(ctx, mine[0]); err != nil {
						t.Errorf("Remove(%d): %v", mine[0], err)
						return
					}
					mine = mine[1:]
					removed.Add(1)
				}
				if i%64 == 0 {
					_ = d.Stats()   // lock-free monitoring read under fire
					_ = d.Latency() // histogram read under fire
				}
			}
		}(w)
	}
	wg.Wait()

	sa := d.Allocator()
	if sa.Placed() != placed.Load() {
		t.Fatalf("Placed() = %d want %d", sa.Placed(), placed.Load())
	}
	if want := placed.Load() - removed.Load(); sa.Balls() != want {
		t.Fatalf("Balls() = %d want %d", sa.Balls(), want)
	}
	var sum int64
	for _, l := range sa.Loads() {
		sum += int64(l)
	}
	if sum != sa.Balls() {
		t.Fatalf("loads sum %d != Balls %d", sum, sa.Balls())
	}
	ceil := func(a, b int64) int64 { return (a + b - 1) / b }
	bound := ceil(ceil(placed.Load(), shards), n/shards) + 1
	if got := int64(sa.MaxLoad()); got > bound {
		t.Fatalf("max load %d beyond sharded adaptive bound %d", sa.MaxLoad(), bound)
	}
	// The eventually-consistent stats converge exactly at quiescence.
	v := d.Stats()
	if v.Placed != placed.Load() || v.Balls != sa.Balls() || v.Removed != removed.Load() {
		t.Fatalf("quiescent stats diverge: %+v", v)
	}
	if v.MaxLoad != sa.MaxLoad() || v.Psi != sa.Psi() {
		t.Fatalf("quiescent stats max/psi = %d/%v, allocator %d/%v",
			v.MaxLoad, v.Psi, sa.MaxLoad(), sa.Psi())
	}
}

// TestDispatcherDrain closes the dispatcher while traffic is in
// flight: every accepted request must complete, every refused request
// must report ErrDraining, and the books must balance exactly.
func TestDispatcherDrain(t *testing.T) {
	const n, shards, workers = 64, 4, 8
	d := NewDispatcher(Config{Spec: ballsbins.Adaptive(), N: n, Shards: shards, Seed: 3})
	ctx := context.Background()
	var accepted, refused atomic.Int64
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for {
				_, _, err := d.Place(ctx)
				switch err {
				case nil:
					accepted.Add(1)
				case ErrDraining:
					refused.Add(1)
					return
				default:
					t.Errorf("Place during drain: %v", err)
					return
				}
			}
		}()
	}
	close(start)
	for accepted.Load() < 500 { // let traffic build before pulling the plug
		runtime.Gosched()
	}
	d.Close()
	wg.Wait()
	if refused.Load() != workers {
		t.Fatalf("refused %d workers, want %d", refused.Load(), workers)
	}
	if got := d.Allocator().Balls(); got != accepted.Load() {
		t.Fatalf("allocator holds %d balls, callers saw %d accepted", got, accepted.Load())
	}
	// Close is idempotent, and post-close traffic is refused.
	d.Close()
	if _, _, err := d.Place(ctx); err != ErrDraining {
		t.Fatalf("Place after Close = %v", err)
	}
	if err := d.Remove(ctx, 0); err != ErrDraining {
		t.Fatalf("Remove after Close = %v", err)
	}
}

// TestDispatcherThresholdHorizon checks the horizon plumbing: a
// threshold-family dispatcher must absorb its full declared horizon.
func TestDispatcherThresholdHorizon(t *testing.T) {
	const n, shards, m = 10, 3, 60
	d := NewDispatcher(Config{
		Spec: ballsbins.Threshold(), N: n, Shards: shards, Seed: 2, Horizon: m,
	})
	defer d.Close()
	bins, _, err := d.PlaceMany(context.Background(), m)
	if err != nil || len(bins) != m {
		t.Fatalf("PlaceMany(%d) = %d bins, %v", m, len(bins), err)
	}
}

// TestDispatcherAllocs pins the allocation cost of each call at the
// production obs default. The one allocation a single-ball op makes
// is its shard's fresh stats row; a bulk makes its bins slice and one
// row per shard it touches (its shard counts live on the stack). (The
// watchdog is off: its ticks would allocate in the middle of the
// count.)
func TestDispatcherAllocs(t *testing.T) {
	const n, shards = 256, 8
	d := NewDispatcher(Config{
		Spec: ballsbins.Adaptive(), N: n, Shards: shards, Seed: 1,
		Watch: watch.Options{Disabled: true},
	})
	t.Cleanup(d.Close)
	ctx := context.Background()
	const runs = 500
	bins, _, err := d.PlaceMany(ctx, runs+1) // one ball per Remove run
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.PlaceKeyed(ctx, "hot"); err != nil { // later calls hit
		t.Fatal(err)
	}
	check := func(name string, want float64, f func()) {
		t.Helper()
		if got := testing.AllocsPerRun(runs, f); got > want {
			t.Errorf("%s: %v allocs per call, want at most %v", name, got, want)
		}
	}
	check("Place", 1, func() { d.Place(ctx) })
	check("PlaceKeyed (hit)", 1, func() { d.PlaceKeyed(ctx, "hot") })
	i := 0
	check("Remove", 1, func() {
		if err := d.Remove(ctx, bins[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	for _, k := range []int{1, 3, shards, 100, 1000} {
		check(fmt.Sprintf("PlaceMany(%d)", k), float64(1+min(k, shards)), func() { d.PlaceMany(ctx, k) })
	}
}

// TestDispatcherCloseRace is the -race test for the drain contract
// with every caller on one shard: 16 goroutines of mixed Place,
// PlaceMany, PlaceKeyed and Remove run until Close refuses them.
// Every refusal must be ErrDraining, the books must balance, and no
// admitted call may still be running when Close returns — each
// records one latency sample just before it returns, so the count
// Close leaves behind must already be final and equal the admitted
// calls.
func TestDispatcherCloseRace(t *testing.T) {
	const workers = 16
	d := NewDispatcher(Config{Spec: ballsbins.Adaptive(), N: 64, Shards: 1, Seed: 5})
	ctx := context.Background()
	var admitted, balls atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []int
			for i := 0; ; i++ {
				var bins []int
				var err error
				switch i % 4 {
				case 0:
					var bin int
					bin, _, err = d.Place(ctx)
					bins = []int{bin}
				case 1:
					bins, _, err = d.PlaceMany(ctx, 1+w%3)
				case 2:
					var bin int
					bin, _, err = d.PlaceKeyed(ctx, fmt.Sprintf("w%d-k%d", w, i%5))
					bins = []int{bin}
				case 3:
					err = d.Remove(ctx, mine[0])
					if err == nil {
						mine = mine[1:]
						balls.Add(-1)
					}
				}
				if err == ErrDraining {
					return
				}
				if err != nil {
					t.Errorf("worker %d op %d: %v", w, i, err)
					return
				}
				admitted.Add(1)
				mine = append(mine, bins...)
				balls.Add(int64(len(bins)))
			}
		}(w)
	}
	for admitted.Load() < 2000 { // let traffic build before pulling the plug
		runtime.Gosched()
	}
	d.Close()
	atClose := d.Latency().Count
	statsAtClose := d.Stats()
	wg.Wait()

	if got := d.Latency().Count; got != atClose || got != admitted.Load() {
		t.Fatalf("latency samples: %d when Close returned, %d at the end, %d admitted calls",
			atClose, got, admitted.Load())
	}
	if v := d.Stats(); v.Placed != statsAtClose.Placed || v.Removed != statsAtClose.Removed {
		t.Fatalf("stats moved after Close returned: %+v then %+v", statsAtClose, v)
	}
	sa := d.Allocator()
	if sa.Balls() != balls.Load() || statsAtClose.Balls != balls.Load() {
		t.Fatalf("allocator holds %d balls, stats %d, callers %d",
			sa.Balls(), statsAtClose.Balls, balls.Load())
	}
	if statsAtClose.Placed-statsAtClose.Removed != statsAtClose.Balls {
		t.Fatalf("books: placed %d - removed %d != balls %d",
			statsAtClose.Placed, statsAtClose.Removed, statsAtClose.Balls)
	}
}

// TestDispatcherStageRecords pins what each op records: one op total
// under its name ("place" or "remove") and one queue and one apply
// span per shard lock taken, with the dispatch latency the union of
// the two op totals. k places, j removes and one bulk spanning every
// shard must leave exactly those counts, no more and no fewer.
func TestDispatcherStageRecords(t *testing.T) {
	const n, shards, k, j, bulk = 64, 4, 30, 12, 10
	d := NewDispatcher(Config{
		Spec: ballsbins.Adaptive(), N: n, Shards: shards, Seed: 9,
		Watch: watch.Options{Disabled: true},
	})
	t.Cleanup(d.Close)
	ctx := context.Background()
	var bins []int
	for i := 0; i < k; i++ {
		bin, _, err := d.Place(ctx)
		if err != nil {
			t.Fatal(err)
		}
		bins = append(bins, bin)
	}
	for _, bin := range bins[:j] {
		if err := d.Remove(ctx, bin); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := d.PlaceMany(ctx, bulk); err != nil { // one chunk per shard
		t.Fatal(err)
	}
	st := d.Obs().StageSummaries()
	places, removes := int64(k+shards), int64(j)
	if st["place"].Count != places || st["remove"].Count != removes {
		t.Fatalf("op totals: place %d, remove %d; want %d, %d", st["place"].Count, st["remove"].Count, places, removes)
	}
	if st["queue"].Count != places+removes || st["apply"].Count != places+removes {
		t.Fatalf("spans: queue %d, apply %d; want %d each", st["queue"].Count, st["apply"].Count, places+removes)
	}
	if got := d.Latency().Count; got != places+removes {
		t.Fatalf("latency count %d, want place + remove = %d", got, places+removes)
	}
}

// allocsPerCall is testing.AllocsPerRun that also reports bytes: the
// mean heap allocations and bytes of one call of f, measured on one
// P after a warm-up call. ReadMemStats counts every goroutine's
// allocations, and a stray one from elsewhere only adds to a window,
// so each figure is the least over several windows of runs calls.
func allocsPerCall(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	allocs, bytes = math.Inf(1), math.Inf(1)
	for w := 0; w < 5; w++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		allocs = min(allocs, float64(after.Mallocs-before.Mallocs)/float64(runs))
		bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/float64(runs))
	}
	return allocs, bytes
}

// TestStatsReadAllocs pins the allocation cost of the two stats
// surfaces a poller reads, /v1/stats (StatsDoc) and /metrics
// (WriteMetrics), to the parent commit's. Both read the dispatch
// latency, which is now the union of two histograms. A snapshot's cost
// grows with its non-empty buckets, and these depend on timing, so the
// bound is: what one snapshot of a single histogram with the same
// buckets costs, plus the rest of the parent's cost, measured with this
// harness for 1,024 bins and 8 shards after 200k ops. (The parent
// allocated 16 objects and 13,880 B per StatsDoc when its latency
// histogram had 129-256 non-empty buckets.) Reading the union as two
// snapshots and a Merge would cost three snapshots and fail here.
func TestStatsReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	const (
		docRestAllocs, docRestBytes         = 7, 1616
		metricsRestAllocs, metricsRestBytes = 114, 2729
	)
	d := NewDispatcher(Config{
		Spec: ballsbins.Adaptive(), N: 1024, Shards: 8, Seed: 1,
		Watch: watch.Options{Disabled: true},
	})
	t.Cleanup(d.Close)
	ctx := context.Background()
	q, _, err := d.PlaceMany(ctx, 8*1024)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100_000; i++ {
		bin, _, err := d.Place(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Remove(ctx, q[i%len(q)]); err != nil {
			t.Fatal(err)
		}
		q[i%len(q)] = bin
	}
	ref := hdrhist.New()
	for _, b := range d.Latency().Buckets() {
		ref.Record(b.Lo)
	}
	snapAllocs, snapBytes := allocsPerCall(200, func() { ref.Snapshot() })
	check := func(name string, restAllocs, restBytes float64, f func()) {
		t.Helper()
		allocs, bytes := allocsPerCall(200, f)
		if allocs > restAllocs+snapAllocs || bytes > restBytes+snapBytes {
			t.Errorf("%s: %v allocs, %v B per call; the parent's cost at these buckets is %v allocs, %v B",
				name, allocs, bytes, restAllocs+snapAllocs, restBytes+snapBytes)
		}
	}
	check("Latency", 0, 0, func() { d.Latency() })
	check("StatsDoc", docRestAllocs, docRestBytes, func() { d.StatsDoc(StatsResponse{}, url.Values{}) })
	check("WriteMetrics", metricsRestAllocs, metricsRestBytes, func() { d.WriteMetrics(io.Discard) })
}
