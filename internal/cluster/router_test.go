package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	ballsbins "repro"
	"repro/internal/keyed"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/watch"
)

// newInprocCluster builds k in-proc backends (n bins, 1 shard each)
// and a router with the given policy and no background loops — fully
// deterministic under the seed.
func newInprocCluster(t testing.TB, k, n int, policy Policy, seed uint64) (*Router, []*serve.Dispatcher) {
	t.Helper()
	backends := make([]Backend, k)
	ds := make([]*serve.Dispatcher, k)
	for i := range backends {
		d := serve.NewDispatcher(serve.Config{
			Spec: ballsbins.Adaptive(), N: n, Shards: 1, Seed: seed + uint64(i),
		})
		ds[i] = d
		backends[i] = &InprocBackend{D: d, Label: fmt.Sprintf("b%d", i)}
	}
	rt := NewRouter(Config{
		Backends:       backends,
		BinsPerBackend: n,
		Policy:         policy,
		Seed:           seed,
	})
	t.Cleanup(func() {
		rt.Close()
		for _, d := range ds {
			d.Close()
		}
	})
	return rt, ds
}

// policyNamed resolves a routing policy by name, with d = 2 and
// retries = 2 for the names that take them.
func policyNamed(name string) Policy {
	p, err := PolicyByName(name, 2, 2, 0, 0)
	if err != nil {
		panic(err)
	}
	return p
}

// skewBulks reproduces the skew scenario's arrival pattern
// deterministically: Zipf(1.5) bulk sizes on [1,32], totalling at
// least total balls.
func skewBulks(seed int64, total int) []int {
	rnd := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rnd, 1.5, 1, 31)
	var bulks []int
	for placed := 0; placed < total; {
		b := int(zipf.Uint64()) + 1
		bulks = append(bulks, b)
		placed += b
	}
	return bulks
}

// routeBulks drives the router with the bulk sequence and returns the
// cross-backend gap it ends with.
func routeBulks(t *testing.T, rt *Router, bulks []int) Stats {
	t.Helper()
	ctx := context.Background()
	for _, b := range bulks {
		if _, _, err := rt.Place(ctx, b); err != nil {
			t.Fatalf("Place(%d): %v", b, err)
		}
	}
	return rt.Stats()
}

// TestPolicyGapOrdering is the acceptance gate: with 8 in-proc
// backends under the skew arrival pattern (Zipf bulks, the same
// distribution the load generator's skew scenario uses), 2-choice and
// adaptive routing must each achieve a strictly lower cross-backend
// max-load gap than random routing, under fixed seeds.
func TestPolicyGapOrdering(t *testing.T) {
	const (
		k     = 8
		n     = 4096
		total = 20000
		seed  = 42
	)
	bulks := skewBulks(7, total)

	gaps := map[string]int64{}
	balls := map[string]int64{}
	for _, tc := range []struct {
		key    string
		policy Policy
	}{
		{"single", policyNamed("single")},
		{"greedy2", policyNamed("greedy")},
		{"adaptive", policyNamed("adaptive")},
	} {
		rt, _ := newInprocCluster(t, k, n, tc.policy, seed)
		st := routeBulks(t, rt, bulks)
		gaps[tc.key] = st.BackendGap
		balls[tc.key] = st.Balls
		t.Logf("%-8s gap=%4d max=%d min=%d probes/pick=%.2f",
			tc.key, st.BackendGap, st.MaxBackendBalls, st.MinBackendBalls, st.ProbesPerPick)
	}

	// All policies routed the same ball total.
	if balls["single"] != balls["greedy2"] || balls["single"] != balls["adaptive"] {
		t.Fatalf("ball totals differ: %v", balls)
	}
	if gaps["greedy2"] >= gaps["single"] {
		t.Errorf("2-choice gap %d not strictly below random gap %d", gaps["greedy2"], gaps["single"])
	}
	if gaps["adaptive"] >= gaps["single"] {
		t.Errorf("adaptive gap %d not strictly below random gap %d", gaps["adaptive"], gaps["single"])
	}
}

// TestAdaptiveRoutingBound pins the transplanted guarantee: with an
// exact local view (no staleness, single router), adaptive routing
// keeps every backend within the protocol's deterministic max-load
// bound ⌈i/K⌉+1 at every prefix — per-ball routing is the protocol
// itself running on K "bins".
func TestAdaptiveRoutingBound(t *testing.T) {
	const (
		k     = 5
		n     = 2048
		total = 7500
	)
	rt, _ := newInprocCluster(t, k, n, policyNamed("adaptive"), 3)
	ctx := context.Background()
	for i := 1; i <= total; i++ {
		if _, _, err := rt.Place(ctx, 1); err != nil {
			t.Fatalf("Place #%d: %v", i, err)
		}
		if i%500 == 0 || i == total {
			st := rt.Stats()
			bound := int64((i+k-1)/k) + 1
			if st.MaxBackendBalls > bound {
				t.Fatalf("after %d balls: max backend balls %d exceeds ⌈i/K⌉+1 = %d",
					i, st.MaxBackendBalls, bound)
			}
		}
	}
}

// TestRouterPlaceRemoveRoundTrip checks global bin numbering: a placed
// ball's global bin maps back to the right backend, Remove drains it
// there, and the view's local accounting follows both directions.
func TestRouterPlaceRemoveRoundTrip(t *testing.T) {
	const k, n = 3, 64
	rt, ds := newInprocCluster(t, k, n, policyNamed("greedy"), 9)
	ctx := context.Background()

	bins, samples, err := rt.Place(ctx, 10)
	if err != nil || len(bins) != 10 || samples < 10 {
		t.Fatalf("Place: bins=%v samples=%d err=%v", bins, samples, err)
	}
	var total int64
	for _, d := range ds {
		total += d.Allocator().Balls()
	}
	if total != 10 {
		t.Fatalf("backends hold %d balls, want 10", total)
	}
	// Every global bin decodes to a backend actually holding a ball
	// there, and Remove via the global number succeeds.
	for _, g := range bins {
		slot, local := g/n, g%n
		if ds[slot].Allocator().Load(local) < 1 {
			t.Fatalf("global bin %d: backend %d local %d empty", g, slot, local)
		}
		if err := rt.Remove(ctx, g); err != nil {
			t.Fatalf("Remove(%d): %v", g, err)
		}
	}
	st := rt.Stats()
	if st.Balls != 0 {
		t.Fatalf("cluster still holds %d balls after removes", st.Balls)
	}
	// Removing again conflicts with the canonical empty-bin error.
	if err := rt.Remove(ctx, bins[0]); err != serve.ErrEmptyBin {
		t.Fatalf("double remove: %v, want serve.ErrEmptyBin", err)
	}
	// Out-of-range bins are rejected.
	if err := rt.Remove(ctx, k*n); err == nil {
		t.Fatal("Remove out of range succeeded")
	}
}

// TestRouterFailover kills a backend and checks that placements fail
// over transparently: no client-visible error, traffic redistributes,
// and the dead slot is evicted by its own traffic.
func TestRouterFailover(t *testing.T) {
	const k, n = 3, 64
	rt, ds := newInprocCluster(t, k, n, policyNamed("single"), 11)
	ctx := context.Background()

	// Kill backend 1: its dispatcher drains, so Place returns errors.
	ds[1].Close()
	for i := 0; i < 60; i++ {
		if _, _, err := rt.Place(ctx, 1); err != nil {
			t.Fatalf("Place #%d during failover: %v", i, err)
		}
	}
	if rt.ms.IsUp(1) {
		t.Fatal("backend 1 still in rotation after traffic failures")
	}
	st := rt.Stats()
	if st.Healthy != 2 || st.Failovers == 0 || st.Evictions != 1 {
		t.Fatalf("stats after failover: healthy=%d failovers=%d evictions=%d",
			st.Healthy, st.Failovers, st.Evictions)
	}
	// Books balance on the survivors.
	if got := ds[0].Allocator().Balls() + ds[2].Allocator().Balls(); got != 60 {
		t.Fatalf("survivors hold %d balls, want 60", got)
	}
	// A remove routed to the dead slot reports it down.
	if err := rt.Remove(ctx, n+1); err != ErrBackendDown {
		t.Fatalf("Remove on dead backend: %v, want ErrBackendDown", err)
	}
}

// TestRouterConcurrent hammers Place/Remove from many goroutines (the
// -race acceptance test for the routing tier) and checks conservation.
func TestRouterConcurrent(t *testing.T) {
	const k, n, workers, perWorker = 4, 256, 8, 300
	rt, ds := newInprocCluster(t, k, n, policyNamed("greedy"), 21)
	ctx := context.Background()

	var wg sync.WaitGroup
	var mu sync.Mutex
	kept := make([]int, 0, workers*perWorker/2)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				bins, _, err := rt.Place(ctx, 1)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if i%2 == 0 {
					if err := rt.Remove(ctx, bins[0]); err != nil {
						t.Errorf("worker %d remove: %v", w, err)
						return
					}
				} else {
					mu.Lock()
					kept = append(kept, bins[0])
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()

	var held int64
	for _, d := range ds {
		held += d.Allocator().Balls()
	}
	if held != int64(len(kept)) {
		t.Fatalf("backends hold %d balls, clients kept %d", held, len(kept))
	}
	st := rt.Stats()
	if st.Balls != held {
		t.Fatalf("view estimates %d balls, backends hold %d", st.Balls, held)
	}
	if st.Picks != workers*perWorker {
		t.Fatalf("picks %d, want %d", st.Picks, workers*perWorker)
	}
}

// TestRouterAllocs pins what the router adds per op: nothing. Over
// four in-process dispatchers a place+remove pair and a keyed pair cost
// the dispatchers' own allocations (TestBackendAllocs' inproc row),
// with the router's recorder on and off.
func TestRouterAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	for _, o := range []obs.Options{{}, {Disabled: true}} {
		// No watchdogs: their ticks would allocate inside the measurement.
		bks := make([]Backend, 4)
		for i := range bks {
			d := serve.NewDispatcher(serve.Config{Spec: ballsbins.Adaptive(), N: 256, Shards: 2, Seed: uint64(i + 1),
				Obs: o, Watch: watch.Options{Disabled: true}})
			t.Cleanup(d.Close)
			bks[i] = &InprocBackend{D: d}
		}
		rt := NewRouter(Config{Backends: bks, BinsPerBackend: 256, Policy: policyNamed("adaptive"), Seed: 1,
			Keyed: &keyed.Config{HotShare: 1}, Obs: o, Watch: watch.Options{Disabled: true}})
		t.Cleanup(rt.Close)
		ctx := context.Background()
		pair := func() {
			bins, _, err := rt.Place(ctx, 1)
			if err == nil {
				err = rt.Remove(ctx, bins[0])
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		keyedPair := func() {
			bins, _, err := rt.PlaceKeyed(ctx, "k")
			if err == nil {
				err = rt.RemoveKeyed(ctx, bins[0], "k")
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 100; i++ {
			pair()
			keyedPair()
		}
		if got := testing.AllocsPerRun(2000, pair); got > 3 {
			t.Errorf("obs disabled %v: place+remove %v allocs, want <= 3", o.Disabled, got)
		}
		if got := testing.AllocsPerRun(2000, keyedPair); got > 3 {
			t.Errorf("obs disabled %v: keyed place+remove %v allocs, want <= 3", o.Disabled, got)
		}
	}
}

// cancellingBackend simulates a client hanging up mid-forward: Place
// cancels the caller's context and fails with it.
type cancellingBackend struct {
	cancel context.CancelFunc
}

func (b *cancellingBackend) Name() string { return "cancelling" }

func (b *cancellingBackend) Place(ctx context.Context, count int) ([]int, int64, error) {
	b.cancel()
	return nil, 0, ctx.Err()
}

func (b *cancellingBackend) PlaceKey(ctx context.Context, _ string) ([]int, int64, error) {
	return b.Place(ctx, 1)
}

func (b *cancellingBackend) Remove(context.Context, int) error { return nil }

func (b *cancellingBackend) RemoveKey(context.Context, int, string) error { return nil }

func (b *cancellingBackend) Stats(context.Context) (serve.StatsView, error) {
	return serve.StatsView{}, nil
}

func (b *cancellingBackend) Health(context.Context) error { return nil }

func (b *cancellingBackend) ReadTrace(context.Context, string) ([]*obs.Op, error) { return nil, nil }

// TestClientCancelIsNotBackendEvidence pins the eviction evidence
// rule: a placement that failed because the CALLER's context died is
// not reported against the backend — otherwise two client disconnects
// could evict a healthy node.
func TestClientCancelIsNotBackendEvidence(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cb := &cancellingBackend{cancel: cancel}
	rt := NewRouter(Config{
		Backends:       []Backend{cb},
		BinsPerBackend: 8,
		Policy:         policyNamed("single"),
		Seed:           1,
		FailAfter:      1, // a single real failure would evict
	})
	defer rt.Close()
	if _, _, err := rt.Place(ctx, 1); err == nil {
		t.Fatal("Place succeeded against the cancelling backend")
	}
	if !rt.ms.IsUp(0) {
		t.Fatal("client cancellation evicted the backend")
	}
	if f := rt.failovers.Load(); f != 0 {
		t.Fatalf("client cancellation counted %d failovers", f)
	}
}

// TestPolicyByName pins the name → policy mapping and its validation.
func TestPolicyByName(t *testing.T) {
	for _, tc := range []struct {
		name string
		d, r int
		b    int
		m    int64
		want string
	}{
		{"single", 2, 3, 0, 0, "single"},
		{"random", 2, 3, 0, 0, "single"},
		{"greedy", 2, 3, 0, 0, "greedy[2]"},
		{"greedy", 4, 3, 0, 0, "greedy[4]"},
		{"adaptive", 2, 3, 0, 0, "adaptive"},
		{"threshold", 2, 3, 0, 5000, "threshold[5000]"},
		{"boundedretry", 2, 3, 0, 0, "threshold-retry[3]"},
		{"fixed", 2, 3, 7, 0, "fixed[<7]"},
	} {
		p, err := PolicyByName(tc.name, tc.d, tc.r, tc.b, tc.m)
		if err != nil {
			t.Fatalf("PolicyByName(%q): %v", tc.name, err)
		}
		if p.Name() != tc.want {
			t.Errorf("PolicyByName(%q).Name() = %q, want %q", tc.name, p.Name(), tc.want)
		}
	}
	for _, bad := range []struct {
		name string
		d, r int
		b    int
		m    int64
	}{
		{"nosuch", 2, 3, 0, 0},
		{"greedy", 0, 3, 0, 0},
		{"threshold", 2, 3, 0, 0}, // horizon required
		{"boundedretry", 2, 0, 0, 0},
		{"fixed", 2, 3, 0, 0},
	} {
		if _, err := PolicyByName(bad.name, bad.d, bad.r, bad.b, bad.m); err == nil {
			t.Errorf("PolicyByName(%q, d=%d, r=%d, b=%d, m=%d) accepted", bad.name, bad.d, bad.r, bad.b, bad.m)
		}
	}
}

// TestBoundedRetryProbeCap pins the retry budget: threshold-retry[R]
// never spends more than R probes on a pick, while adaptive may spend
// more (and both keep picking successfully when the view says all
// backends are over threshold).
func TestBoundedRetryProbeCap(t *testing.T) {
	const k, n, total = 4, 1024, 3000
	rt, _ := newInprocCluster(t, k, n, policyNamed("boundedretry"), 17)
	st := routeBulks(t, rt, skewBulks(5, total))
	if st.ProbesPerPick > 2 {
		t.Fatalf("threshold-retry[2] spent %.3f probes/pick, cap is 2", st.ProbesPerPick)
	}
	if st.Balls < total {
		t.Fatalf("routed %d balls, want >= %d", st.Balls, total)
	}
}
