package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	ballsbins "repro"
	"repro/internal/serve"
)

// flappyBackend is an httptest-backed bbserved whose availability can
// be flipped: while down, every request (health checks included) gets
// a 500, like a process behind a dead load-balancer port.
type flappyBackend struct {
	d    *serve.Dispatcher
	srv  *httptest.Server
	down atomic.Bool
}

func newFlappyBackend(t *testing.T, n int, seed uint64) *flappyBackend {
	t.Helper()
	fb := &flappyBackend{}
	fb.d = serve.NewDispatcher(serve.Config{
		Spec: ballsbins.Adaptive(), N: n, Shards: 1, Seed: seed,
	})
	inner := serve.NewHandler(fb.d, serve.Info{Protocol: "adaptive", N: n, Shards: 1})
	fb.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fb.down.Load() {
			http.Error(w, "flapped", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(func() { fb.srv.Close(); fb.d.Close() })
	return fb
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestMembershipEvictRejoin is the flap test: a backend that fails
// health checks is evicted from the LoadView's rotation and its
// traffic share redistributes to the survivors; after recovery it is
// re-admitted and serves again.
func TestMembershipEvictRejoin(t *testing.T) {
	const k, n = 3, 128
	fbs := make([]*flappyBackend, k)
	backends := make([]Backend, k)
	for i := range fbs {
		fbs[i] = newFlappyBackend(t, n, uint64(100+i))
		backends[i] = NewHTTPBackend(fbs[i].srv.URL)
	}
	rt := NewRouter(Config{
		Backends:       backends,
		BinsPerBackend: n,
		Policy:         policyNamed("greedy"),
		Seed:           1,
		Staleness:      25 * time.Millisecond,
		HealthEvery:    10 * time.Millisecond,
		FailAfter:      2,
		RiseAfter:      2,
	})
	defer rt.Close()
	ctx := context.Background()

	if got := len(rt.Membership().Healthy()); got != k {
		t.Fatalf("healthy at start: %d, want %d", got, k)
	}

	// Take down backend 2; the health loop evicts it within a few
	// probe periods without any traffic.
	fbs[2].down.Store(true)
	waitFor(t, "eviction of backend 2", func() bool { return !rt.Membership().IsUp(2) })
	if rt.Membership().Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", rt.Membership().Evictions())
	}

	// Traffic redistributes entirely onto the survivors: no errors,
	// and backend 2 receives nothing while down.
	before2 := fbs[2].d.Allocator().Balls()
	for i := 0; i < 40; i++ {
		if _, _, err := rt.Place(ctx, 1); err != nil {
			t.Fatalf("Place during eviction: %v", err)
		}
	}
	if got := fbs[2].d.Allocator().Balls(); got != before2 {
		t.Fatalf("evicted backend received %d balls", got-before2)
	}
	if got := fbs[0].d.Allocator().Balls() + fbs[1].d.Allocator().Balls(); got != 40 {
		t.Fatalf("survivors hold %d balls, want 40", got)
	}

	// Recovery: the backend rejoins after consecutive healthy probes
	// and traffic reaches it again (greedy[2] prefers it — it is far
	// emptier than the survivors).
	fbs[2].down.Store(false)
	waitFor(t, "rejoin of backend 2", func() bool { return rt.Membership().IsUp(2) })
	if rt.Membership().Rejoins() != 1 {
		t.Fatalf("rejoins = %d, want 1", rt.Membership().Rejoins())
	}
	waitFor(t, "traffic reaching rejoined backend 2", func() bool {
		if _, _, err := rt.Place(ctx, 1); err != nil {
			t.Fatalf("Place after rejoin: %v", err)
		}
		return fbs[2].d.Allocator().Balls() > before2
	})

	// The rejoined backend's view cell was re-polled, not inherited
	// from before the flap.
	waitFor(t, "fresh poll of backend 2", func() bool {
		age, ok := rt.View().age(2, time.Now())
		return ok && age < time.Second
	})
}

// TestMembershipFlapNeedsStreak checks the consecutive-evidence rule:
// a single failed probe (or one traffic error) does not evict when
// FailAfter is 2, and a single good probe does not rejoin when
// RiseAfter is 2.
func TestMembershipFlapNeedsStreak(t *testing.T) {
	ms := NewMembership([]Backend{&InprocBackend{}, &InprocBackend{}}, 2, 2)
	ms.observe(0, false, true)
	if !ms.IsUp(0) {
		t.Fatal("one failure evicted with FailAfter=2")
	}
	ms.observe(0, true, true) // success resets the streak
	ms.observe(0, false, true)
	if !ms.IsUp(0) {
		t.Fatal("non-consecutive failures evicted")
	}
	ms.observe(0, false, true)
	if ms.IsUp(0) {
		t.Fatal("two consecutive failures did not evict")
	}
	if got := ms.Healthy(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("healthy = %v, want [1]", got)
	}

	ms.observe(0, true, true)
	if ms.IsUp(0) {
		t.Fatal("one good probe rejoined with RiseAfter=2")
	}
	ms.observe(0, false, true) // failure resets the rise streak
	ms.observe(0, true, true)
	if ms.IsUp(0) {
		t.Fatal("non-consecutive successes rejoined")
	}
	ms.observe(0, true, true)
	if !ms.IsUp(0) {
		t.Fatal("two consecutive good probes did not rejoin")
	}

	// Traffic reports do not rejoin a down backend (only probes do).
	ms.observe(1, false, true)
	ms.observe(1, false, true)
	if ms.IsUp(1) {
		t.Fatal("backend 1 should be down")
	}
	ms.observe(1, true, false)
	ms.observe(1, true, false)
	if ms.IsUp(1) {
		t.Fatal("traffic successes rejoined a down backend")
	}
}

// TestReportSuccessClearsStreak pins the no-health-loop regime: a
// router running on traffic evidence alone must not fold transient
// errors arbitrarily far apart into one "consecutive" streak — a
// success in between resets it.
func TestReportSuccessClearsStreak(t *testing.T) {
	ms := NewMembership([]Backend{&InprocBackend{}}, 2, 2)
	ms.ReportFailure(0)
	ms.ReportSuccess(0) // thousands of these happen between real faults
	ms.ReportFailure(0)
	if !ms.IsUp(0) {
		t.Fatal("two failures separated by a success evicted the backend")
	}
	ms.ReportFailure(0)
	if ms.IsUp(0) {
		t.Fatal("two consecutive traffic failures did not evict")
	}
	// A success on a down backend does not rejoin it (probe-only).
	ms.ReportSuccess(0)
	if ms.IsUp(0) {
		t.Fatal("ReportSuccess rejoined a down backend")
	}
}

// slowStats is a toggleBackend whose stats polls take 200 ms unless
// their context ends first, counted as they start and finish.
type slowStats struct {
	*toggleBackend
	started, finished atomic.Int64
}

func (b *slowStats) Stats(ctx context.Context) (serve.StatsView, error) {
	b.started.Add(1)
	defer b.finished.Add(1)
	select {
	case <-time.After(200 * time.Millisecond):
		return b.toggleBackend.Stats(ctx)
	case <-ctx.Done():
		return serve.StatsView{}, ctx.Err()
	}
}

// TestCloseStopsRejoinRepoll pins the rejoin re-poll to the router's
// lifetime: Close cancels the re-poll of a just-rejoined backend and
// waits for it, so no stats poll starts or finishes once Close has
// returned.
func TestCloseStopsRejoinRepoll(t *testing.T) {
	d := serve.NewDispatcher(serve.Config{Spec: ballsbins.Adaptive(), N: 16, Shards: 1, Seed: 1})
	t.Cleanup(d.Close)
	b := &slowStats{toggleBackend: &toggleBackend{d: d}}
	rt := NewRouter(Config{Backends: []Backend{b}, BinsPerBackend: 16, Policy: policyNamed("adaptive"),
		Seed: 1, HealthEvery: 2 * time.Millisecond})
	b.down.Store(true)
	waitFor(t, "eviction", func() bool { return !rt.Membership().IsUp(0) })
	b.down.Store(false)
	waitFor(t, "the rejoin re-poll", func() bool { return b.started.Load() >= 2 })
	rt.Close()
	started, finished := b.started.Load(), b.finished.Load()
	if finished != started {
		t.Fatalf("%d of %d stats polls had finished when Close returned", finished, started)
	}
	time.Sleep(400 * time.Millisecond)
	if s, f := b.started.Load(), b.finished.Load(); s != started || f != finished {
		t.Fatalf("400 ms after Close: %d polls started and %d finished, want %d and %d", s, f, started, finished)
	}
}
