package load

import (
	"context"
	"errors"
	"math"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	ballsbins "repro"
	"repro/internal/cluster"
	"repro/internal/serve"
)

func newDispatcher(t *testing.T, n, shards int) *serve.Dispatcher {
	t.Helper()
	d := serve.NewDispatcher(serve.Config{
		Spec: ballsbins.Adaptive(), N: n, Shards: shards, Seed: 1,
	})
	t.Cleanup(d.Close)
	return d
}

func TestScenarioPresets(t *testing.T) {
	for _, name := range Scenarios() {
		sc, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if sc.Name != name {
			t.Errorf("ByName(%q).Name = %q", name, sc.Name)
		}
		var frac float64
		for _, ph := range sc.Phases {
			frac += ph.Frac
		}
		if math.Abs(frac-1) > 1e-9 {
			t.Errorf("scenario %q phases cover %v of the run, want 1", name, frac)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName accepted unknown scenario")
	}
}

func TestSamplerServiceMean(t *testing.T) {
	for _, dist := range []string{"exp", "lognormal"} {
		smp := newSampler(Config{
			Seed: 42, ServiceMean: 100 * time.Millisecond, ServiceDist: dist,
		})
		var sum time.Duration
		const n = 50000
		for i := 0; i < n; i++ {
			sum += smp.service()
		}
		mean := sum.Seconds() / n
		if mean < 0.09 || mean > 0.11 {
			t.Errorf("%s service mean %.4fs, want ≈0.100s", dist, mean)
		}
	}
}

func TestSamplerSkewBulk(t *testing.T) {
	smp := newSampler(Config{Seed: 7, ServiceMean: time.Millisecond, Scenario: Skew()})
	if smp.meanBulk <= 1 {
		t.Fatalf("skew mean bulk %v, want > 1", smp.meanBulk)
	}
	seen := map[int]bool{}
	for i := 0; i < 10000; i++ {
		b := smp.bulk()
		if b < 1 || b > 32 {
			t.Fatalf("bulk %d outside [1,32]", b)
		}
		seen[b] = true
	}
	if !seen[1] || len(seen) < 5 {
		t.Fatalf("skew bulk distribution degenerate: %d distinct sizes", len(seen))
	}
	// The arrival event gap must be stretched by the mean bulk so the
	// ball rate stays at the configured value.
	steady := newSampler(Config{Seed: 7, ServiceMean: time.Millisecond})
	var skewGap, steadyGap time.Duration
	for i := 0; i < 20000; i++ {
		skewGap += smp.gap(1000)
		steadyGap += steady.gap(1000)
	}
	ratio := skewGap.Seconds() / steadyGap.Seconds()
	if ratio < smp.meanBulk*0.9 || ratio > smp.meanBulk*1.1 {
		t.Errorf("skew gap stretch %.2f, want ≈ mean bulk %.2f", ratio, smp.meanBulk)
	}
}

func TestClosedLoopInProc(t *testing.T) {
	d := newDispatcher(t, 64, 4)
	res, err := Run(context.Background(), Config{
		Mode:     "closed",
		Workers:  4,
		Duration: 200 * time.Millisecond,
		Seed:     1,
	}, &cluster.InprocBackend{D: d})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Mode != "closed" || res.Workers != 4 || res.Scenario != "steady" {
		t.Fatalf("result header: %+v", res)
	}
	if res.Placed == 0 || res.Placed != res.Removed || res.Errors != 0 {
		t.Fatalf("placed/removed/errors = %d/%d/%d", res.Placed, res.Removed, res.Errors)
	}
	if res.ThroughputPerSec <= 0 || res.PlaceLatencyNs.Count != res.Placed {
		t.Fatalf("throughput %v, latency count %d", res.ThroughputPerSec, res.PlaceLatencyNs.Count)
	}
	// Closed-loop churn holds one ball per worker at most; everything
	// is removed by the end.
	if res.FinalBalls != 0 {
		t.Fatalf("final balls %d, want 0 after pure churn", res.FinalBalls)
	}
}

func TestOpenLoopInProc(t *testing.T) {
	d := newDispatcher(t, 64, 4)
	res, err := Run(context.Background(), Config{
		Scenario:    Steady(),
		Mode:        "open",
		Rate:        2000,
		Duration:    300 * time.Millisecond,
		ServiceMean: 20 * time.Millisecond,
		Seed:        3,
	}, &cluster.InprocBackend{D: d})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Placed == 0 || res.Errors != 0 {
		t.Fatalf("placed %d errors %d", res.Placed, res.Errors)
	}
	// Poisson arrivals at 2000/s over 0.3s: expect ≈600 placements;
	// allow wide slack for CI timing jitter.
	if res.Placed < 200 || res.Placed > 1800 {
		t.Errorf("open-loop placed %d, expected ≈600", res.Placed)
	}
	if res.Removed == 0 || res.Removed > res.Placed {
		t.Errorf("removed %d of %d placed", res.Removed, res.Placed)
	}
	// Books balance: every ball is placed, removed, or still live.
	if res.FinalBalls != res.Placed-res.Removed {
		t.Errorf("final balls %d, placed-removed %d", res.FinalBalls, res.Placed-res.Removed)
	}
}

func TestOpenLoopHTTP(t *testing.T) {
	d := newDispatcher(t, 64, 4)
	srv := httptest.NewServer(serve.NewHandler(d, serve.Info{Protocol: "adaptive", N: 64, Shards: 4}))
	t.Cleanup(srv.Close)
	res, err := Run(context.Background(), Config{
		Scenario:    Flash(),
		Mode:        "open",
		Rate:        1000,
		Duration:    300 * time.Millisecond,
		ServiceMean: 10 * time.Millisecond,
		Seed:        5,
	}, cluster.NewHTTPBackend(srv.URL))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	res.Target = "http"
	if res.Placed == 0 || res.Errors != 0 {
		t.Fatalf("placed %d errors %d (final %+v)", res.Placed, res.Errors, res)
	}
	if res.FinalBalls != res.Placed-res.Removed {
		t.Errorf("final balls %d, placed-removed %d", res.FinalBalls, res.Placed-res.Removed)
	}
	if res.PlaceLatencyNs.P999 < res.PlaceLatencyNs.P50 {
		t.Errorf("latency summary inverted: %+v", res.PlaceLatencyNs)
	}
}

// flakyTarget fails every place whose global order is ≡ 0 mod 3,
// exercising the per-worker error accounting.
type flakyTarget struct {
	cluster.Backend
	calls atomic.Int64
}

func (f *flakyTarget) Place(ctx context.Context, count int) ([]int, int64, error) {
	if f.calls.Add(1)%3 == 0 {
		return nil, 0, errors.New("flaky")
	}
	return f.Backend.Place(ctx, count)
}

// TestClosedLoopWorkerErrors pins the per-worker error envelope: the
// slice has one entry per worker, sums to the total, and a flaky
// target's failures are visible in it rather than only as a lump sum.
func TestClosedLoopWorkerErrors(t *testing.T) {
	d := newDispatcher(t, 64, 4)
	res, err := Run(context.Background(), Config{
		Mode:     "closed",
		Workers:  3,
		Duration: 150 * time.Millisecond,
		Seed:     1,
	}, &flakyTarget{Backend: &cluster.InprocBackend{D: d}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.WorkerErrors) != 3 {
		t.Fatalf("WorkerErrors has %d entries, want 3", len(res.WorkerErrors))
	}
	var sum int64
	for _, e := range res.WorkerErrors {
		sum += e
	}
	if sum != res.Errors || res.Errors == 0 {
		t.Fatalf("worker errors sum %d, total %d (want equal, nonzero)", sum, res.Errors)
	}
	if res.PlaceErrors+res.RemoveErrors != res.Errors || res.PlaceErrors == 0 {
		t.Fatalf("place/remove split %d+%d != total %d",
			res.PlaceErrors, res.RemoveErrors, res.Errors)
	}
}

// TestClusterTargetRun drives the full in-proc cluster path through
// the load generator and checks the cluster stamping in the result.
func TestClusterTargetRun(t *testing.T) {
	policy, err := cluster.PolicyByName("greedy", 2, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := NewInprocCluster(ClusterConfig{
		Backends: 4, Spec: ballsbins.Adaptive(), N: 256, Shards: 1,
		Seed: 1, Policy: policy,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ct.Close)
	res, err := Run(context.Background(), Config{
		Scenario:    Skew(),
		Mode:        "open",
		Rate:        2000,
		Duration:    300 * time.Millisecond,
		ServiceMean: 20 * time.Millisecond,
		Seed:        3,
	}, ct)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Placed == 0 || res.Errors != 0 {
		t.Fatalf("placed %d errors %d", res.Placed, res.Errors)
	}
	if res.Policy != "greedy[2]" || res.Backends != 4 || res.HealthyBackends != 4 {
		t.Fatalf("cluster stamping: %+v", res)
	}
	if res.ProbesPerPick != 2 {
		t.Fatalf("probes/pick %v, want 2 for greedy[2]", res.ProbesPerPick)
	}
	if res.FinalBalls != res.Placed-res.Removed {
		t.Errorf("final balls %d, placed-removed %d", res.FinalBalls, res.Placed-res.Removed)
	}
	// The view's estimate agrees with the backends at quiescence.
	if res.MaxBackendBalls < res.FinalBalls/4 {
		t.Errorf("max backend balls %d below mean %d", res.MaxBackendBalls, res.FinalBalls/4)
	}
}

func TestRunValidation(t *testing.T) {
	d := newDispatcher(t, 8, 1)
	tgt := &cluster.InprocBackend{D: d}
	ctx := context.Background()
	for name, cfg := range map[string]Config{
		"no duration":  {Mode: "open", Rate: 1, ServiceMean: time.Millisecond},
		"no rate":      {Mode: "open", Duration: time.Second, ServiceMean: time.Millisecond},
		"no service":   {Mode: "open", Rate: 1, Duration: time.Second},
		"no workers":   {Mode: "closed", Duration: time.Second},
		"unknown mode": {Mode: "banana", Duration: time.Second},
	} {
		if _, err := Run(ctx, cfg, tgt); err == nil {
			t.Errorf("%s: Run accepted invalid config", name)
		}
	}
}
