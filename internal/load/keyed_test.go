package load

import (
	"context"
	"testing"
	"time"

	ballsbins "repro"
	"repro/internal/cluster"
	"repro/internal/keyed"
	"repro/internal/serve"
)

func TestKeyedScenarioInproc(t *testing.T) {
	d := serve.NewDispatcher(serve.Config{Spec: ballsbins.Adaptive(), N: 4096, Shards: 4, Seed: 1})
	defer d.Close()
	sc := KeyedSteady()
	sc.KeySpace = 64
	res, err := Run(context.Background(), Config{
		Scenario:    sc,
		Mode:        "open",
		Rate:        2000,
		Duration:    600 * time.Millisecond,
		ServiceMean: 5 * time.Millisecond,
		Seed:        1,
	}, &cluster.InprocBackend{D: d})
	if err != nil {
		t.Fatal(err)
	}
	if res.Placed == 0 || res.Errors != 0 {
		t.Fatalf("placed %d errors %d", res.Placed, res.Errors)
	}
	if res.KeyedPolicy != "adaptive" || res.Keys == 0 || res.Keys > 64 {
		t.Fatalf("keyed stamp: policy %q keys %d", res.KeyedPolicy, res.Keys)
	}
	if res.KeySpace != 64 || res.KeyZipfS != 1.2 {
		t.Fatalf("scenario stamp: space %d zipf %v", res.KeySpace, res.KeyZipfS)
	}
	if res.AffinityHitRate <= 0.5 {
		t.Fatalf("affinity hit rate %v over a 64-key space — affinity is not sticking", res.AffinityHitRate)
	}
}

// TestKeyedKillScenarioCluster runs the membership-kill scenario
// end-to-end on an in-proc cluster: a backend dies mid-run, keyed
// placements ride failover with zero client-visible errors, and the
// disruption stays within moved ≤ resident-at-kill + shed.
func TestKeyedKillScenarioCluster(t *testing.T) {
	policy, err := cluster.PolicyByName("single", 2, 3, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := NewInprocCluster(ClusterConfig{
		Backends: 3, Spec: ballsbins.Adaptive(), N: 1024, Shards: 2, Seed: 5,
		Policy: policy,
		Keyed:  &keyed.Config{HotShare: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()

	sc := KeyedKill()
	sc.KeySpace = 128
	res, err := Run(context.Background(), Config{
		Scenario:    sc,
		Mode:        "open",
		Rate:        3000,
		Duration:    1200 * time.Millisecond,
		ServiceMean: 10 * time.Millisecond,
		Seed:        5,
	}, ct)
	if err != nil {
		t.Fatal(err)
	}
	if res.PlaceErrors != 0 {
		t.Fatalf("keyed kill run leaked %d client-visible place errors", res.PlaceErrors)
	}
	if res.KilledBackend != 2 {
		t.Fatalf("killed backend %d, want the last slot 2", res.KilledBackend)
	}
	if res.HealthyBackends != 2 {
		t.Fatalf("healthy backends %d, want 2 after the kill", res.HealthyBackends)
	}
	// Disruption bound: every moved key was either resident on the
	// dead slot or shed for the bound — with 128 keys over 3 slots,
	// far fewer than half the keys may move.
	if res.KeysMoved+res.KeysShed == 0 {
		t.Fatalf("kill moved no keys — the victim held none? keys=%d", res.Keys)
	}
	if res.KeysMoved+res.KeysShed > res.Keys*2/3 {
		t.Fatalf("disruption %d+%d over %d keys is not minimal", res.KeysMoved, res.KeysShed, res.Keys)
	}
	if res.KeyedPolicy != "adaptive" {
		t.Fatalf("keyed policy stamp %q", res.KeyedPolicy)
	}
}

// TestKeyedRestartScenarioCluster crash-restarts the in-proc router
// from its WAL mid-run while open-loop traffic keeps arriving:
// operations issued during the rebuild wait for it, so no placement
// fails, and the recovered map keeps serving the run's keys.
func TestKeyedRestartScenarioCluster(t *testing.T) {
	policy, err := cluster.PolicyByName("single", 2, 3, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := NewInprocCluster(ClusterConfig{
		Backends: 3, Spec: ballsbins.Adaptive(), N: 1024, Shards: 2, Seed: 5,
		Policy: policy, Keyed: &keyed.Config{}, DataDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()
	sc := KeyedRestart()
	sc.KeySpace = 64
	res, err := Run(context.Background(), Config{
		Scenario:    sc,
		Mode:        "open",
		Rate:        2000,
		Duration:    600 * time.Millisecond,
		ServiceMean: 10 * time.Millisecond,
		Seed:        5,
	}, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ProxyRestarted || res.AssignmentsRecovered == 0 {
		t.Fatalf("restart stamp: restarted %v, recovered %d keys", res.ProxyRestarted, res.AssignmentsRecovered)
	}
	if res.PlaceErrors != 0 || res.Placed == 0 {
		t.Fatalf("placed %d with %d place errors across the restart", res.Placed, res.PlaceErrors)
	}
	if res.KeyedPolicy == "" || res.Keys == 0 {
		t.Fatalf("keyed stamp after restart: policy %q keys %d", res.KeyedPolicy, res.Keys)
	}
}
