package load

import (
	"context"
	"fmt"
	"time"

	ballsbins "repro"
	"repro/internal/cluster"
	"repro/internal/keyed"
	"repro/internal/serve"
	"repro/internal/watch"
)

// ClusterTarget drives a routing tier in process: bbload builds K
// in-proc dispatch cores (the backends), fronts them with a
// cluster.Router under the chosen policy, and sends every operation
// through the router — the whole bbload → bbproxy → K×bbserved path
// minus the network, so routing policies are comparable on one CPU
// without pretending to have cluster parallelism. The router is
// reached through the embedded in-process backend, the same client
// that drives bbload's single dispatcher.
type ClusterTarget struct {
	cluster.InprocBackend
	// rcfg rebuilds the router after a crash (restart scenarios).
	rcfg cluster.Config
	// dispatchers are the backends; Close drains them.
	dispatchers []*serve.Dispatcher
}

// ClusterConfig parameterizes NewInprocCluster.
type ClusterConfig struct {
	// Backends is the number of in-proc backends K. Required.
	Backends int
	// Spec/N/Shards/Engine/Seed/Horizon configure EACH backend's
	// dispatch core (N bins per backend; backend i seeds with Seed+i).
	Spec    ballsbins.Spec
	N       int
	Shards  int
	Engine  ballsbins.Engine
	Seed    uint64
	Horizon int64
	// Policy routes across the backends. Required.
	Policy cluster.Policy
	// Keyed, when non-nil, gives the router a keyed placement tier
	// (keys → backends); each backend's dispatcher additionally runs
	// its own keyed tier (keys → shards) regardless.
	Keyed *keyed.Config
	// Staleness is the router's load-view refresh window; 0 keeps the
	// view on exact local accounting (the single-router case).
	Staleness time.Duration
	// FailAfter/RiseAfter forward the membership thresholds (default 2).
	FailAfter, RiseAfter int
	// HealthEvery enables the router's health loop — needed for
	// kill scenarios, where eviction must happen without waiting for
	// enough traffic failures.
	HealthEvery time.Duration
	// DataDir, when set, makes the router's keyed tier durable (WAL +
	// snapshots in that directory) — required for restart scenarios.
	DataDir       string
	SnapshotEvery int
	Fsync         string
	// Watch configures the invariant watchdog on the router AND on each
	// in-proc backend, so a cluster run re-proves the paper bounds on
	// every tier it spans. Set Watch.Disabled to run without watchdogs.
	Watch watch.Options
}

// NewInprocCluster builds K in-proc backends and a router over them.
func NewInprocCluster(cfg ClusterConfig) (*ClusterTarget, error) {
	if cfg.Backends < 1 {
		return nil, fmt.Errorf("load: cluster needs at least 1 backend, got %d", cfg.Backends)
	}
	if cfg.Policy == nil {
		return nil, fmt.Errorf("load: cluster needs a routing policy")
	}
	t := &ClusterTarget{}
	backends := make([]cluster.Backend, cfg.Backends)
	for i := 0; i < cfg.Backends; i++ {
		d := serve.NewDispatcher(serve.Config{
			Spec:    cfg.Spec,
			N:       cfg.N,
			Shards:  cfg.Shards,
			Seed:    cfg.Seed + uint64(i),
			Engine:  cfg.Engine,
			Horizon: cfg.Horizon,
			Watch:   cfg.Watch,
		})
		t.dispatchers = append(t.dispatchers, d)
		backends[i] = &cluster.InprocBackend{D: d, Label: fmt.Sprintf("inproc-%d", i)}
	}
	t.rcfg = cluster.Config{
		Backends:       backends,
		BinsPerBackend: cfg.N,
		Policy:         cfg.Policy,
		Seed:           cfg.Seed,
		Staleness:      cfg.Staleness,
		HealthEvery:    cfg.HealthEvery,
		FailAfter:      cfg.FailAfter,
		RiseAfter:      cfg.RiseAfter,
		Keyed:          cfg.Keyed,
		Watch:          cfg.Watch,
	}
	if cfg.DataDir != "" {
		t.rcfg.KeyedStore = &keyed.StoreOptions{
			Dir:           cfg.DataDir,
			SnapshotEvery: cfg.SnapshotEvery,
			Fsync:         cfg.Fsync,
		}
	}
	rt, _, err := cluster.OpenRouter(t.rcfg)
	if err != nil {
		return nil, err
	}
	t.D = rt
	return t, nil
}

// Timeseries is the router's series, with a violation verdict that
// covers every tier the run spans: the router's count plus each
// in-proc backend's own watchdog — a bound broken on a backend fails
// the run even though the routing series stays clean.
func (t *ClusterTarget) Timeseries(ctx context.Context, window int) (watch.SeriesResponse, error) {
	doc, err := t.InprocBackend.Timeseries(ctx, window)
	for _, d := range t.dispatchers {
		doc.ViolationsTotal += d.Watch().ViolationsTotal()
	}
	return doc, err
}

// RestartProxy implements ProxyRestarter: it crashes the router
// without flushing (the in-proc analogue of kill -9 on a bbproxy —
// the WAL tail is whatever made it to the OS), rebuilds it from the
// same data directory, and reports the recovery cost. Operations
// issued during the rebuild wait for it rather than erroring.
// Requires a DataDir-configured target.
func (t *ClusterTarget) RestartProxy() (recoveryMs int64, recovered int64, err error) {
	if t.rcfg.KeyedStore == nil {
		return 0, 0, fmt.Errorf("load: RestartProxy needs a DataDir-configured cluster")
	}
	err = t.Swap(func(old serve.Tier) (serve.Tier, error) {
		old.(*cluster.Router).Crash()
		rt, rec, err := cluster.OpenRouter(t.rcfg)
		if err != nil {
			return nil, err
		}
		if rec != nil {
			recoveryMs = rec.ReplayMs
		}
		if km := rt.Keyed(); km != nil {
			recovered = km.Stats().Keys
		}
		return rt, nil
	})
	return recoveryMs, recovered, err
}

// KillBackend implements BackendKiller: it abruptly stops the
// highest-slot still-running backend's dispatcher mid-run (the
// in-proc analogue of kill -9: its Place/Remove/Health all fail
// immediately, so traffic errors and health probes evict it), and
// returns the killed slot (-1 when every backend is already dead).
func (t *ClusterTarget) KillBackend() int {
	for slot := len(t.dispatchers) - 1; slot >= 0; slot-- {
		if !t.dispatchers[slot].Draining() {
			t.dispatchers[slot].Close()
			return slot
		}
	}
	return -1
}

// Close stops the router, then drains the owned backends (Close is
// idempotent, so an already-killed backend is fine).
func (t *ClusterTarget) Close() {
	t.Tier().Close()
	for _, d := range t.dispatchers {
		d.Close()
	}
}
