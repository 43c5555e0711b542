package cluster

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	ballsbins "repro"
	"repro/internal/keyed"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/watch"
)

// newWatchedCluster builds K in-proc backends behind a watched router
// with the health loop on — the kill-scenario shape, with a keyed tier
// so evictions also rebalance.
func newWatchedCluster(t *testing.T, k int, pol Policy, kc *keyed.Config) (*Router, []*serve.Dispatcher) {
	t.Helper()
	const n = 256
	backends := make([]Backend, k)
	ds := make([]*serve.Dispatcher, k)
	for i := range backends {
		ds[i] = serve.NewDispatcher(serve.Config{
			Spec: ballsbins.Adaptive(), N: n, Shards: 2, Seed: uint64(90 + i),
		})
		backends[i] = &InprocBackend{D: ds[i], Label: fmt.Sprintf("b%d", i)}
	}
	rt := NewRouter(Config{
		Backends:       backends,
		BinsPerBackend: n,
		Policy:         pol,
		Seed:           7,
		Keyed:          kc,
		Staleness:      10 * time.Millisecond,
		HealthEvery:    5 * time.Millisecond,
		FailAfter:      2,
		RiseAfter:      2,
		Watch:          watch.Options{Cadence: time.Hour}, // manual ticks
	})
	t.Cleanup(func() {
		rt.Close()
		for _, d := range ds {
			d.Close()
		}
	})
	return rt, ds
}

// TestWatchEvictionRebalanceRejoinEvents kills a backend under keyed
// traffic and asserts the journal records the full lifecycle: an
// EVICTION and a REBALANCE on the way down — with no bound violation —
// and a REJOIN if the backend returns. This is the jq contract the CI
// watch-smoke job asserts over HTTP.
func TestWatchEvictionRebalanceRejoinEvents(t *testing.T) {
	rt, ds := newWatchedCluster(t, 3, policyNamed("single"), &keyed.Config{HotShare: 1})
	ctx := context.Background()

	for i := 0; i < 60; i++ {
		if _, _, err := rt.PlaceKeyed(ctx, fmt.Sprintf("user-%d", i)); err != nil {
			t.Fatalf("PlaceKeyed: %v", err)
		}
	}

	// kill -9 analogue: the dispatcher dies, health probes evict it.
	ds[2].Close()
	waitFor(t, "eviction of backend 2", func() bool { return !rt.Membership().IsUp(2) })

	waitFor(t, "EVICTION and REBALANCE in journal", func() bool {
		c := rt.Watch().EventCounts()
		return c[watch.EventEviction] >= 1 && c[watch.EventRebalance] >= 1
	})
	var rebalance *watch.Event
	for _, ev := range rt.Watch().Events(0) {
		if ev.Type == watch.EventRebalance {
			rebalance = &ev
			break
		}
	}
	if rebalance == nil || rebalance.Fields["slot"] != 2 {
		t.Fatalf("rebalance event = %+v", rebalance)
	}
	if moved, resident := rebalance.Fields["keys_moved"], rebalance.Fields["resident"]; moved > resident {
		t.Fatalf("rebalance moved %d > resident %d", moved, resident)
	}

	// The kill must not register as a bound violation on any tier.
	rt.Watch().Tick(time.Now())
	if got := rt.Watch().ViolationsTotal(); got != 0 {
		t.Fatalf("violations after kill = %d (%v)", got, rt.Watch().ViolationCounts())
	}
}

// TestWatchClusterBoundHolds drives anonymous bulks under each routing
// policy whose Rule has a Bound and asserts the cross-backend bound
// check is armed and holding on every manual tick. The 1,000 balls fit
// threshold[1000] and fixed[<400] over 3 backends, so no pick falls
// back.
func TestWatchClusterBoundHolds(t *testing.T) {
	for _, name := range []string{"adaptive", "threshold", "fixed"} {
		pol, err := PolicyByName(name, 2, 2, 400, 1000)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(pol.Name(), func(t *testing.T) { watchClusterBoundHolds(t, pol) })
	}
}

func watchClusterBoundHolds(t *testing.T, pol Policy) {
	rt, _ := newWatchedCluster(t, 3, pol, nil)
	ctx := context.Background()
	for i := 0; i < 40; i++ {
		if _, _, err := rt.Place(ctx, 25); err != nil {
			t.Fatalf("Place: %v", err)
		}
		rt.Watch().Tick(time.Now())
	}
	if got := rt.Watch().ViolationsTotal(); got != 0 {
		t.Fatalf("violations = %d (%v)", got, rt.Watch().ViolationCounts())
	}
	var armed bool
	for _, ck := range rt.watchSample().Checks {
		if ck.Invariant == "cluster_backend_max" {
			armed = true
			if ck.Observed > ck.Bound {
				t.Fatalf("cluster bound broken at rest: %+v", ck)
			}
		}
	}
	if !armed {
		t.Fatalf("cluster_backend_max not armed under %s", pol.Name())
	}
	pts := rt.Watch().Series(0)
	// Balls is the load-view estimate (polled + local delta), so it can
	// transiently over- or under-count by a few in-flight bulks.
	if len(pts) != 40 || pts[len(pts)-1].Balls <= 0 {
		t.Fatalf("series = %d points, last %+v", len(pts), pts[len(pts)-1])
	}
}

// TestWatchClusterInjection proves detection end to end on the proxy
// tier: a bogus injected bound must fire exactly one violation within
// one tick, visible in the journal, the ledger and the metrics text.
func TestWatchClusterInjection(t *testing.T) {
	rt, _ := newWatchedCluster(t, 2, policyNamed("adaptive"), nil)
	if _, _, err := rt.Place(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	rt.Watch().OverrideBound("cluster_backend_max", -1)
	rt.Watch().Tick(time.Now())
	rt.Watch().Tick(time.Now()) // edge-triggered: no second fire

	if got := rt.Watch().ViolationsTotal(); got != 1 {
		t.Fatalf("ViolationsTotal = %d, want 1", got)
	}

	h := serve.NewHandler(rt, serve.Info{Protocol: "cluster/adaptive", N: rt.N()})
	rec := doReq(t, h, "GET", "/v1/events?type=BOUND_VIOLATION")
	if rec.Code != 200 || !contains(rec.Body.String(), `"invariant": "cluster_backend_max"`) {
		t.Fatalf("events = %d %s", rec.Code, rec.Body.String())
	}
	rec = doReq(t, h, "GET", "/metrics")
	if !contains(rec.Body.String(), `bb_invariant_violations_total{invariant="cluster_backend_max"} 1`) {
		t.Fatalf("metrics missing violation counter:\n%s", rec.Body.String())
	}
}

// TestWatchClusterHTTPEndpoints covers the proxy's watch surfaces.
func TestWatchClusterHTTPEndpoints(t *testing.T) {
	rt, _ := newWatchedCluster(t, 2, policyNamed("single"), &keyed.Config{HotShare: 1})
	ctx := context.Background()
	for i := 0; i < 30; i++ {
		if _, _, err := rt.PlaceKeyed(ctx, fmt.Sprintf("k-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	rt.Watch().Tick(time.Now())
	h := serve.NewHandler(rt, serve.Info{Protocol: "cluster/single", N: rt.N()})

	rec := doReq(t, h, "GET", "/v1/timeseries?window=5")
	if rec.Code != 200 || !contains(rec.Body.String(), `"hop": "proxy"`) {
		t.Fatalf("timeseries = %d %s", rec.Code, rec.Body.String())
	}
	rec = doReq(t, h, "GET", "/v1/events")
	if rec.Code != 200 || !contains(rec.Body.String(), `"event_counts"`) {
		t.Fatalf("events = %d %s", rec.Code, rec.Body.String())
	}
	rec = doReq(t, h, "GET", "/v1/stats")
	if !contains(rec.Body.String(), `"watch"`) || !contains(rec.Body.String(), `"violations_total"`) {
		t.Fatalf("stats missing watch block: %s", rec.Body.String())
	}
	rec = doReq(t, h, "GET", "/v1/events?since=bogus")
	if rec.Code != 400 {
		t.Fatalf("bad since = %d, want 400", rec.Code)
	}
}

// TestWatchDrainEventOnce: Close records exactly one DRAIN even when
// called twice.
func TestWatchDrainEventOnce(t *testing.T) {
	rt, _ := newWatchedCluster(t, 2, policyNamed("single"), nil)
	rt.Close()
	rt.Close()
	if got := rt.Watch().EventCounts()[watch.EventDrain]; got != 1 {
		t.Fatalf("DRAIN events = %d, want 1", got)
	}
	if !strings.Contains(rt.Watch().Events(0)[len(rt.Watch().Events(0))-1].Detail, "draining") {
		t.Fatal("drain detail missing")
	}
}

// TestWatchHopWithoutRecording: with trace recording disabled, each
// tier's watchdog still names its own hop, and the router's place
// latency, read from the recorder, is empty.
func TestWatchHopWithoutRecording(t *testing.T) {
	const n = 8
	off := obs.Options{Disabled: true}
	d := serve.NewDispatcher(serve.Config{Spec: ballsbins.Adaptive(), N: n, Obs: off})
	t.Cleanup(d.Close)
	rt := NewRouter(Config{
		Backends: []Backend{&InprocBackend{D: d}}, BinsPerBackend: n,
		Policy: policyNamed("single"), Obs: off,
	})
	t.Cleanup(rt.Close)
	if _, _, err := rt.Place(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if d.Obs() != nil || rt.Obs() != nil {
		t.Fatal("recording still on")
	}
	if got := d.Watch().Hop(); got != "serve" {
		t.Errorf("dispatcher watchdog hop %q, want serve", got)
	}
	if got := rt.Watch().Hop(); got != "proxy" {
		t.Errorf("router watchdog hop %q, want proxy", got)
	}
	if got := rt.PlaceLatency().Count; got != 0 {
		t.Errorf("place latency counted %d places with recording off", got)
	}
}
