package serve

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	ballsbins "repro"
	"repro/internal/watch"
	"repro/internal/wire"
)

// newWatchedDispatcher builds a dispatcher with the watchdog armed but
// the collector goroutine unstarted — tests drive Tick themselves for
// determinism. NewDispatcher starts the collector; the fast cadence
// here just means it also runs, harmlessly, alongside manual ticks
// (Tick is serialized internally).
func newWatchedDispatcher(t *testing.T, spec ballsbins.Spec, n, shards int, horizon int64) *Dispatcher {
	t.Helper()
	d := NewDispatcher(Config{
		Spec:    spec,
		N:       n,
		Shards:  shards,
		Seed:    1,
		Horizon: horizon,
		Watch:   watch.Options{Cadence: time.Millisecond},
	})
	t.Cleanup(d.Close)
	return d
}

// TestWatchNoPhantomViolations is the consistency regression: hammer
// place/remove traffic while the watchdog evaluates as fast as it can,
// and assert that no invariant ever appears violated. The checks read
// post-batch shard rows and the lock-all metrics path, so a mid-batch
// read must be structurally impossible — any phantom here is a torn
// snapshot. Every spec whose rule arms the max-load checks runs: the
// stale and lagged counters under removals, and threshold and fixed,
// whose places are refused with ErrFull once the churn reaches
// capacity.
func TestWatchNoPhantomViolations(t *testing.T) {
	for _, spec := range []ballsbins.Spec{
		ballsbins.Adaptive(), ballsbins.StaleAdaptive(8), ballsbins.LaggedAdaptive(4),
		ballsbins.Threshold(), ballsbins.FixedThreshold(8),
	} {
		t.Run(spec.Name(), func(t *testing.T) { watchNoPhantomViolations(t, spec) })
	}
}

func watchNoPhantomViolations(t *testing.T, spec ballsbins.Spec) {
	const n, shards = 128, 4
	d := newWatchedDispatcher(t, spec, n, shards, 1000)
	ctx := context.Background()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []int
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if i%3 == 2 && len(mine) > 0 {
					bin := mine[len(mine)-1]
					mine = mine[:len(mine)-1]
					if err := d.Remove(ctx, bin); err != nil {
						return
					}
					continue
				}
				bin, _, err := d.Place(ctx)
				if errors.Is(err, ErrFull) {
					continue
				}
				if err != nil {
					return
				}
				mine = append(mine, bin)
			}
		}(w)
	}

	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		d.Watch().Tick(time.Now())
	}
	close(stop)
	wg.Wait()
	// A final pass over the quiesced system must also hold.
	d.Watch().Tick(time.Now())

	if got := d.Watch().ViolationsTotal(); got != 0 {
		t.Fatalf("phantom violations under traffic: %d (%v)", got, d.Watch().ViolationCounts())
	}
	pts := d.Watch().Series(0)
	if len(pts) == 0 {
		t.Fatal("watchdog collected no points")
	}
	last := pts[len(pts)-1]
	if last.Balls != last.Placed-last.Removed {
		t.Fatalf("books don't balance in series point: %+v", last)
	}
}

// TestWatchKeyedCheckArmed proves the keyed invariant joins the sample
// once keyed traffic exists, with the bound from the same mutex hold.
func TestWatchKeyedCheckArmed(t *testing.T) {
	d := NewDispatcher(Config{
		Spec: ballsbins.Adaptive(), N: 64, Shards: 4, Seed: 1,
		Watch: watch.Options{Cadence: time.Hour}, // manual ticks only
	})
	t.Cleanup(d.Close)
	ctx := context.Background()
	for i := 0; i < 200; i++ {
		if _, _, err := d.PlaceKeyed(ctx, "key-"+string(rune('a'+i%17))); err != nil {
			t.Fatalf("PlaceKeyed: %v", err)
		}
	}
	s := d.watchSample()
	var found bool
	for _, ck := range s.Checks {
		if ck.Invariant == "serve_keyed_max" {
			found = true
			if ck.Observed > ck.Bound {
				t.Fatalf("keyed check violated at rest: %+v", ck)
			}
		}
		if ck.Invariant == "serve_global_max" {
			t.Fatal("global max-load check armed despite keyed traffic")
		}
	}
	if !found {
		t.Fatalf("serve_keyed_max not armed; checks: %+v", s.Checks)
	}
	if s.Point.AffinityHitRate <= 0 {
		t.Fatalf("affinity hit rate not sampled: %+v", s.Point)
	}
}

// TestWatchGreedyUnarmed: a spec without a deterministic bound must
// not arm max-load checks (only the bookkeeping identity).
func TestWatchGreedyUnarmed(t *testing.T) {
	d := NewDispatcher(Config{
		Spec: ballsbins.Greedy(2), N: 64, Shards: 4, Seed: 1,
		Watch: watch.Options{Cadence: time.Hour},
	})
	t.Cleanup(d.Close)
	if _, _, err := d.PlaceMany(context.Background(), 500); err != nil {
		t.Fatal(err)
	}
	for _, ck := range d.watchSample().Checks {
		if ck.Invariant == "serve_shard_max" || ck.Invariant == "serve_global_max" {
			t.Fatalf("max-load check %q armed for greedy spec", ck.Invariant)
		}
	}
}

// TestWatchHTTPEndpoints covers the serve tier's /v1/events and
// /v1/timeseries surfaces plus the watch block in /v1/stats and the
// exported metrics.
func TestWatchHTTPEndpoints(t *testing.T) {
	d := NewDispatcher(Config{
		Spec: ballsbins.Adaptive(), N: 64, Shards: 4, Seed: 1,
		Watch: watch.Options{Cadence: time.Hour},
	})
	srv := newServerFor(t, d)
	if _, _, err := d.PlaceMany(context.Background(), 300); err != nil {
		t.Fatal(err)
	}
	d.Watch().Tick(time.Now())
	d.Watch().Record(watch.EventRecovery, "test recovery", map[string]int64{"snapshot_keys": 3})

	sdoc := decode[watch.SeriesResponse](t, get(t, srv.URL+"/v1/timeseries"), 200)
	if sdoc.Hop != "serve" || len(sdoc.Points) != 1 || sdoc.Points[0].Balls != 300 {
		t.Fatalf("timeseries doc = %+v", sdoc)
	}
	edoc := decode[watch.EventsResponse](t, get(t, srv.URL+"/v1/events"), 200)
	if len(edoc.Events) != 1 || edoc.Events[0].Type != watch.EventRecovery {
		t.Fatalf("events doc = %+v", edoc)
	}
	stats := decode[StatsResponse](t, get(t, srv.URL+"/v1/stats"), 200)
	if stats.Watch == nil || stats.Watch.LastEventSeq != 1 || stats.Watch.ViolationsTotal != 0 {
		t.Fatalf("stats watch block = %+v", stats.Watch)
	}

	resp := get(t, srv.URL+"/metrics")
	body := readBody(t, resp)
	for _, want := range []string{"bb_invariant_violations_total", `bb_event_total{type="RECOVERY"} 1`} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q", want)
		}
	}
}

// TestWatchInjectionThroughDispatcher: the end-to-end injection path —
// override a live invariant's bound on a running dispatcher and the
// violation must surface in events, stats and metrics within a tick.
func TestWatchInjectionThroughDispatcher(t *testing.T) {
	d := NewDispatcher(Config{
		Spec: ballsbins.Adaptive(), N: 64, Shards: 4, Seed: 1,
		Watch: watch.Options{Cadence: time.Hour},
	})
	srv := newServerFor(t, d)
	if _, _, err := d.PlaceMany(context.Background(), 300); err != nil {
		t.Fatal(err)
	}
	d.Watch().OverrideBound("serve_shard_max", -1)
	d.Watch().Tick(time.Now())

	if got := d.Watch().ViolationsTotal(); got != 1 {
		t.Fatalf("ViolationsTotal = %d, want 1", got)
	}
	edoc := decode[watch.EventsResponse](t, get(t, srv.URL+"/v1/events?type=BOUND_VIOLATION"), 200)
	if len(edoc.Events) != 1 || edoc.Events[0].Invariant != "serve_shard_max" {
		t.Fatalf("violation events = %+v", edoc.Events)
	}
	body := readBody(t, get(t, srv.URL+"/metrics"))
	if !strings.Contains(body, `bb_invariant_violations_total{invariant="serve_shard_max"} 1`) {
		t.Fatalf("violation metric missing:\n%s", body)
	}
}

// newServerFor serves an existing dispatcher over httptest.
func newServerFor(t *testing.T, d *Dispatcher) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewHandler(d, Info{Protocol: d.Name(), N: d.cfg.N, Shards: d.cfg.Shards}))
	t.Cleanup(func() { srv.Close(); d.Close() })
	return srv
}

func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// monitorTier serves a dispatcher with another watchdog in its place.
type monitorTier struct {
	*Dispatcher
	m *watch.Monitor
}

func (t monitorTier) Watch() *watch.Monitor { return t.m }

// TestWatchHTTPHandlers pins GET /v1/events and /v1/timeseries over a
// watchdog with a fixed probe: the journal and the window of points,
// and a malformed query refused as bad-request.
func TestWatchHTTPHandlers(t *testing.T) {
	m := watch.New("serve", watch.Options{}, func() watch.Sample {
		return watch.Sample{Point: watch.Point{Balls: 42, Gap: 3},
			Checks: []watch.Check{{Invariant: "x", Observed: 1, Bound: 10}}}
	})
	for i := 0; i < 5; i++ {
		m.Tick(time.Now())
	}
	m.Record(watch.EventRecovery, "replayed", map[string]int64{"snapshot_keys": 7})
	d := NewDispatcher(Config{Spec: ballsbins.Adaptive(), N: 64, Shards: 1, Seed: 1})
	t.Cleanup(d.Close)
	srv := httptest.NewServer(NewHandler(monitorTier{d, m}, Info{N: 64, Shards: 1}))
	t.Cleanup(srv.Close)

	edoc := decode[watch.EventsResponse](t, get(t, srv.URL+"/v1/events"), http.StatusOK)
	if edoc.Hop != "serve" || len(edoc.Events) != 1 || edoc.Events[0].Type != watch.EventRecovery {
		t.Fatalf("events doc = %+v", edoc)
	}
	if _, ok := edoc.EventCounts[string(watch.EventBoundViolation)]; !ok {
		t.Fatal("event_counts missing BOUND_VIOLATION label")
	}
	if edoc := decode[watch.EventsResponse](t, get(t, srv.URL+"/v1/events?since=1"), http.StatusOK); len(edoc.Events) != 0 {
		t.Fatalf("events since 1 = %+v", edoc.Events)
	}
	if edoc := decode[watch.EventsResponse](t, get(t, srv.URL+"/v1/events?type=RECOVERY"), http.StatusOK); len(edoc.Events) != 1 {
		t.Fatalf("events of type RECOVERY = %+v", edoc.Events)
	}

	sdoc := decode[watch.SeriesResponse](t, get(t, srv.URL+"/v1/timeseries?window=3"), http.StatusOK)
	if len(sdoc.Points) != 3 || sdoc.Points[2].Balls != 42 || sdoc.Points[2].Gap != 3 {
		t.Fatalf("series doc = %+v", sdoc)
	}

	for _, bad := range []string{"/v1/events?since=zebra", "/v1/events?type=EXPLOSION", "/v1/timeseries?window=x"} {
		if e := decode[ErrorResponse](t, get(t, srv.URL+bad), http.StatusBadRequest); e.Code != wire.CodeBadRequest {
			t.Errorf("GET %s: code %v, want bad-request", bad, e.Code)
		}
	}
}
