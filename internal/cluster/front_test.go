package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	ballsbins "repro"
	"repro/internal/keyed"
	"repro/internal/serve"
	"repro/internal/wire"
)

// serveOver puts each dispatcher behind one transport: "inproc",
// "http" (a serve.Handler over httptest) or "wire" (a wire server on a
// loopback listener, dialed through NewWireBackend).
func serveOver(t *testing.T, transport string, ds []*serve.Dispatcher) []Backend {
	t.Helper()
	bks := make([]Backend, len(ds))
	for i, d := range ds {
		bks[i] = reachTier(t, transport, d, fmt.Sprintf("b%d", i))
	}
	return bks
}

// reachTier serves tier over transport and returns the client for it.
func reachTier(t *testing.T, transport string, tier serve.Tier, label string) Backend {
	t.Helper()
	if transport == "inproc" {
		return &InprocBackend{D: tier, Label: label}
	}
	h := serve.NewHandler(tier, serve.Info{N: tier.N()})
	hs := httptest.NewServer(h)
	t.Cleanup(hs.Close)
	hb := NewHTTPBackend(hs.URL)
	if transport == "http" {
		return hb
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := wire.NewServer(h, wire.ServerOptions{})
	go ws.Serve(ln)
	t.Cleanup(func() { ws.Close() })
	wb, err := NewWireBackend(hb, ln.Addr().String(), tier.N())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wb.Close() })
	return wb
}

// fullDispatchers returns k threshold dispatchers filled to capacity:
// each shard's horizon is 50 balls over 32 bins, so every bin holds
// ⌈50/32⌉+1 = 3 balls, 192 in all.
func fullDispatchers(t *testing.T, k int) []*serve.Dispatcher {
	t.Helper()
	ds := make([]*serve.Dispatcher, k)
	for i := range ds {
		ds[i] = serve.NewDispatcher(serve.Config{
			Spec: ballsbins.Threshold(), N: 64, Shards: 2, Seed: uint64(i + 1), Horizon: 100,
		})
		t.Cleanup(ds[i].Close)
		if _, _, err := ds[i].PlaceMany(context.Background(), 192); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

// TestFullKeepsBackends: backends at capacity answer every keyed and
// anonymous place with serve.ErrFull. The refusal comes from healthy
// backends, so no backend is evicted, no place fails over, no key
// moves and no key keeps a ref, on every transport.
func TestFullKeepsBackends(t *testing.T) {
	for _, transport := range []string{"inproc", "http", "wire"} {
		t.Run(transport, func(t *testing.T) {
			const k = 3
			rt := NewRouter(Config{
				Backends:       serveOver(t, transport, fullDispatchers(t, k)),
				BinsPerBackend: 64,
				Policy:         policyNamed("single"),
				Seed:           7,
				FailAfter:      2,
				Keyed:          &keyed.Config{HotShare: 1},
			})
			defer rt.Close()
			ctx := context.Background()
			for i := 0; i < 10; i++ {
				if _, _, err := rt.PlaceKeyed(ctx, fmt.Sprintf("k%d", i%4)); !errors.Is(err, serve.ErrFull) {
					t.Fatalf("keyed place %d: err %v, want ErrFull", i, err)
				}
				if _, _, err := rt.Place(ctx, 1); !errors.Is(err, serve.ErrFull) {
					t.Fatalf("place %d: err %v, want ErrFull", i, err)
				}
			}
			// The proxy's front end answers the refusal like bbserved:
			// 507 over HTTP, CodeFull over the wire.
			h := serve.NewHandler(rt, serve.Info{N: rt.N()})
			for _, path := range []string{"/v1/place?key=k0", "/v1/place"} {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, nil))
				if rec.Code != http.StatusInsufficientStorage {
					t.Fatalf("proxy HTTP %s: status %d, want 507", path, rec.Code)
				}
			}
			if _, _, err := h.PlaceKeyed(ctx, "k0"); wire.ErrCode(err) != wire.CodeFull {
				t.Fatalf("proxy wire keyed place: %v, want full", err)
			}
			if _, _, err := h.Place(ctx, 1); wire.ErrCode(err) != wire.CodeFull {
				t.Fatalf("proxy wire place: %v, want full", err)
			}
			st := rt.Stats()
			if st.Healthy != k || st.Evictions != 0 || st.Failovers != 0 {
				t.Fatalf("after refused places: healthy %d evictions %d failovers %d, want %d/0/0",
					st.Healthy, st.Evictions, st.Failovers, k)
			}
			if st.Keyed.MovedKeys != 0 || st.Keyed.LiveBalls != 0 {
				t.Fatalf("after refused keyed places: moved_keys %d live_balls %d, want 0/0",
					st.Keyed.MovedKeys, st.Keyed.LiveBalls)
			}
		})
	}
}

// TestRefusalsKeepBackends: a place over serve.MaxBulkPlace and a
// keyed place or remove with a key over wire.MaxKeyLen are malformed
// requests. The router refuses them itself, as every backend's front
// end would, so no backend is blamed, no place fails over and no key
// keeps a ref, on every transport.
func TestRefusalsKeepBackends(t *testing.T) {
	long := strings.Repeat("k", wire.MaxKeyLen+1)
	for _, transport := range []string{"inproc", "http", "wire"} {
		t.Run(transport, func(t *testing.T) {
			const k = 3
			ds := make([]*serve.Dispatcher, k)
			for i := range ds {
				ds[i] = serve.NewDispatcher(serve.Config{Spec: ballsbins.Adaptive(), N: 64, Shards: 2, Seed: uint64(i + 1)})
				t.Cleanup(ds[i].Close)
			}
			rt := NewRouter(Config{
				Backends:       serveOver(t, transport, ds),
				BinsPerBackend: 64,
				Policy:         policyNamed("adaptive"),
				Seed:           7,
				FailAfter:      2,
				Keyed:          &keyed.Config{},
			})
			defer rt.Close()
			ctx := context.Background()
			for _, tc := range []struct {
				name string
				op   func() error
			}{
				{"over-cap place", func() error { _, _, err := rt.Place(ctx, serve.MaxBulkPlace+1); return err }},
				{"long-key place", func() error { _, _, err := rt.PlaceKeyed(ctx, long); return err }},
				{"long-key remove", func() error { return rt.RemoveKeyed(ctx, 0, long) }},
			} {
				for i := 0; i < 2; i++ {
					if err := tc.op(); wire.ErrCode(err) != wire.CodeBadRequest {
						t.Fatalf("%s %d: %v, want bad-request", tc.name, i, err)
					}
				}
			}
			st := rt.Stats()
			if st.Healthy != k || st.Evictions != 0 || st.Failovers != 0 || st.Keyed.LiveBalls != 0 {
				t.Fatalf("after refusals: healthy %d evictions %d failovers %d live_balls %d, want %d/0/0/0",
					st.Healthy, st.Evictions, st.Failovers, st.Keyed.LiveBalls, k)
			}
			if _, _, err := rt.Place(ctx, 1); err != nil {
				t.Fatalf("place after refusals: %v", err)
			}
		})
	}
}

// errTier makes a real tier fail PlaceBalls and RemoveKeyed with err,
// so the front end answers err's code with that tier's own
// InternalStatus.
type errTier struct {
	serve.Tier
	err error
}

func (e errTier) PlaceBalls(context.Context, string, int) ([]int, int64, error) {
	return nil, 0, e.err
}

func (e errTier) RemoveKeyed(context.Context, int, string) error { return e.err }

// TestFrontStatusMatchesWireCode drives each error through both
// transports of both tiers' front end: the HTTP status is the one the
// wire.Code table documents for the code the wire adapter sends.
func TestFrontStatusMatchesWireCode(t *testing.T) {
	codeStatus := map[wire.Code]int{
		wire.CodeEmptyBin:    http.StatusConflict,
		wire.CodeDraining:    http.StatusServiceUnavailable,
		wire.CodeFull:        http.StatusInsufficientStorage,
		wire.CodeBadRequest:  http.StatusBadRequest,
		wire.CodeBackendDown: http.StatusServiceUnavailable,
		wire.CodeNoBackends:  http.StatusServiceUnavailable,
	}
	d := serve.NewDispatcher(serve.Config{Spec: ballsbins.Adaptive(), N: 64, Shards: 2, Seed: 1})
	t.Cleanup(d.Close)
	rt, _ := newInprocCluster(t, 2, 32, policyNamed("single"), 1)
	boom := errors.New("boom")
	tiers := []struct {
		name     string
		tier     serve.Tier
		internal int
		errs     map[error]wire.Code
	}{
		{"serve", d, http.StatusInternalServerError, map[error]wire.Code{
			serve.ErrDraining: wire.CodeDraining,
			serve.ErrEmptyBin: wire.CodeEmptyBin,
			serve.ErrFull:     wire.CodeFull,
			boom:              wire.CodeInternal,
		}},
		{"proxy", rt, http.StatusBadGateway, map[error]wire.Code{
			ErrDraining:       wire.CodeDraining,
			serve.ErrEmptyBin: wire.CodeEmptyBin,
			serve.ErrFull:     wire.CodeFull,
			ErrNoBackends:     wire.CodeNoBackends,
			ErrBackendDown:    wire.CodeBackendDown,
			fmt.Errorf("cluster: place failed on every healthy backend: %w", boom): wire.CodeInternal,
		}},
	}
	for _, tc := range tiers {
		status := func(c wire.Code) int {
			if c == wire.CodeInternal {
				return tc.internal
			}
			return codeStatus[c]
		}
		check := func(t *testing.T, what string, httpStatus int, wireErr error, want wire.Code) {
			t.Helper()
			if got := wire.ErrCode(wireErr); wireErr == nil || got != want {
				t.Errorf("%s: wire code %v (err %v), want %v", what, got, wireErr, want)
			}
			if httpStatus != status(want) {
				t.Errorf("%s: HTTP %d, want %d for %v", what, httpStatus, status(want), want)
			}
		}
		do := func(h http.Handler, target string) int {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, nil))
			return rec.Code
		}
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			for err, code := range tc.errs {
				h := serve.NewHandler(errTier{tc.tier, err}, serve.Info{N: tc.tier.N()})
				_, _, werr := h.Place(ctx, 1)
				check(t, "place "+err.Error(), do(h, "/v1/place"), werr, code)
				_, _, werr = h.PlaceKeyed(ctx, "k")
				check(t, "keyed place "+err.Error(), do(h, "/v1/place?key=k"), werr, code)
				check(t, "remove "+err.Error(), do(h, "/v1/remove?bin=1"), h.Remove(ctx, 1, ""), code)
			}
			h := serve.NewHandler(tc.tier, serve.Info{N: tc.tier.N()})
			_, _, werr := h.Place(ctx, 0)
			check(t, "bad count", do(h, "/v1/place?count=0"), werr, wire.CodeBadRequest)
			check(t, "bad bin", do(h, fmt.Sprintf("/v1/remove?bin=%d", tc.tier.N())),
				h.Remove(ctx, tc.tier.N(), ""), wire.CodeBadRequest)
			_, _, werr = h.PlaceKeyed(ctx, "")
			check(t, "bad key", do(h, "/v1/place?count=2&key=k"), werr, wire.CodeBadRequest)
		})
	}
}

// TestFrontAllocs pins the shared front end's allocations per op to
// the counts each tier's own HTTP handler and wire adapter had before
// the tiers shared one front end, measured with this same harness (the
// HTTP counts include the recorder's allocations): a dispatcher, a
// router over in-proc backends, and a keyed router for keyed places.
func TestFrontAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	d := serve.NewDispatcher(serve.Config{Spec: ballsbins.Adaptive(), N: 1024, Shards: 4, Seed: 1})
	t.Cleanup(d.Close)
	rt, _ := newInprocCluster(t, 3, 256, policyNamed("greedy"), 1)
	krt, _ := newKeyedCluster(t, 3, &keyed.Config{HotShare: 1})
	ctx := context.Background()
	const runs = 2000
	for _, tier := range []struct {
		name        string
		anon, keyed serve.Tier
	}{{"serve", d, d}, {"proxy", rt, krt}} {
		h := serve.NewHandler(tier.anon, serve.Info{N: tier.anon.N()})
		kh := serve.NewHandler(tier.keyed, serve.Info{N: tier.keyed.N()})
		bins := make([]int, 0, runs+1)
		for i := 0; i < runs+1; i++ {
			b, _, _ := h.Place(ctx, 1)
			bins = append(bins, b[0])
		}
		next := 0
		place := httptest.NewRequest("POST", "/v1/place", nil)
		keyedPlace := httptest.NewRequest("POST", "/v1/place?key=k", nil)
		for _, tc := range []struct {
			name string
			max  float64
			op   func()
		}{
			{"wire place", 3, func() { h.Place(ctx, 1) }},
			{"wire keyed place", 2, func() { kh.PlaceKeyed(ctx, "k") }},
			{"wire remove", 1, func() { h.Remove(ctx, bins[next], ""); next++ }},
			{"http place", 20, func() { h.ServeHTTP(httptest.NewRecorder(), place) }},
			{"http keyed place", 23, func() { kh.ServeHTTP(httptest.NewRecorder(), keyedPlace) }},
		} {
			if got := testing.AllocsPerRun(runs, tc.op); got > tc.max {
				t.Errorf("%s %s: %v allocs/op, want <= %v", tier.name, tc.name, got, tc.max)
			}
		}
	}
}
