package cluster

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	ballsbins "repro"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/watch"
	"repro/internal/wire"
)

// TestBinCountAgreement: a backend serving another bin count is
// refused. Over wire the HELLO handshake refuses it at dial; over HTTP
// a late joiner is refused on first contact, so the router fails over,
// evicts it, and no placement lands on it.
func TestBinCountAgreement(t *testing.T) {
	const n = 64
	var urls []string
	var wrong *serve.Dispatcher
	for i, bins := range []int{n, n, n / 2} {
		d := serve.NewDispatcher(serve.Config{Spec: ballsbins.Adaptive(), N: bins, Shards: 2, Seed: uint64(i + 1)})
		t.Cleanup(d.Close)
		hs := httptest.NewServer(serve.NewHandler(d, serve.Info{N: bins, Shards: 2}))
		t.Cleanup(hs.Close)
		urls = append(urls, hs.URL)
		wrong = d
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := wire.NewServer(serve.NewHandler(wrong, serve.Info{N: n / 2, Shards: 2}), wire.ServerOptions{})
	go ws.Serve(ln)
	t.Cleanup(func() { ws.Close() })
	if wb, err := NewWireBackend(NewHTTPBackend(urls[2]), ln.Addr().String(), n); err == nil {
		wb.Close()
		t.Fatal("wire dial accepted a backend serving n/2 bins")
	}

	bks := []Backend{NewHTTPBackend(urls[0]), NewHTTPBackend(urls[1]), NewHTTPBackendN(urls[2], 0, n)}
	rt := NewRouter(Config{Backends: bks, BinsPerBackend: n, Policy: policyNamed("single"), Seed: 3, FailAfter: 2})
	defer rt.Close()
	ctx := context.Background()
	for i := 0; i < 200; i++ {
		bins, _, err := rt.Place(ctx, 1)
		if err != nil {
			t.Fatalf("place %d: %v", i, err)
		}
		if bins[0] >= 2*n {
			t.Fatalf("place %d landed on the mismatched backend: bin %d", i, bins[0])
		}
	}
	if st := rt.Stats(); st.Healthy != 2 || st.Rows[2].Up || st.Failovers == 0 {
		t.Fatalf("healthy %d, slot 2 up %v, failovers %d: want the mismatched backend evicted after failover",
			st.Healthy, st.Rows[2].Up, st.Failovers)
	}
	if v := wrong.Stats(); v.Placed != 0 {
		t.Fatalf("the mismatched backend holds %d placements", v.Placed)
	}
}

// TestClientErrorParity: every refusal either tier's front end
// answers reaches the client as the same answer over every
// transport — the proxy's no-backends and backend-down included — and
// HTTP answers it with its code's status.
func TestClientErrorParity(t *testing.T) {
	d := serve.NewDispatcher(serve.Config{Spec: ballsbins.Adaptive(), N: 64, Shards: 2, Seed: 1})
	t.Cleanup(d.Close)
	rt, _ := newInprocCluster(t, 2, 32, policyNamed("single"), 1)
	// A proxy whose backends all drain: a place fails over every one
	// and answers with their refusal. FailAfter keeps them in rotation
	// for every transport.
	var down []Backend
	for i := range 2 {
		bd := serve.NewDispatcher(serve.Config{Spec: ballsbins.Adaptive(), N: 32, Shards: 1, Seed: uint64(i)})
		bd.Close()
		down = append(down, &InprocBackend{D: bd})
	}
	drained := NewRouter(Config{Backends: down, BinsPerBackend: 32, Policy: policyNamed("single"), Seed: 1, FailAfter: 1 << 20})
	t.Cleanup(drained.Close)

	ctx := context.Background()
	long := strings.Repeat("k", wire.MaxKeyLen+1)
	longPlace, longRemove := "/v1/place?key="+long, "/v1/remove?bin=1&key="+long
	// Each op by its HTTP request; both tiers serve 64 bins.
	ops := map[string]func(b Backend) error{
		"/v1/place?key=k":   func(b Backend) error { _, _, err := b.PlaceKey(ctx, "k"); return err },
		"/v1/place":         func(b Backend) error { _, _, err := b.Place(ctx, 1); return err },
		"/v1/place?count=0": func(b Backend) error { _, _, err := b.Place(ctx, 0); return err },
		"/v1/remove?bin=64": func(b Backend) error { return b.Remove(ctx, 64) },
		longPlace:           func(b Backend) error { _, _, err := b.PlaceKey(ctx, long); return err },
		longRemove:          func(b Backend) error { return b.RemoveKey(ctx, 1, long) },
	}
	badRequest := &wire.Error{Code: wire.CodeBadRequest}
	for _, tc := range []struct {
		tier serve.Tier
		err  error // the refusal errTier answers with; nil asks the tier
		op   string
		want error
	}{
		{d, serve.ErrDraining, "/v1/place?key=k", serve.ErrDraining},
		{d, serve.ErrEmptyBin, "/v1/place?key=k", serve.ErrEmptyBin},
		{d, serve.ErrFull, "/v1/place?key=k", serve.ErrFull},
		{rt, ErrDraining, "/v1/place?key=k", serve.ErrDraining},
		{rt, ErrNoBackends, "/v1/place?key=k", ErrNoBackends},
		{rt, ErrBackendDown, "/v1/place?key=k", ErrBackendDown},
		{rt, serve.ErrFull, "/v1/place?key=k", serve.ErrFull},
		{d, nil, "/v1/remove?bin=64", badRequest},
		{d, nil, "/v1/place?count=0", badRequest},
		{rt, nil, "/v1/remove?bin=64", badRequest},
		{rt, nil, "/v1/place?count=0", badRequest},
		{d, nil, longPlace, badRequest},
		{d, nil, longRemove, badRequest},
		{rt, nil, longPlace, badRequest},
		{rt, nil, longRemove, badRequest},
		{drained, nil, "/v1/place", serve.ErrDraining},
	} {
		tier := tc.tier
		if tc.err != nil {
			tier = errTier{tc.tier, tc.err}
		}
		for _, transport := range []string{"inproc", "http", "wire"} {
			b := reachTier(t, transport, tier, "b")
			if err := ops[tc.op](b); !errors.Is(err, tc.want) {
				t.Errorf("%T answering %s over %s: %v, want %v", tc.tier, tc.op, transport, err, tc.want)
			}
		}
		rec := httptest.NewRecorder()
		serve.NewHandler(tier, serve.Info{N: tier.N()}).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.op, nil))
		if want := wire.ErrCode(tc.want).Status(0); rec.Code != want {
			t.Errorf("%T answering %s over HTTP: status %d, want %d", tc.tier, tc.op, rec.Code, want)
		}
	}
}

// TestBackendAllocs pins each backend's allocations for a place+remove
// pair and a keyed place+remove pair, server in the same process, so
// the router's per-op calls never pay for the client tools' needs. In
// process a pair costs the dispatcher's bins and one stats row per op;
// over wire the client adds only the bins it decodes for its caller.
// A traced pair costs the same, as every bbload and bbmark request is
// traced. The HTTP rows run untraced: their traced cost is net/http's
// header handling.
func TestBackendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	for _, tc := range []struct {
		transport   string
		traced      bool
		pair, keyed float64
	}{
		{"inproc", false, 3, 3}, {"inproc", true, 3, 3},
		{"wire", false, 4, 4}, {"wire", true, 4, 4},
		{"http", false, 192, 200},
	} {
		// No watchdog: its ticks would allocate inside the measurement.
		d := serve.NewDispatcher(serve.Config{Spec: ballsbins.Adaptive(), N: 1024, Shards: 4, Seed: 1,
			Watch: watch.Options{Disabled: true}})
		t.Cleanup(d.Close)
		b := serveOver(t, tc.transport, []*serve.Dispatcher{d})[0]
		ctx := context.Background()
		if tc.traced {
			ctx = obs.WithTrace(ctx, 0xfeedface)
		}
		pair := func() {
			bins, _, err := b.Place(ctx, 1)
			if err == nil {
				err = b.Remove(ctx, bins[0])
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		keyedPair := func() {
			bins, _, err := b.PlaceKey(ctx, "k")
			if err == nil {
				err = b.RemoveKey(ctx, bins[0], "k")
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 100; i++ {
			pair()
			keyedPair()
		}
		if got := testing.AllocsPerRun(2000, pair); got > tc.pair {
			t.Errorf("%s (traced %v) place+remove: %v allocs, want <= %v", tc.transport, tc.traced, got, tc.pair)
		}
		if got := testing.AllocsPerRun(2000, keyedPair); got > tc.keyed {
			t.Errorf("%s (traced %v) keyed place+remove: %v allocs, want <= %v", tc.transport, tc.traced, got, tc.keyed)
		}
	}
}
