package cluster

import (
	"context"
	"errors"
	"net"
	"net/http/httptest"
	"testing"

	ballsbins "repro"
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
	rt := NewRouter(Config{Backends: bks, BinsPerBackend: n, Policy: single{}, Seed: 3, FailAfter: 2})
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
// answers reaches the client as the same sentinel over every
// transport — the proxy's no-backends and backend-down included.
func TestClientErrorParity(t *testing.T) {
	d := serve.NewDispatcher(serve.Config{Spec: ballsbins.Adaptive(), N: 64, Shards: 2, Seed: 1})
	t.Cleanup(d.Close)
	rt, _ := newInprocCluster(t, 2, 32, single{}, 1)
	for _, tc := range []struct {
		tier      serve.Tier
		err, want error
	}{
		{d, serve.ErrDraining, serve.ErrDraining},
		{d, serve.ErrEmptyBin, serve.ErrEmptyBin},
		{d, serve.ErrKeyedUnsupported, serve.ErrKeyedUnsupported},
		{rt, ErrDraining, serve.ErrDraining},
		{rt, ErrNoBackends, ErrNoBackends},
		{rt, ErrBackendDown, ErrBackendDown},
		{rt, serve.ErrKeyedUnsupported, serve.ErrKeyedUnsupported},
	} {
		for _, transport := range []string{"inproc", "http", "wire"} {
			b := reachTier(t, transport, errTier{tc.tier, tc.err}, "b").(KeyedBackend)
			if _, _, err := b.PlaceKey(context.Background(), "k"); !errors.Is(err, tc.want) {
				t.Errorf("%T refusing with %q over %s: %v, want %v", tc.tier, tc.err, transport, err, tc.want)
			}
		}
	}
}

// TestBackendAllocs pins each backend's allocations for a place+remove
// pair and a keyed place+remove pair, server in the same process, to
// the counts measured with this harness before bbload's copies of the
// clients were folded into these three: the router's per-op calls
// must not pay for the client tools' needs.
func TestBackendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	for _, tc := range []struct {
		transport   string
		pair, keyed float64
	}{{"inproc", 4, 3}, {"wire", 26, 25}, {"http", 192, 200}} {
		// No watchdog: its ticks would allocate inside the measurement.
		d := serve.NewDispatcher(serve.Config{Spec: ballsbins.Adaptive(), N: 1024, Shards: 4, Seed: 1,
			Watch: watch.Options{Disabled: true}})
		t.Cleanup(d.Close)
		b := serveOver(t, tc.transport, []*serve.Dispatcher{d})[0]
		kb := b.(KeyedBackend)
		ctx := context.Background()
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
			bins, _, err := kb.PlaceKey(ctx, "k")
			if err == nil {
				err = kb.RemoveKey(ctx, bins[0], "k")
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
			t.Errorf("%s place+remove: %v allocs, want <= %v", tc.transport, got, tc.pair)
		}
		if got := testing.AllocsPerRun(2000, keyedPair); got > tc.keyed {
			t.Errorf("%s keyed place+remove: %v allocs, want <= %v", tc.transport, got, tc.keyed)
		}
	}
}
