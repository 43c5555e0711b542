package cluster

import (
	"context"
	"fmt"
	"net"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	ballsbins "repro"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/wire"
)

// newTracedTier builds the full two-hop path — router over 2 backends,
// each a real serve dispatcher behind the chosen transport — with both
// recorders head-sampling every op, so every request's spans land in
// both rings.
func newTracedTier(t *testing.T, transport string) (*Router, []*serve.Dispatcher) {
	t.Helper()
	const k, n = 2, 64
	ds := make([]*serve.Dispatcher, k)
	backends := make([]Backend, k)
	for i := range ds {
		d := serve.NewDispatcher(serve.Config{
			Spec: ballsbins.Adaptive(), N: n, Shards: 1, Seed: uint64(i + 1),
			Obs: obs.Options{SampleEvery: 1},
		})
		ds[i] = d
		t.Cleanup(d.Close)
		info := serve.Info{Protocol: d.Name(), N: n, Shards: 1}
		hs := httptest.NewServer(serve.NewHandler(d, info))
		t.Cleanup(hs.Close)
		hb := NewHTTPBackend(hs.URL)
		switch transport {
		case "http":
			backends[i] = hb
		case "wire":
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			ws := wire.NewServer(serve.NewDispatcherWire(d, info), wire.ServerOptions{})
			go ws.Serve(ln)
			t.Cleanup(func() { ws.Close() })
			wb, err := NewWireBackend(hb, ln.Addr().String(), n)
			if err != nil {
				t.Fatal(err)
			}
			backends[i] = wb
		default:
			t.Fatalf("unknown transport %q", transport)
		}
	}
	policy, err := PolicyByName("greedy", 2, 3, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRouter(Config{
		Backends:       backends,
		BinsPerBackend: n,
		Policy:         policy,
		Seed:           7,
		Obs:            obs.Options{SampleEvery: 1},
	})
	t.Cleanup(rt.Close)
	return rt, ds
}

// traceSignature renders one trace's two-hop shape ("proxy/place:
// probe+forward|serve/place:queue+apply") after verifying span
// containment and cross-hop ordering.
func traceSignature(t *testing.T, id uint64, proxyOps, serveOps []*obs.Op) string {
	t.Helper()
	want := obs.FormatTrace(id)
	find := func(ops []*obs.Op, hop string) *obs.Op {
		var got *obs.Op
		for _, op := range ops {
			if op.Trace != want {
				continue
			}
			if got != nil {
				t.Fatalf("trace %s recorded twice on hop %s", want, hop)
			}
			got = op
		}
		if got == nil {
			t.Fatalf("trace %s missing on hop %s", want, hop)
		}
		return got
	}
	check := func(op *obs.Op) string {
		sig := op.Hop + "/" + op.Op + ":"
		end := op.Start + op.DurationNs
		for i, sp := range op.Spans {
			if sp.Start < op.Start || sp.Start+sp.DurationNs > end {
				t.Errorf("trace %s %s span %s [%d,+%d] escapes parent [%d,+%d]",
					want, op.Hop, sp.Stage, sp.Start, sp.DurationNs, op.Start, op.DurationNs)
			}
			if i > 0 {
				sig += "+"
			}
			sig += sp.Stage
		}
		return sig
	}
	po, so := find(proxyOps, "proxy"), find(serveOps, "serve")
	if so.Start < po.Start {
		t.Errorf("trace %s: serve hop started (%d) before proxy hop (%d)", want, so.Start, po.Start)
	}
	return check(po) + "|" + check(so)
}

// TestTracePropagationEquivalence drives the same seeded script
// through proxy + 2 backends over HTTP and over the wire protocol and
// asserts each trace id shows up exactly once per hop with the same
// hop/stage topology on both transports, with span timestamps
// contained in their parents and ordered across hops.
func TestTracePropagationEquivalence(t *testing.T) {
	const places, removes = 8, 2
	sigs := make(map[string][]string) // transport -> per-script-slot signature
	for _, transport := range []string{"http", "wire"} {
		rt, ds := newTracedTier(t, transport)
		ctx := context.Background()
		var traces []uint64
		var bins []int
		for i := 0; i < places; i++ {
			id := uint64(0xA000 + i + 1)
			bs, _, err := rt.Place(obs.WithTrace(ctx, id), 1)
			if err != nil {
				t.Fatalf("%s place %d: %v", transport, i, err)
			}
			traces = append(traces, id)
			bins = append(bins, bs[0])
		}
		for i := 0; i < removes; i++ {
			id := uint64(0xB000 + i + 1)
			if err := rt.Remove(obs.WithTrace(ctx, id), bins[i]); err != nil {
				t.Fatalf("%s remove %d: %v", transport, i, err)
			}
			traces = append(traces, id)
		}
		proxyOps := rt.Obs().Ops(0)
		var serveOps []*obs.Op
		for _, d := range ds {
			serveOps = append(serveOps, d.Obs().Ops(0)...)
		}
		for _, id := range traces {
			sigs[transport] = append(sigs[transport], traceSignature(t, id, proxyOps, serveOps))
		}
	}
	for i := range sigs["http"] {
		if sigs["http"][i] != sigs["wire"][i] {
			t.Errorf("script slot %d: topology differs across transports:\n  http: %s\n  wire: %s",
				i, sigs["http"][i], sigs["wire"][i])
		}
	}
}

// toggleBackend is a Backend whose health and traffic flip with one
// atomic — the eviction/rejoin fixture for the staleness test.
type toggleBackend struct {
	d    *serve.Dispatcher
	down atomic.Bool
}

func (b *toggleBackend) Name() string { return "toggle" }

func (b *toggleBackend) Place(ctx context.Context, count int) ([]int, int64, error) {
	if b.down.Load() {
		return nil, 0, fmt.Errorf("toggle: down")
	}
	return b.d.PlaceMany(ctx, count)
}

func (b *toggleBackend) Remove(ctx context.Context, bin int) error {
	if b.down.Load() {
		return fmt.Errorf("toggle: down")
	}
	return b.d.Remove(ctx, bin)
}

func (b *toggleBackend) PlaceKey(ctx context.Context, key string) ([]int, int64, error) {
	if b.down.Load() {
		return nil, 0, fmt.Errorf("toggle: down")
	}
	return b.d.PlaceBalls(ctx, key, 1)
}

func (b *toggleBackend) RemoveKey(ctx context.Context, bin int, key string) error {
	if b.down.Load() {
		return fmt.Errorf("toggle: down")
	}
	return b.d.RemoveKeyed(ctx, bin, key)
}

func (b *toggleBackend) Stats(context.Context) (serve.StatsView, error) {
	if b.down.Load() {
		return serve.StatsView{}, fmt.Errorf("toggle: down")
	}
	return b.d.Stats(), nil
}

func (b *toggleBackend) Health(context.Context) error {
	if b.down.Load() {
		return fmt.Errorf("toggle: down")
	}
	return nil
}

func (b *toggleBackend) ReadTrace(ctx context.Context, id string) ([]*obs.Op, error) {
	if b.down.Load() {
		return nil, fmt.Errorf("toggle: down")
	}
	return (&InprocBackend{D: b.d}).ReadTrace(ctx, id)
}

// TestRejoinResetsPickStaleness pins the rejoin re-poll contract: with
// no periodic refresh (huge staleness window), the load view only ages
// — until an evicted backend rejoins, whose onChange hook forces a
// fresh poll, so the first picks after rejoin see ~0 staleness instead
// of the age accumulated before the eviction.
func TestRejoinResetsPickStaleness(t *testing.T) {
	d := serve.NewDispatcher(serve.Config{Spec: ballsbins.Adaptive(), N: 64, Shards: 1, Seed: 1})
	defer d.Close()
	b := &toggleBackend{d: d}
	policy, err := PolicyByName("single", 1, 3, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRouter(Config{
		Backends:       []Backend{b},
		BinsPerBackend: 64,
		Policy:         policy,
		Seed:           1,
		Staleness:      time.Hour, // no periodic re-poll: the view only ages
		HealthEvery:    2 * time.Millisecond,
		FailAfter:      2,
		RiseAfter:      2,
	})
	defer rt.Close()

	ctx := context.Background()
	waitFor := func(cond func() bool, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// Phase 1: let the startup poll age, then pick — staleness at pick
	// reflects the view's age.
	aged := 60 * time.Millisecond
	time.Sleep(aged)
	if _, _, err := rt.Place(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if snap := rt.pickStaleness.SnapshotAndReset(); snap.Max < (aged / 2).Milliseconds() {
		t.Fatalf("pre-rejoin pick staleness %dms, want >= %dms (view should have aged)",
			snap.Max, (aged / 2).Milliseconds())
	}

	// Phase 2: evict, rejoin, and pick again immediately. The rejoin
	// hook's forced re-poll must have reset the view's age — without
	// it, staleness would exceed everything elapsed since startup.
	b.down.Store(true)
	waitFor(func() bool { return !rt.Membership().IsUp(0) }, "eviction")
	b.down.Store(false)
	waitFor(func() bool { return rt.Membership().IsUp(0) }, "rejoin")
	// The forced re-poll runs async off the membership lock; give it a
	// beat, then verify it landed rather than sleeping blind.
	waitFor(func() bool {
		age, ok := rt.View().age(0, time.Now())
		return ok && age < 40*time.Millisecond
	}, "forced re-poll after rejoin")
	if _, _, err := rt.Place(ctx, 1); err != nil {
		t.Fatal(err)
	}
	snap := rt.pickStaleness.SnapshotAndReset()
	if snap.Count == 0 {
		t.Fatal("post-rejoin pick recorded no staleness sample")
	}
	if max := snap.Max; max > 50 {
		t.Fatalf("post-rejoin pick staleness %dms, want ~0 (rejoin re-poll should reset the view)", max)
	}
}
