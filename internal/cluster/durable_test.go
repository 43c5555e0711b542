package cluster

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	ballsbins "repro"
	"repro/internal/keyed"
	"repro/internal/serve"
	"repro/internal/wal"
)

// newDurableCluster builds K in-proc backends and a Config pointing
// the keyed tier at dir. The backends outlive any one router, so a
// test can Close/Crash and reopen against the same directory — the
// in-proc analogue of restarting bbproxy under live bbserveds.
func newDurableCluster(t *testing.T, k int, dir, fsync string) (Config, []*serve.Dispatcher) {
	t.Helper()
	const n = 512
	backends := make([]Backend, k)
	ds := make([]*serve.Dispatcher, k)
	for i := range backends {
		ds[i] = serve.NewDispatcher(serve.Config{
			Spec: ballsbins.Adaptive(), N: n, Shards: 2, Seed: uint64(50 + i),
		})
		backends[i] = &InprocBackend{D: ds[i], Label: fmt.Sprintf("b%d", i)}
	}
	t.Cleanup(func() {
		for _, d := range ds {
			d.Close()
		}
	})
	return Config{
		Backends:       backends,
		BinsPerBackend: n,
		Policy:         policyNamed("single"),
		Seed:           7,
		Keyed:          &keyed.Config{HotShare: 1},
		KeyedStore:     &keyed.StoreOptions{Dir: dir, Fsync: fsync},
	}, ds
}

// placeKeys routes count keys and returns each key's backend slot.
func placeKeys(t *testing.T, rt *Router, count int) map[string]int {
	t.Helper()
	ctx := context.Background()
	slots := make(map[string]int, count)
	for i := 0; i < count; i++ {
		key := fmt.Sprintf("k%d", i)
		bins, _, err := rt.PlaceKeyed(ctx, key)
		if err != nil {
			t.Fatalf("place %s: %v", key, err)
		}
		slots[key] = bins[0] / rt.BinsPerBackend()
	}
	return slots
}

// TestRouterTermRestartZeroLoss is the satellite's clean-shutdown
// gate: SIGTERM drain (Router.Close) seals a final snapshot, and the
// restarted router recovers every assignment with zero journal replay
// and zero affinity loss.
func TestRouterTermRestartZeroLoss(t *testing.T) {
	cfg, _ := newDurableCluster(t, 3, t.TempDir(), wal.SyncInterval)
	rt, rec, err := OpenRouter(cfg)
	if err != nil {
		t.Fatalf("OpenRouter: %v", err)
	}
	if rec == nil || rec.SnapshotKeys != 0 || rec.ReplayedRecords != 0 {
		t.Fatalf("fresh directory recovered %+v", rec)
	}

	const keys = 200
	pre := placeKeys(t, rt, keys)
	preMirror := rt.Keyed().Mirror()
	rt.Close() // TERM drain: final compacting snapshot

	rt2, rec2, err := OpenRouter(cfg)
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	defer rt2.Close()
	if rec2.ReplayedRecords != 0 {
		t.Fatalf("clean shutdown still replayed %d records", rec2.ReplayedRecords)
	}
	if rec2.SnapshotKeys == 0 {
		t.Fatal("final snapshot restored no keys")
	}
	if got := rt2.Keyed().Mirror(); !got.Equal(preMirror) {
		t.Fatalf("restart diverged from pre-shutdown state:\npre:  %+v\npost: %+v", preMirror, got)
	}

	post := placeKeys(t, rt2, keys)
	for key, slot := range pre {
		if post[key] != slot {
			t.Fatalf("key %s moved across restart: backend %d -> %d", key, slot, post[key])
		}
	}
	st := rt2.Keyed().Stats()
	if st.AffinityMisses != 0 {
		t.Fatalf("restart lost %d assignments (affinity misses on known keys)", st.AffinityMisses)
	}
	if ds := rt2.Durability(); ds == nil || ds.Fsync != wal.SyncInterval {
		t.Fatalf("durability block after restart: %+v", ds)
	}
}

// TestRouterCrashRestartReplaysExact is the kill -9 analogue: no
// drain, no final snapshot — under SyncAlways the journal alone must
// rebuild the exact pre-crash assignment.
func TestRouterCrashRestartReplaysExact(t *testing.T) {
	cfg, _ := newDurableCluster(t, 3, t.TempDir(), wal.SyncAlways)
	rt, _, err := OpenRouter(cfg)
	if err != nil {
		t.Fatalf("OpenRouter: %v", err)
	}

	const keys = 200
	pre := placeKeys(t, rt, keys)
	preMirror := rt.Keyed().Mirror()
	rt.Crash() // kill -9: nothing flushed beyond the fsync policy

	rt2, rec2, err := OpenRouter(cfg)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer rt2.Close()
	if rec2.ReplayedRecords == 0 {
		t.Fatal("crash recovery replayed nothing")
	}
	if got := rt2.Keyed().Mirror(); !got.Equal(preMirror) {
		t.Fatalf("crash recovery diverged:\npre:  %+v\npost: %+v", preMirror, got)
	}
	post := placeKeys(t, rt2, keys)
	for key, slot := range pre {
		if post[key] != slot {
			t.Fatalf("key %s moved across crash: backend %d -> %d", key, slot, post[key])
		}
	}
}

// gatedBackend fails the first keyed place through any backend that
// shares its gate, after blocking it until the gate opens: a backend
// dying under a request that is already in flight.
type gatedBackend struct {
	*InprocBackend
	g *placeGate
}

type placeGate struct {
	fired   atomic.Bool
	entered chan struct{} // closed once the first keyed place arrives
	release chan struct{} // closed by the test to let it fail
}

func (b *gatedBackend) PlaceKey(ctx context.Context, key string) ([]int, int64, error) {
	if b.g.fired.CompareAndSwap(false, true) {
		close(b.g.entered)
		<-b.g.release
		return nil, 0, errors.New("backend died mid-place")
	}
	return b.InprocBackend.PlaceKey(ctx, key)
}

// newGatedCluster is a durable two-backend cluster whose backends
// share one gate.
func newGatedCluster(t *testing.T) (Config, *placeGate) {
	t.Helper()
	cfg, _ := newDurableCluster(t, 2, t.TempDir(), wal.SyncInterval)
	g := &placeGate{entered: make(chan struct{}), release: make(chan struct{})}
	for i, b := range cfg.Backends {
		cfg.Backends[i] = &gatedBackend{InprocBackend: b.(*InprocBackend), g: g}
	}
	return cfg, g
}

// TestRouterCloseDrainsAdmittedPlace: Close starts while a keyed place
// is admitted and blocked on a backend that then fails, so the place
// moves its key to the other backend and succeeds there. Close must
// not return before the place does, and the store it seals must hold
// the moved key: a router reopened on the same directory recovers
// exactly the drained map.
func TestRouterCloseDrainsAdmittedPlace(t *testing.T) {
	cfg, g := newGatedCluster(t)
	rt, _, err := OpenRouter(cfg)
	if err != nil {
		t.Fatalf("OpenRouter: %v", err)
	}
	type result struct {
		bins []int
		err  error
	}
	placed := make(chan result, 1)
	go func() {
		bins, _, err := rt.PlaceKeyed(context.Background(), "k")
		placed <- result{bins, err}
	}()
	<-g.entered
	closed := make(chan struct{})
	go func() {
		rt.Close()
		close(closed)
	}()
	for !rt.Draining() {
		runtime.Gosched()
	}
	select {
	case <-closed:
		t.Error("Close returned while a keyed place was still admitted")
	case <-time.After(50 * time.Millisecond):
	}
	close(g.release)
	res := <-placed
	<-closed
	if res.err != nil {
		t.Fatalf("keyed place during the drain: %v", res.err)
	}
	drained := rt.Keyed().Mirror()
	if got, want := drained.Keys["k"], []int{res.bins[0] / rt.BinsPerBackend()}; !slices.Equal(got, want) {
		t.Fatalf("drained map holds k on %v, the place landed on %v", got, want)
	}

	rt2, _, err := OpenRouter(cfg)
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	defer rt2.Close()
	if got := rt2.Keyed().Mirror(); !got.Equal(drained) {
		t.Fatalf("reopened router diverged from the drained one:\ndrained:  %+v\nreopened: %+v", drained, got)
	}
}

// TestRouterCrashDoesNotWait: Crash is kill -9, so unlike Close it
// returns while a keyed place is still admitted and blocked on a
// backend.
func TestRouterCrashDoesNotWait(t *testing.T) {
	cfg, g := newGatedCluster(t)
	rt, _, err := OpenRouter(cfg)
	if err != nil {
		t.Fatalf("OpenRouter: %v", err)
	}
	placed := make(chan struct{})
	go func() {
		rt.PlaceKeyed(context.Background(), "k")
		close(placed)
	}()
	<-g.entered
	crashed := make(chan struct{})
	go func() {
		rt.Crash()
		close(crashed)
	}()
	select {
	case <-crashed:
	case <-time.After(5 * time.Second):
		t.Error("Crash waited for an admitted place")
	}
	close(g.release)
	<-placed
	<-crashed
}
