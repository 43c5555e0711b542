package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	ballsbins "repro"
	"repro/internal/keyed"
	"repro/internal/serve"
)

func doReq(t *testing.T, h http.Handler, method, target string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, nil))
	return rec
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }

// newKeyedCluster builds K in-proc backends behind a keyed router.
func newKeyedCluster(t *testing.T, k int, kc *keyed.Config) (*Router, []*serve.Dispatcher) {
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
	rt := NewRouter(Config{
		Backends:       backends,
		BinsPerBackend: n,
		Policy:         policyNamed("single"),
		Seed:           7,
		Keyed:          kc,
	})
	t.Cleanup(func() {
		rt.Close()
		for _, d := range ds {
			d.Close()
		}
	})
	return rt, ds
}

func TestRouterKeyedAffinity(t *testing.T) {
	rt, _ := newKeyedCluster(t, 3, &keyed.Config{HotShare: 1})
	ctx := context.Background()
	bins1, _, err := rt.PlaceKeyed(ctx, "user-1")
	if err != nil {
		t.Fatal(err)
	}
	slot := bins1[0] / rt.BinsPerBackend()
	for i := 0; i < 20; i++ {
		bins, _, err := rt.PlaceKeyed(ctx, "user-1")
		if err != nil {
			t.Fatal(err)
		}
		if got := bins[0] / rt.BinsPerBackend(); got != slot {
			t.Fatalf("repeat %d: key routed to backend %d, want sticky %d", i, got, slot)
		}
	}
	st := rt.Stats()
	if st.Keyed == nil {
		t.Fatal("cluster stats missing keyed block")
	}
	if st.Keyed.AffinityHits != 20 || st.Keyed.AffinityMisses != 1 {
		t.Fatalf("affinity hits/misses %d/%d, want 20/1", st.Keyed.AffinityHits, st.Keyed.AffinityMisses)
	}
	// Removing every ball releases the keyed tier's books.
	for i := 0; i < 21; i++ {
		bins, _, err := rt.PlaceKeyed(ctx, "user-2")
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.RemoveKeyed(ctx, bins[0], "user-2"); err != nil {
			t.Fatal(err)
		}
	}
	if got := rt.Keyed().Stats().LiveBalls; got != 21 {
		// user-1 still holds 21 balls; user-2's are all released.
		t.Fatalf("live balls %d, want 21", got)
	}
}

// TestRouterKeyedKillDisruption is the cluster half of the PR's
// disruption gate: kill a backend under keyed traffic and (a) no
// client-visible place error escapes — failovers move exactly the
// affected keys; (b) the keys moved stay ≤ the keys resident on the
// dead slot (+ sheds, counted separately); (c) keys on surviving
// backends keep their assignment.
func TestRouterKeyedKillDisruption(t *testing.T) {
	rt, ds := newKeyedCluster(t, 3, &keyed.Config{HotShare: 1})
	ctx := context.Background()

	const keys = 300
	for i := 0; i < keys; i++ {
		if _, _, err := rt.PlaceKeyed(ctx, fmt.Sprintf("k%d", i)); err != nil {
			t.Fatalf("warmup key %d: %v", i, err)
		}
	}
	pre := rt.Keyed().Stats()
	if pre.MovedKeys != 0 {
		t.Fatalf("keys moved before any failure: %d", pre.MovedKeys)
	}
	const victim = 1
	resident := pre.PerBinKeys[victim]
	if resident == 0 {
		t.Fatalf("no keys resident on victim backend")
	}

	// kill -9: the dispatcher stops serving; traffic errors evict the
	// slot (FailAfter default 2) and the keyed tier rebalances.
	ds[victim].Close()

	assignedPre := make(map[string]int)
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("k%d", i)
		if bins, _, err := rt.PlaceKeyed(ctx, key); err == nil {
			assignedPre[key] = bins[0] / rt.BinsPerBackend()
		} else {
			t.Fatalf("keyed place after kill: client-visible error for %s: %v", key, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for rt.ms.IsUp(victim) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if rt.ms.IsUp(victim) {
		t.Fatal("victim backend was not evicted by its own traffic")
	}

	post := rt.Keyed().Stats()
	if post.MovedKeys > resident {
		t.Fatalf("moved %d keys, only %d were resident on the dead slot (shed %d is separate)",
			post.MovedKeys, resident, post.ShedKeys)
	}
	if post.PerBinKeys[victim] != 0 {
		t.Fatalf("dead slot still holds %d keys", post.PerBinKeys[victim])
	}
	if post.Healthy != 2 {
		t.Fatalf("keyed tier sees %d healthy bins, want 2", post.Healthy)
	}

	// Survivors keep their assignment, and not one placement errors.
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("k%d", i)
		bins, _, err := rt.PlaceKeyed(ctx, key)
		if err != nil {
			t.Fatalf("keyed place after eviction: %v", err)
		}
		slot := bins[0] / rt.BinsPerBackend()
		if slot == victim {
			t.Fatalf("key %s routed to the dead backend", key)
		}
		if prev, ok := assignedPre[key]; ok && prev != victim && prev != slot {
			t.Fatalf("key %s moved from surviving backend %d to %d — disruption is not minimal", key, prev, slot)
		}
	}
}

// TestRouterKeyedBulkRejectedByHTTP asserts the proxy handler's
// bulk+key 400 contract.
func TestRouterKeyedEndToEndHTTP(t *testing.T) {
	rt, _ := newKeyedCluster(t, 2, &keyed.Config{HotShare: 1})
	h := serve.NewHandler(rt, serve.Info{Protocol: "cluster/keyed[adaptive]+single", N: rt.N()})

	rec := doReq(t, h, "POST", "/v1/place?key=alpha&count=8")
	if rec.Code != 400 {
		t.Fatalf("bulk+key: status %d, want 400", rec.Code)
	}
	rec = doReq(t, h, "POST", "/v1/place?key=alpha&count=1")
	if rec.Code != 200 {
		t.Fatalf("keyed place count=1: status %d body %s", rec.Code, rec.Body)
	}
	rec = doReq(t, h, "POST", "/v1/place?key=alpha")
	if rec.Code != 200 {
		t.Fatalf("keyed place: status %d", rec.Code)
	}
	rec = doReq(t, h, "GET", "/v1/stats")
	if rec.Code != 200 {
		t.Fatalf("stats: %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{`"keyed"`, `"affinity_hit_rate"`, `"per_bin_keys"`} {
		if !contains(body, want) {
			t.Fatalf("stats body missing %s: %s", want, body)
		}
	}
}
