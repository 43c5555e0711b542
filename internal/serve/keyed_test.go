package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	ballsbins "repro"
	"repro/internal/obs"
)

func newKeyedTestServer(t *testing.T, n, shards int) (*Dispatcher, *httptest.Server) {
	t.Helper()
	d := NewDispatcher(Config{Spec: ballsbins.Adaptive(), N: n, Shards: shards, Seed: 42})
	srv := httptest.NewServer(NewHandler(d, Info{Protocol: "adaptive", N: n, Shards: shards}))
	t.Cleanup(func() {
		srv.Close()
		d.Close()
	})
	return d, srv
}

// TestHTTPBulkPlaceWithKeyRejected is the PR's serve satellite: a
// bulk place carrying a key is refused with a 400 and a clear error
// body — before this contract, the bulk would silently round-robin
// across shards and scatter the key's balls.
func TestHTTPBulkPlaceWithKeyRejected(t *testing.T) {
	_, srv := newKeyedTestServer(t, 1024, 4)
	resp, err := http.Post(srv.URL+"/v1/place?count=8&key=user-1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bulk+key: status %d, want 400", resp.StatusCode)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode error body: %v", err)
	}
	if !strings.Contains(body.Error, "key") || !strings.Contains(body.Error, "count=1") {
		t.Fatalf("error body does not explain the contract: %q", body.Error)
	}
	// count=1 with a key is fine (it is not a bulk).
	resp2, err := http.Post(srv.URL+"/v1/place?count=1&key=user-1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("count=1 with key: status %d, want 200", resp2.StatusCode)
	}
}

func TestHTTPKeyedPlaceRemoveRoundTrip(t *testing.T) {
	d, srv := newKeyedTestServer(t, 1024, 4)
	var pr PlaceResponse
	shardOf := func(bin int) int { return d.Allocator().ShardOf(bin) }

	place := func() PlaceResponse {
		resp, err := http.Post(srv.URL+"/v1/place?key=sess-9", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("keyed place: status %d", resp.StatusCode)
		}
		var pr PlaceResponse
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
		return pr
	}
	pr = place()
	if pr.Key != "sess-9" {
		t.Fatalf("response key %q, want sess-9", pr.Key)
	}
	shard := shardOf(pr.Bin)
	bins := []int{pr.Bin}
	for i := 0; i < 15; i++ {
		p := place()
		if shardOf(p.Bin) != shard {
			t.Fatalf("keyed placement left its shard: bin %d shard %d, want shard %d", p.Bin, shardOf(p.Bin), shard)
		}
		bins = append(bins, p.Bin)
	}
	ks := d.KeyedStats()
	if ks.AffinityHits != 15 || ks.AffinityMisses != 1 || ks.LiveBalls != 16 {
		t.Fatalf("keyed stats hits/misses/balls = %d/%d/%d, want 15/1/16", ks.AffinityHits, ks.AffinityMisses, ks.LiveBalls)
	}
	for _, bin := range bins {
		resp, err := http.Post(fmt.Sprintf("%s/v1/remove?bin=%d&key=sess-9", srv.URL, bin), "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("keyed remove: status %d", resp.StatusCode)
		}
	}
	if got := d.KeyedStats().LiveBalls; got != 0 {
		t.Fatalf("live balls after removals: %d, want 0", got)
	}

	// The stats envelope carries the keyed block.
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.Keyed == nil || sr.Keyed.Keys != 1 || sr.Keyed.Bins != 4 {
		t.Fatalf("stats keyed block: %+v", sr.Keyed)
	}
}

// TestKeyedRefusedForThresholdFamily: a keyed place on a threshold or
// fixed shard at capacity is refused with ErrFull, placing nothing —
// and the HTTP layer surfaces it as a 507, not a hang or a panic.
func TestKeyedRefusedForThresholdFamily(t *testing.T) {
	for _, spec := range []ballsbins.Spec{
		ballsbins.Threshold(),
		ballsbins.FixedThreshold(4),
	} {
		d := NewDispatcher(Config{Spec: spec, N: 64, Shards: 2, Seed: 1, Horizon: 128})
		var err error
		for i := 0; err == nil && i < 1000; i++ {
			_, _, err = d.PlaceKeyed(context.Background(), "k")
		}
		if !errors.Is(err, ErrFull) {
			t.Fatalf("%s: PlaceKeyed err = %v, want ErrFull", spec.Name(), err)
		}
		srv := httptest.NewServer(NewHandler(d, Info{Protocol: spec.Name(), N: 64}))
		resp, err := http.Post(srv.URL+"/v1/place?key=k", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusInsufficientStorage {
			t.Fatalf("%s: keyed place status %d, want 507", spec.Name(), resp.StatusCode)
		}
		srv.Close()
		d.Close()
	}
	// BoundedRetry's sample cap terminates at any load: keyed is fine.
	d := NewDispatcher(Config{Spec: ballsbins.BoundedRetry(3), N: 64, Shards: 2, Seed: 1, Horizon: 128})
	defer d.Close()
	if _, _, err := d.PlaceKeyed(context.Background(), "k"); err != nil {
		t.Fatalf("boundedretry PlaceKeyed: %v", err)
	}
}

// TestDispatcherKeyedAffinityUnderConcurrency hammers keyed and
// anonymous traffic together under -race: every ball of a key must
// land in the key's shard, while anonymous traffic keeps
// round-robining.
func TestDispatcherKeyedAffinityUnderConcurrency(t *testing.T) {
	d := NewDispatcher(Config{Spec: ballsbins.Adaptive(), N: 4096, Shards: 4, Seed: 3})
	defer d.Close()
	ctx := context.Background()
	done := make(chan error, 8)
	for g := 0; g < 4; g++ {
		go func(g int) {
			key := fmt.Sprintf("worker-%d", g)
			want := -1
			for i := 0; i < 500; i++ {
				bin, _, err := d.PlaceKeyed(ctx, key)
				if err != nil {
					done <- err
					return
				}
				s := d.Allocator().ShardOf(bin)
				if want == -1 {
					want = s
				} else if s != want {
					done <- fmt.Errorf("key %s bounced shard %d -> %d", key, want, s)
					return
				}
				if err := d.RemoveKeyed(ctx, bin, key); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 4; g++ {
		go func() {
			for i := 0; i < 500; i++ {
				if _, _, err := d.Place(ctx); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestPlaceKeyedTimesRoute pins when a keyed place starts its clock:
// at admission, before the key is routed. A retained keyed miss carries
// exactly the spans probe, queue and apply, and they sum exactly to its
// duration, so the route is inside the op total the latency histograms
// record. An anonymous place keeps exactly queue and apply, which CI's
// obs-smoke job also checks on a live bbserved.
func TestPlaceKeyedTimesRoute(t *testing.T) {
	d := NewDispatcher(Config{
		Spec: ballsbins.Adaptive(), N: 64, Shards: 4, Seed: 7,
		Obs: obs.Options{SampleEvery: 1, SlowThreshold: -1},
	})
	t.Cleanup(d.Close)
	ctx := context.Background()
	if _, _, err := d.PlaceKeyed(ctx, "cold-key"); err != nil { // a miss: the key is new
		t.Fatal(err)
	}
	if _, _, err := d.Place(ctx); err != nil {
		t.Fatal(err)
	}
	ops := d.Obs().Ops(0)
	if len(ops) != 2 {
		t.Fatalf("%d ops retained, want 2", len(ops))
	}
	for i, want := range [][]string{{"probe", "queue", "apply"}, {"queue", "apply"}} {
		op := ops[i]
		var stages []string
		var sum int64
		for _, sp := range op.Spans {
			stages = append(stages, sp.Stage)
			sum += sp.DurationNs
		}
		if fmt.Sprint(stages) != fmt.Sprint(want) || sum != op.DurationNs {
			t.Errorf("op %d (%s, attrs %v): spans %v summing to %d ns, want %v summing to its %d ns",
				i, op.Op, op.Attrs, stages, sum, want, op.DurationNs)
		}
	}
	if ops[0].Attrs["key_hit"] != 0 || ops[0].Attrs["key_probes"] < 1 {
		t.Errorf("keyed op attrs %v, want a miss with at least one probe", ops[0].Attrs)
	}
	if got := d.Latency().Count; got != 2 {
		t.Errorf("latency count %d, want 2", got)
	}
}
