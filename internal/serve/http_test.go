package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	ballsbins "repro"
)

func newTestServer(t *testing.T, n, shards int) (*Dispatcher, *httptest.Server) {
	t.Helper()
	d := NewDispatcher(Config{Spec: ballsbins.Adaptive(), N: n, Shards: shards, Seed: 1})
	srv := httptest.NewServer(NewHandler(d, Info{
		Protocol: "adaptive", N: n, Shards: shards, Engine: "fast", Seed: 1,
	}))
	t.Cleanup(func() { srv.Close(); d.Close() })
	return d, srv
}

func decode[T any](t *testing.T, resp *http.Response, wantStatus int) T {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("status %d want %d; body: %s", resp.StatusCode, wantStatus, body)
	}
	var v T
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("decode %q: %v", body, err)
	}
	return v
}

func post(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "", nil)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func get(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp
}

func TestHTTPPlaceRemoveRoundTrip(t *testing.T) {
	_, srv := newTestServer(t, 64, 4)

	pl := decode[PlaceResponse](t, post(t, srv.URL+"/v1/place"), http.StatusOK)
	if pl.Bin < 0 || pl.Bin >= 64 || pl.Count != 1 || pl.Samples < 1 {
		t.Fatalf("place: %+v", pl)
	}

	rm := decode[RemoveResponse](t,
		post(t, fmt.Sprintf("%s/v1/remove?bin=%d", srv.URL, pl.Bin)), http.StatusOK)
	if !rm.Removed || rm.Bin != pl.Bin {
		t.Fatalf("remove: %+v", rm)
	}

	// The ball is gone; removing again conflicts.
	resp := post(t, fmt.Sprintf("%s/v1/remove?bin=%d", srv.URL, pl.Bin))
	decode[map[string]string](t, resp, http.StatusConflict)
}

func TestHTTPBulkPlace(t *testing.T) {
	d, srv := newTestServer(t, 60, 7)
	const k = 50
	pl := decode[PlaceResponse](t, post(t, fmt.Sprintf("%s/v1/place?count=%d", srv.URL, k)), http.StatusOK)
	if len(pl.Bins) != k || pl.Count != k || pl.Bin != pl.Bins[0] {
		t.Fatalf("bulk place: count %d, %d bins", pl.Count, len(pl.Bins))
	}
	if d.Allocator().Balls() != k {
		t.Fatalf("allocator holds %d balls", d.Allocator().Balls())
	}
}

func TestHTTPMalformedInput(t *testing.T) {
	_, srv := newTestServer(t, 16, 2)
	for _, tc := range []struct {
		method, path string
		wantStatus   int
	}{
		{"POST", "/v1/place?count=abc", http.StatusBadRequest},
		{"POST", "/v1/place?count=0", http.StatusBadRequest},
		{"POST", "/v1/place?count=-3", http.StatusBadRequest},
		{"POST", fmt.Sprintf("/v1/place?count=%d", MaxBulkPlace+1), http.StatusBadRequest},
		{"POST", "/v1/remove", http.StatusBadRequest},
		{"POST", "/v1/remove?bin=xyz", http.StatusBadRequest},
		{"POST", "/v1/remove?bin=-1", http.StatusBadRequest},
		{"POST", "/v1/remove?bin=16", http.StatusBadRequest},
		{"GET", "/v1/place", http.StatusMethodNotAllowed},
		{"GET", "/v1/remove", http.StatusMethodNotAllowed},
		{"POST", "/v1/stats", http.StatusMethodNotAllowed},
		{"GET", "/nosuch", http.StatusNotFound},
	} {
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.method, tc.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s %s: status %d want %d", tc.method, tc.path, resp.StatusCode, tc.wantStatus)
		}
	}
}

func TestHTTPStatsAndSnapshot(t *testing.T) {
	d, srv := newTestServer(t, 60, 7)
	const k = 420
	decode[PlaceResponse](t, post(t, fmt.Sprintf("%s/v1/place?count=%d", srv.URL, k)), http.StatusOK)

	st := decode[StatsResponse](t, get(t, srv.URL+"/v1/stats"), http.StatusOK)
	if st.Balls != k || st.Placed != k || st.Removed != 0 {
		t.Fatalf("stats balls/placed/removed = %d/%d/%d", st.Balls, st.Placed, st.Removed)
	}
	if st.Info.Protocol != "adaptive" || st.Info.N != 60 || st.Info.Shards != 7 {
		t.Fatalf("stats info: %+v", st.Info)
	}
	if st.MaxLoad < (k+59)/60 || st.Draining {
		t.Fatalf("stats: %+v", st.StatsView)
	}
	if st.LatencyNs.Count == 0 || st.LatencyNs.P50 < 0 || st.LatencyNs.P999 < st.LatencyNs.P50 {
		t.Fatalf("latency summary: %+v", st.LatencyNs)
	}
	if len(st.Shards) != 7 {
		t.Fatalf("stats has %d shard rows", len(st.Shards))
	}

	sn := decode[SnapshotResponse](t, get(t, srv.URL+"/v1/snapshot"), http.StatusOK)
	if sn.Balls != k || len(sn.Shards) != 7 {
		t.Fatalf("snapshot balls %d, %d shard results", sn.Balls, len(sn.Shards))
	}
	if sn.Metrics.MaxLoad != d.Allocator().MaxLoad() {
		t.Fatalf("snapshot max %d, allocator %d", sn.Metrics.MaxLoad, d.Allocator().MaxLoad())
	}
	// At quiescence the lock-free stats agree with the lock-all
	// snapshot exactly.
	if st.MaxLoad != sn.Metrics.MaxLoad || st.Psi != sn.Metrics.Psi {
		t.Fatalf("stats/snapshot diverge at quiescence: %d/%v vs %d/%v",
			st.MaxLoad, st.Psi, sn.Metrics.MaxLoad, sn.Metrics.Psi)
	}
}

// TestHTTPStatsShardQuery exercises GET /v1/stats?shard=s: every shard
// row must be retrievable on its own, agree with the full view, and —
// at quiescence — agree exactly with the lock-all ShardMetrics.
func TestHTTPStatsShardQuery(t *testing.T) {
	d, srv := newTestServer(t, 60, 7)
	const k = 333
	decode[PlaceResponse](t, post(t, fmt.Sprintf("%s/v1/place?count=%d", srv.URL, k)), http.StatusOK)

	full := decode[StatsResponse](t, get(t, srv.URL+"/v1/stats"), http.StatusOK)
	var balls int64
	for s := 0; s < 7; s++ {
		row := decode[ShardStatsResponse](t,
			get(t, fmt.Sprintf("%s/v1/stats?shard=%d", srv.URL, s)), http.StatusOK)
		if row.Info.Protocol != "adaptive" {
			t.Fatalf("shard %d info: %+v", s, row.Info)
		}
		if row.Shard != full.Shards[s] {
			t.Fatalf("shard %d row %+v, full view row %+v", s, row.Shard, full.Shards[s])
		}
		// Quiescent agreement with the lock-all per-shard metrics: the
		// published row is exactly the shard's true state.
		m := d.Allocator().ShardMetrics(s)
		if row.Shard.MaxLoad != m.MaxLoad || row.Shard.MinLoad != m.MinLoad {
			t.Fatalf("shard %d row max/min %d/%d, ShardMetrics %d/%d",
				s, row.Shard.MaxLoad, row.Shard.MinLoad, m.MaxLoad, m.MinLoad)
		}
		balls += row.Shard.Balls
	}
	if balls != k {
		t.Fatalf("shard rows sum to %d balls, want %d", balls, k)
	}

	for _, bad := range []string{"?shard=-1", "?shard=7", "?shard=abc"} {
		resp := get(t, srv.URL+"/v1/stats"+bad)
		decode[map[string]string](t, resp, http.StatusBadRequest)
	}
}

func TestHTTPHealthAndMetrics(t *testing.T) {
	_, srv := newTestServer(t, 16, 2)
	resp := get(t, srv.URL+"/healthz")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}

	decode[PlaceResponse](t, post(t, srv.URL+"/v1/place?count=10"), http.StatusOK)
	resp = get(t, srv.URL+"/metrics")
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		"bb_place_total 10",
		"bb_balls 10",
		"bb_max_load ",
		`bb_shard_balls{shard="0"}`,
		`bb_shard_balls{shard="1"}`,
		`bb_dispatch_latency_seconds{quantile="0.99"}`,
		"bb_dispatch_latency_seconds_count ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestHTTPDrainDuringTraffic closes the dispatcher while HTTP clients
// hammer it: in-flight requests finish with 200, later ones get 503,
// healthz flips to 503, and accounting matches what clients saw.
func TestHTTPDrainDuringTraffic(t *testing.T) {
	d, srv := newTestServer(t, 64, 4)
	var accepted, refused int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				resp, err := http.Post(srv.URL+"/v1/place", "", nil)
				if err != nil {
					t.Errorf("POST during drain: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				mu.Lock()
				switch resp.StatusCode {
				case http.StatusOK:
					accepted++
				case http.StatusServiceUnavailable:
					refused++
				default:
					t.Errorf("unexpected status %d", resp.StatusCode)
				}
				mu.Unlock()
				// Each worker keeps hammering until the drain turns it
				// away — so every in-flight request either completed
				// or was cleanly refused, never dropped.
				if resp.StatusCode == http.StatusServiceUnavailable {
					return
				}
			}
		}()
	}
	for {
		mu.Lock()
		n := accepted
		mu.Unlock()
		if n >= 50 {
			break
		}
		runtime.Gosched()
	}
	d.Close()
	wg.Wait()

	resp := get(t, srv.URL+"/healthz")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after drain: %d", resp.StatusCode)
	}
	mu.Lock()
	defer mu.Unlock()
	if got := d.Allocator().Balls(); got != accepted {
		t.Fatalf("allocator holds %d balls, clients saw %d accepted", got, accepted)
	}
	if refused == 0 {
		t.Fatal("no client observed 503 during drain")
	}
}
