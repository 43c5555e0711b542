package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/serve"
	"repro/internal/wire"
)

func newProxyServer(t *testing.T, k, n int, policy Policy) (*Router, []*serve.Dispatcher, *httptest.Server) {
	t.Helper()
	rt, ds := newInprocCluster(t, k, n, policy, 1)
	srv := httptest.NewServer(serve.NewHandler(rt, serve.Info{
		Protocol: "cluster/" + policy.Name(), N: k * n, Shards: k, Seed: 1,
	}))
	t.Cleanup(srv.Close)
	return rt, ds, srv
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

// TestProxyHTTPRoundTrip drives the proxy surface end to end: bulk
// place lands across backends, stats aggregate matches backend truth
// at quiescence, removes by global bin succeed and then conflict.
func TestProxyHTTPRoundTrip(t *testing.T) {
	const k, n = 3, 64
	_, ds, srv := newProxyServer(t, k, n, policyNamed("greedy"))

	pl := decode[serve.PlaceResponse](t, post(t, srv.URL+"/v1/place?count=30"), http.StatusOK)
	if pl.Count != 30 || len(pl.Bins) != 30 || pl.Bin != pl.Bins[0] {
		t.Fatalf("bulk place: %+v", pl)
	}
	var held int64
	for _, d := range ds {
		held += d.Allocator().Balls()
	}
	if held != 30 {
		t.Fatalf("backends hold %d balls, want 30", held)
	}

	st := decode[StatsResponse](t, get(t, srv.URL+"/v1/stats"), http.StatusOK)
	if st.Balls != 30 || st.Cluster.Balls != 30 {
		t.Fatalf("stats balls %d / cluster %d, want 30", st.Balls, st.Cluster.Balls)
	}
	if st.Cluster.Policy != "greedy[2]" || st.Cluster.Backends != k || st.Cluster.Healthy != k {
		t.Fatalf("cluster block: %+v", st.Cluster)
	}
	if st.Cluster.Picks == 0 || st.Cluster.Probes < 2*st.Cluster.Picks {
		t.Fatalf("probe accounting: picks=%d probes=%d", st.Cluster.Picks, st.Cluster.Probes)
	}
	if len(st.Cluster.Rows) != k || len(st.Shards) != k {
		t.Fatalf("rows: %d cluster, %d pseudo-shards", len(st.Cluster.Rows), len(st.Shards))
	}
	if st.LatencyNs.Count == 0 {
		t.Fatalf("latency summary empty: %+v", st.LatencyNs)
	}

	rm := decode[serve.RemoveResponse](t,
		post(t, fmt.Sprintf("%s/v1/remove?bin=%d", srv.URL, pl.Bins[7])), http.StatusOK)
	if !rm.Removed || rm.Bin != pl.Bins[7] {
		t.Fatalf("remove: %+v", rm)
	}
	// A bin that never got a ball conflicts... find one: total bins
	// k*n = 192 >> 30 placed, so scan for an empty global bin.
	empty := -1
	for g := 0; g < k*n; g++ {
		if ds[g/n].Allocator().Load(g%n) == 0 {
			empty = g
			break
		}
	}
	decode[map[string]string](t, post(t, fmt.Sprintf("%s/v1/remove?bin=%d", srv.URL, empty)),
		http.StatusConflict)
}

// TestProxyHTTPMalformed pins the input validation of the proxy
// surface.
func TestProxyHTTPMalformed(t *testing.T) {
	const k, n = 2, 16
	_, _, srv := newProxyServer(t, k, n, policyNamed("single"))
	for _, tc := range []struct {
		method, path string
		wantStatus   int
	}{
		{"POST", "/v1/place?count=abc", http.StatusBadRequest},
		{"POST", "/v1/place?count=0", http.StatusBadRequest},
		{"POST", fmt.Sprintf("/v1/place?count=%d", serve.MaxBulkPlace+1), http.StatusBadRequest},
		{"POST", "/v1/remove", http.StatusBadRequest},
		{"POST", "/v1/remove?bin=xyz", http.StatusBadRequest},
		{"POST", fmt.Sprintf("/v1/remove?bin=%d", k*n), http.StatusBadRequest},
		{"GET", "/v1/trace?id=zz", http.StatusBadRequest},
		{"GET", "/v1/trace/zz", http.StatusBadRequest},
		{"GET", "/v1/timeseries?window=x", http.StatusBadRequest},
		{"GET", "/v1/events?since=zebra", http.StatusBadRequest},
		{"GET", "/v1/place", http.StatusMethodNotAllowed},
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
		var e serve.ErrorResponse
		derr := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s %s: status %d want %d", tc.method, tc.path, resp.StatusCode, tc.wantStatus)
		}
		if tc.wantStatus == http.StatusBadRequest && (derr != nil || e.Code != wire.CodeBadRequest) {
			t.Errorf("%s %s: code %v (decode error %v), want bad-request", tc.method, tc.path, e.Code, derr)
		}
	}
}

// TestProxyHealthAndMetrics checks /healthz transitions (ok → 503 when
// every backend is gone → 503 when draining) and the Prometheus
// surface.
func TestProxyHealthAndMetrics(t *testing.T) {
	const k, n = 2, 32
	rt, ds, srv := newProxyServer(t, k, n, policyNamed("single"))

	resp := get(t, srv.URL+"/healthz")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}

	decode[serve.PlaceResponse](t, post(t, srv.URL+"/v1/place?count=10"), http.StatusOK)
	resp = get(t, srv.URL+"/metrics")
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"bb_proxy_backends 2",
		"bb_proxy_healthy_backends 2",
		"bb_proxy_balls 10",
		// One bulk of 10 balls is one routing decision and (under
		// single-choice) one probe.
		"bb_proxy_picks_total 1",
		"bb_proxy_probes_total 1",
		`bb_proxy_backend_up{slot="0"} 1`,
		`bb_proxy_backend_balls{slot="1"}`,
		`bb_proxy_place_latency_seconds{quantile="0.99"}`,
		"bb_proxy_place_latency_seconds_count 1",
		"bb_proxy_backend_gap ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}

	// Kill both backends: traffic errors evict them and healthz flips
	// to 503 with every slot out of rotation.
	ds[0].Close()
	ds[1].Close()
	for i := 0; i < 8; i++ {
		resp := post(t, srv.URL+"/v1/place")
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if len(rt.Membership().Healthy()) != 0 {
		t.Fatalf("healthy = %v after killing all backends", rt.Membership().Healthy())
	}
	resp = get(t, srv.URL+"/healthz")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz with no backends: %d", resp.StatusCode)
	}
	// With no healthy backend, placing answers 503 (retryable), not 5xx
	// internal.
	decode[map[string]string](t, post(t, srv.URL+"/v1/place"), http.StatusServiceUnavailable)

	// Draining answers 503 regardless.
	rt.Close()
	resp = get(t, srv.URL+"/healthz")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz draining: %d", resp.StatusCode)
	}
}
