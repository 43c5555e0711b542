package load

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/keyed"
	"repro/internal/netutil"
	"repro/internal/obs"
	"repro/internal/serve"
)

// InProc drives a dispatch core directly — no network, so it measures
// the dispatcher itself (the mode used for dispatch throughput
// benchmarks).
type InProc struct {
	D *serve.Dispatcher
}

// Place implements Target.
func (t InProc) Place(ctx context.Context, count int) ([]int, int64, error) {
	return t.D.PlaceMany(ctx, count)
}

// Remove implements Target.
func (t InProc) Remove(ctx context.Context, bin int) error {
	return t.D.Remove(ctx, bin)
}

// ReadStats implements StatsReader.
func (t InProc) ReadStats(context.Context) (serve.StatsView, error) {
	return t.D.Stats(), nil
}

// PlaceKey implements KeyedTarget.
func (t InProc) PlaceKey(ctx context.Context, key string) ([]int, int64, error) {
	bin, samples, err := t.D.PlaceKeyed(ctx, key)
	if err != nil {
		return nil, 0, err
	}
	return []int{bin}, samples, nil
}

// RemoveKey implements KeyedTarget.
func (t InProc) RemoveKey(ctx context.Context, bin int, key string) error {
	return t.D.RemoveKeyed(ctx, bin, key)
}

// ReadKeyedStats implements KeyedStatsReader.
func (t InProc) ReadKeyedStats(context.Context) (keyed.Stats, bool, error) {
	return t.D.KeyedStats(), true, nil
}

// ReadTrace implements TraceReader from the dispatcher's recorder.
func (t InProc) ReadTrace(_ context.Context, id string) (obs.TraceResponse, bool, error) {
	r := t.D.Obs()
	if id != "" {
		return obs.TraceResponse{Hop: r.Hop(), Ops: r.OpsByTrace(id)}, true, nil
	}
	return obs.TraceResponse{Hop: r.Hop(), Ops: r.Ops(0)}, true, nil
}

// ReadStageStats implements StageStatsReader.
func (t InProc) ReadStageStats(context.Context) (map[string]obs.StageSummary, bool, error) {
	return t.D.Obs().StageSummaries(), true, nil
}

// HTTPTarget drives a bbserved instance over its HTTP API.
type HTTPTarget struct {
	Base   string // e.g. "http://127.0.0.1:8080"
	Client *http.Client

	bytes netutil.ByteCounter
	ops   atomic.Int64
}

// NewHTTPTarget returns a target for the server at base with a client
// tuned for many concurrent keep-alive connections.
func NewHTTPTarget(base string) *HTTPTarget {
	return NewHTTPTargetConns(base, 0)
}

// NewHTTPTargetConns is NewHTTPTarget with a hard cap on concurrent
// connections; conns=1 forces every request through one socket — the
// honest single-connection baseline the wire transport is measured
// against. conns=0 means unlimited.
func NewHTTPTargetConns(base string, conns int) *HTTPTarget {
	t := &HTTPTarget{Base: base}
	tr := netutil.PooledTransport(512, conns)
	netutil.CountConns(tr, &t.bytes)
	t.Client = &http.Client{Transport: tr, Timeout: 30 * time.Second}
	return t
}

// ReadTransportStats implements TransportStatsReader. HTTP does one
// request per write, so the coalescing factor is definitionally 1;
// bytes/op is measured at the socket (headers included), which is the
// point of the comparison.
func (t *HTTPTarget) ReadTransportStats() (TransportStats, bool) {
	ops := t.ops.Load()
	if ops == 0 {
		return TransportStats{Transport: "http"}, true
	}
	return TransportStats{
		Transport:        "http",
		CoalescingFactor: 1,
		BytesPerOp:       float64(t.bytes.Total()) / float64(ops),
	}, true
}

func (t *HTTPTarget) post(ctx context.Context, path string, v any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.Base+path, nil)
	if err != nil {
		return 0, err
	}
	if id := obs.TraceFrom(ctx); id != 0 {
		req.Header.Set(obs.Header, obs.FormatTrace(id))
	}
	t.ops.Add(1)
	resp, err := t.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if v != nil {
		if err := json.Unmarshal(body, v); err != nil {
			return resp.StatusCode, fmt.Errorf("load: decode %s: %w", path, err)
		}
	}
	return resp.StatusCode, nil
}

// Place implements Target via POST /v1/place.
func (t *HTTPTarget) Place(ctx context.Context, count int) ([]int, int64, error) {
	path := "/v1/place"
	if count != 1 {
		path = fmt.Sprintf("/v1/place?count=%d", count)
	}
	var pr serve.PlaceResponse
	status, err := t.post(ctx, path, &pr)
	if err != nil {
		return nil, 0, err
	}
	if status != http.StatusOK {
		return nil, 0, fmt.Errorf("load: place: status %d", status)
	}
	bins := pr.Bins
	if len(bins) == 0 {
		bins = []int{pr.Bin}
	}
	return bins, pr.Samples, nil
}

// Remove implements Target via POST /v1/remove.
func (t *HTTPTarget) Remove(ctx context.Context, bin int) error {
	return t.RemoveKey(ctx, bin, "")
}

// PlaceKey implements KeyedTarget via POST /v1/place?key=.
func (t *HTTPTarget) PlaceKey(ctx context.Context, key string) ([]int, int64, error) {
	var pr serve.PlaceResponse
	status, err := t.post(ctx, "/v1/place?key="+url.QueryEscape(key), &pr)
	if err != nil {
		return nil, 0, err
	}
	if status != http.StatusOK {
		return nil, 0, fmt.Errorf("load: keyed place: status %d", status)
	}
	return []int{pr.Bin}, pr.Samples, nil
}

// RemoveKey implements KeyedTarget via POST /v1/remove?bin=&key=.
func (t *HTTPTarget) RemoveKey(ctx context.Context, bin int, key string) error {
	path := fmt.Sprintf("/v1/remove?bin=%d", bin)
	if key != "" {
		path += "&key=" + url.QueryEscape(key)
	}
	var rr serve.RemoveResponse
	status, err := t.post(ctx, path, &rr)
	if err != nil {
		return err
	}
	switch status {
	case http.StatusOK:
		return nil
	case http.StatusConflict:
		return serve.ErrEmptyBin
	default:
		return fmt.Errorf("load: remove: status %d", status)
	}
}

// statsEnvelope is /v1/stats as served by either tier: the serve
// fields, plus the aggregated cluster block a bbproxy adds (absent —
// zero — on a plain bbserved).
type statsEnvelope struct {
	serve.StatsResponse
	Cluster cluster.Stats `json:"cluster"`
}

func (t *HTTPTarget) readStatsResponse(ctx context.Context) (statsEnvelope, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.Base+"/v1/stats", nil)
	if err != nil {
		return statsEnvelope{}, err
	}
	resp, err := t.Client.Do(req)
	if err != nil {
		return statsEnvelope{}, err
	}
	defer resp.Body.Close()
	var sr statsEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return statsEnvelope{}, err
	}
	return sr, nil
}

// ReadStats implements StatsReader via GET /v1/stats.
func (t *HTTPTarget) ReadStats(ctx context.Context) (serve.StatsView, error) {
	sr, err := t.readStatsResponse(ctx)
	return sr.StatsView, err
}

// ReadInfo fetches the server's configuration block, so load runs can
// be labeled with the protocol/n/shards actually served.
func (t *HTTPTarget) ReadInfo(ctx context.Context) (serve.Info, error) {
	sr, err := t.readStatsResponse(ctx)
	return sr.Info, err
}

// ReadClusterStats implements ClusterStatsReader: when the target is a
// bbproxy its /v1/stats carries an aggregated cluster block; a plain
// bbserved has none and ok is false.
func (t *HTTPTarget) ReadClusterStats(ctx context.Context) (cluster.Stats, bool, error) {
	sr, err := t.readStatsResponse(ctx)
	if err != nil {
		return cluster.Stats{}, false, err
	}
	return sr.Cluster, sr.Cluster.Policy != "", nil
}

// ReadKeyedStats implements KeyedStatsReader: a bbproxy reports its
// keyed tier inside the cluster block (keys → backends), a plain
// bbserved at the top level (keys → shards).
func (t *HTTPTarget) ReadKeyedStats(ctx context.Context) (keyed.Stats, bool, error) {
	sr, err := t.readStatsResponse(ctx)
	if err != nil {
		return keyed.Stats{}, false, err
	}
	if sr.Cluster.Keyed != nil {
		return *sr.Cluster.Keyed, true, nil
	}
	if sr.Keyed != nil {
		return *sr.Keyed, true, nil
	}
	return keyed.Stats{}, false, nil
}

// ReadTrace implements TraceReader via GET /v1/trace[?id=]; ok is
// false when the server predates the endpoint (404).
func (t *HTTPTarget) ReadTrace(ctx context.Context, id string) (obs.TraceResponse, bool, error) {
	u := t.Base + "/v1/trace"
	if id != "" {
		u += "?id=" + url.QueryEscape(id)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return obs.TraceResponse{}, false, err
	}
	resp, err := t.Client.Do(req)
	if err != nil {
		return obs.TraceResponse{}, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return obs.TraceResponse{}, false, nil
	}
	var doc obs.TraceResponse
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return obs.TraceResponse{}, false, err
	}
	return doc, true, nil
}

// ReadStageStats implements StageStatsReader from the stats document's
// obs block (served by both tiers).
func (t *HTTPTarget) ReadStageStats(ctx context.Context) (map[string]obs.StageSummary, bool, error) {
	sr, err := t.readStatsResponse(ctx)
	if err != nil {
		return nil, false, err
	}
	return sr.Obs, len(sr.Obs) > 0, nil
}
