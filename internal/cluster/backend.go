package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"repro/internal/netutil"
	"repro/internal/obs"
	"repro/internal/serve"
)

// InprocBackend adapts an in-process dispatch core to the Backend
// interface. It lets the routing comparison run honestly on one CPU
// (no real network parallelism required) and gives tests deterministic
// backends.
type InprocBackend struct {
	D     *serve.Dispatcher
	Label string
}

// Name implements Backend.
func (b *InprocBackend) Name() string {
	if b.Label != "" {
		return b.Label
	}
	return "inproc"
}

// Place implements Backend.
func (b *InprocBackend) Place(ctx context.Context, count int) ([]int, int64, error) {
	return b.D.PlaceMany(ctx, count)
}

// Remove implements Backend. The dispatcher's empty-bin error is
// already serve.ErrEmptyBin.
func (b *InprocBackend) Remove(ctx context.Context, bin int) error {
	return b.D.Remove(ctx, bin)
}

// PlaceKey implements KeyedBackend via the dispatcher's keyed tier.
func (b *InprocBackend) PlaceKey(ctx context.Context, key string) ([]int, int64, error) {
	return b.D.PlaceBalls(ctx, key, 1)
}

// RemoveKey implements KeyedBackend.
func (b *InprocBackend) RemoveKey(ctx context.Context, bin int, key string) error {
	return b.D.RemoveKeyed(ctx, bin, key)
}

// Stats implements Backend.
func (b *InprocBackend) Stats(context.Context) (serve.StatsView, error) {
	return b.D.Stats(), nil
}

// Health implements Backend: healthy until the dispatcher drains.
func (b *InprocBackend) Health(context.Context) error {
	if b.D.Draining() {
		return serve.ErrDraining
	}
	return nil
}

// ReadTrace implements TraceBackend straight off the dispatcher's
// retained-op ring. id "" returns the whole ring.
func (b *InprocBackend) ReadTrace(ctx context.Context, id string) ([]*obs.Op, error) {
	_, ops := b.D.GatherTrace(ctx, obs.ParseTrace(id))
	return ops, nil
}

// HTTPBackend drives a remote bbserved over its HTTP API with a
// per-backend pooled transport (keep-alive connections are reused
// across requests, so steady routing to a backend costs no handshakes).
type HTTPBackend struct {
	base   string
	client *http.Client
}

// NewHTTPBackend returns a backend for the bbserved at base (e.g.
// "http://127.0.0.1:8081"), with its own connection pool.
func NewHTTPBackend(base string) *HTTPBackend {
	return &HTTPBackend{
		base:   base,
		client: &http.Client{Transport: netutil.PooledTransport(256, 0), Timeout: 30 * time.Second},
	}
}

// Name implements Backend.
func (b *HTTPBackend) Name() string { return b.base }

func (b *HTTPBackend) do(ctx context.Context, method, path string, v any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, b.base+path, nil)
	if err != nil {
		return 0, err
	}
	if id := obs.TraceFrom(ctx); id != 0 {
		// Propagate the request's trace downstream so the backend's
		// spans land under the same trace id.
		req.Header.Set(obs.Header, obs.FormatTrace(id))
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, v); err != nil {
			return resp.StatusCode, fmt.Errorf("cluster: decode %s%s: %w", b.base, path, err)
		}
	}
	return resp.StatusCode, nil
}

// Place implements Backend via POST /v1/place.
func (b *HTTPBackend) Place(ctx context.Context, count int) ([]int, int64, error) {
	path := "/v1/place"
	if count != 1 {
		path = fmt.Sprintf("/v1/place?count=%d", count)
	}
	var pr serve.PlaceResponse
	status, err := b.do(ctx, http.MethodPost, path, &pr)
	if err != nil {
		return nil, 0, err
	}
	if status != http.StatusOK {
		return nil, 0, fmt.Errorf("cluster: place on %s: status %d", b.base, status)
	}
	bins := pr.Bins
	if len(bins) == 0 {
		bins = []int{pr.Bin}
	}
	return bins, pr.Samples, nil
}

// Remove implements Backend via POST /v1/remove, mapping the 409
// conflict back to serve.ErrEmptyBin.
func (b *HTTPBackend) Remove(ctx context.Context, bin int) error {
	return b.RemoveKey(ctx, bin, "")
}

// PlaceKey implements KeyedBackend via POST /v1/place?key=.
func (b *HTTPBackend) PlaceKey(ctx context.Context, key string) ([]int, int64, error) {
	var pr serve.PlaceResponse
	status, err := b.do(ctx, http.MethodPost, "/v1/place?key="+url.QueryEscape(key), &pr)
	if err != nil {
		return nil, 0, err
	}
	switch status {
	case http.StatusOK:
		return []int{pr.Bin}, pr.Samples, nil
	case http.StatusBadRequest:
		// The key is well formed, so the backend refused keyed
		// traffic itself: map it back like WireBackend does.
		return nil, 0, serve.ErrKeyedUnsupported
	}
	return nil, 0, fmt.Errorf("cluster: keyed place on %s: status %d", b.base, status)
}

// RemoveKey implements KeyedBackend via POST /v1/remove?bin=&key=.
func (b *HTTPBackend) RemoveKey(ctx context.Context, bin int, key string) error {
	path := fmt.Sprintf("/v1/remove?bin=%d", bin)
	if key != "" {
		path += "&key=" + url.QueryEscape(key)
	}
	status, err := b.do(ctx, http.MethodPost, path, nil)
	if err != nil {
		return err
	}
	switch status {
	case http.StatusOK:
		return nil
	case http.StatusConflict:
		return serve.ErrEmptyBin
	default:
		return fmt.Errorf("cluster: remove on %s: status %d", b.base, status)
	}
}

// Stats implements Backend via GET /v1/stats.
func (b *HTTPBackend) Stats(ctx context.Context) (serve.StatsView, error) {
	var sr serve.StatsResponse
	status, err := b.do(ctx, http.MethodGet, "/v1/stats", &sr)
	if err != nil {
		return serve.StatsView{}, err
	}
	if status != http.StatusOK {
		return serve.StatsView{}, fmt.Errorf("cluster: stats on %s: status %d", b.base, status)
	}
	return sr.StatsView, nil
}

// Info fetches the backend's configuration block (used at startup to
// verify every backend serves the same number of bins).
func (b *HTTPBackend) Info(ctx context.Context) (serve.Info, error) {
	var sr serve.StatsResponse
	status, err := b.do(ctx, http.MethodGet, "/v1/stats", &sr)
	if err != nil {
		return serve.Info{}, err
	}
	if status != http.StatusOK {
		return serve.Info{}, fmt.Errorf("cluster: stats on %s: status %d", b.base, status)
	}
	return sr.Info, nil
}

// ReadTrace implements TraceBackend via GET /v1/trace (optionally
// ?id= filtered): the backend's retained-op ring, for cross-tier
// trace assembly and bundle capture.
func (b *HTTPBackend) ReadTrace(ctx context.Context, id string) ([]*obs.Op, error) {
	path := "/v1/trace"
	if id != "" {
		path += "?id=" + url.QueryEscape(id)
	}
	var tr obs.TraceResponse
	status, err := b.do(ctx, http.MethodGet, path, &tr)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("cluster: trace on %s: status %d", b.base, status)
	}
	return tr.Ops, nil
}

// Health implements Backend via GET /healthz.
func (b *HTTPBackend) Health(ctx context.Context) error {
	status, err := b.do(ctx, http.MethodGet, "/healthz", nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("cluster: healthz on %s: status %d", b.base, status)
	}
	return nil
}
