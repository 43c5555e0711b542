package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netutil"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/watch"
	"repro/internal/wire"
)

// codeErr maps a daemon's typed answer onto the error every transport
// returns for it, so callers match errors.Is(err, serve.ErrDraining)
// and the like whatever carried the answer. Any other code returns err
// unchanged.
func codeErr(c wire.Code, err error) error {
	switch c {
	case wire.CodeEmptyBin:
		return serve.ErrEmptyBin
	case wire.CodeDraining:
		return serve.ErrDraining
	case wire.CodeKeyedUnsupported:
		return serve.ErrKeyedUnsupported
	case wire.CodeBackendDown:
		return ErrBackendDown
	case wire.CodeNoBackends:
		return ErrNoBackends
	}
	return err
}

// InprocBackend reaches a serve.Tier in process — a dispatch core, or
// a whole router — with the same answers the tier's front end gives
// over HTTP and wire. It lets the routing comparison run honestly on
// one CPU (no real network parallelism required), gives tests
// deterministic backends, and drives bbload's in-process targets.
type InprocBackend struct {
	D     serve.Tier
	Label string

	// mu lets Swap replace D mid-run: every call holds the read lock,
	// so a swap waits for the calls in flight, and calls arriving
	// during it wait and then reach the new tier.
	mu sync.RWMutex
}

// Tier returns the tier calls currently reach.
func (b *InprocBackend) Tier() serve.Tier {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.D
}

// Swap replaces the tier with next(old) — e.g. crash it and recover a
// fresh one from its store. On error D stays as it was.
func (b *InprocBackend) Swap(next func(old serve.Tier) (serve.Tier, error)) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	t, err := next(b.D)
	if err != nil {
		return err
	}
	b.D = t
	return nil
}

// Name implements Backend.
func (b *InprocBackend) Name() string {
	if b.Label != "" {
		return b.Label
	}
	return "inproc"
}

// tierErr maps a tier's error the way its front end does (Tier.ErrCode).
func tierErr(t serve.Tier, err error) error {
	if err == nil {
		return nil
	}
	return codeErr(t.ErrCode(err), err)
}

// Place implements Backend.
func (b *InprocBackend) Place(ctx context.Context, count int) ([]int, int64, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	bins, samples, err := b.D.PlaceBalls(ctx, "", count)
	return bins, samples, tierErr(b.D, err)
}

// Remove implements Backend.
func (b *InprocBackend) Remove(ctx context.Context, bin int) error {
	return b.RemoveKey(ctx, bin, "")
}

// PlaceKey implements KeyedBackend via the tier's keyed placement.
func (b *InprocBackend) PlaceKey(ctx context.Context, key string) ([]int, int64, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	bins, samples, err := b.D.PlaceBalls(ctx, key, 1)
	return bins, samples, tierErr(b.D, err)
}

// RemoveKey implements KeyedBackend.
func (b *InprocBackend) RemoveKey(ctx context.Context, bin int, key string) error {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return tierErr(b.D, b.D.RemoveKeyed(ctx, bin, key))
}

// Stats implements Backend.
func (b *InprocBackend) Stats(ctx context.Context) (serve.StatsView, error) {
	doc, err := b.StatsDoc(ctx)
	return doc.StatsView, err
}

// StatsDoc implements ReportBackend: the document the tier's front end
// serves, built in process.
func (b *InprocBackend) StatsDoc(context.Context) (StatsResponse, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	doc, err := serve.StatsDocument(b.D, serve.Info{N: b.D.N()}, nil, nil)
	if err != nil {
		return StatsResponse{}, err
	}
	switch doc := doc.(type) {
	case StatsResponse:
		return doc, nil
	case serve.StatsResponse:
		return StatsResponse{StatsResponse: doc}, nil
	}
	return StatsResponse{}, fmt.Errorf("cluster: %s served a %T stats document", b.Name(), doc)
}

// Timeseries implements ReportBackend from the tier's watchdog.
func (b *InprocBackend) Timeseries(_ context.Context, window int) (watch.SeriesResponse, error) {
	return b.Tier().Watch().SeriesDoc(window), nil
}

// Transport implements ReportBackend: in process there is none.
func (b *InprocBackend) Transport() TransportStats { return TransportStats{} }

// Health implements Backend: healthy until the tier drains, and while
// it can serve (a router needs a backend in rotation).
func (b *InprocBackend) Health(context.Context) error {
	t := b.Tier()
	if t.Draining() {
		return serve.ErrDraining
	}
	return t.Ready()
}

// ReadTrace implements TraceBackend straight off the tier's own
// retained-op ring. id "" returns the whole ring.
func (b *InprocBackend) ReadTrace(_ context.Context, id string) ([]*obs.Op, error) {
	r := b.Tier().Obs()
	if id == "" {
		return r.Ops(0), nil
	}
	return r.OpsByTrace(id), nil
}

// HTTPBackend drives a remote bbserved or bbproxy over its HTTP API
// with a per-backend pooled transport (keep-alive connections are
// reused across requests, so steady routing to a backend costs no
// handshakes). It counts the socket bytes its connections move.
type HTTPBackend struct {
	base   string
	client *http.Client
	conns  int

	// wantN > 0 is the bin count the daemon must serve: the first
	// operation reads its stats document and refuses any other n, so
	// a backend that joins late with another configuration never
	// serves a placement numbered against the wrong n.
	wantN  int
	binsOK atomic.Bool
	warned atomic.Bool

	bytes netutil.ByteCounter
	calls atomic.Int64
}

// NewHTTPBackend returns a backend for the daemon at base (e.g.
// "http://127.0.0.1:8081"), with its own connection pool.
func NewHTTPBackend(base string) *HTTPBackend { return NewHTTPBackendN(base, 0, 0) }

// NewHTTPBackendN is NewHTTPBackend with limits. conns > 0 caps the
// concurrent connections (dials beyond it wait; 1 forces every request
// through one socket) and sizes the connection pool of a WireBackend
// built over this backend. wantN > 0 makes the first operation check
// that the daemon serves wantN bins; a daemon serving another count
// fails every operation.
func NewHTTPBackendN(base string, conns, wantN int) *HTTPBackend {
	b := &HTTPBackend{base: base, conns: conns, wantN: wantN}
	tr := netutil.PooledTransport(512, conns)
	netutil.CountConns(tr, &b.bytes)
	b.client = &http.Client{Transport: tr, Timeout: 30 * time.Second}
	return b
}

// Name implements Backend.
func (b *HTTPBackend) Name() string { return b.base }

// do sends one request and returns its status and body.
func (b *HTTPBackend) do(ctx context.Context, method, path string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, b.base+path, nil)
	if err != nil {
		return 0, nil, err
	}
	if id := obs.TraceFrom(ctx); id != 0 {
		// Propagate the request's trace downstream so the backend's
		// spans land under the same trace id.
		req.Header.Set(obs.Header, obs.FormatTrace(id))
	}
	b.calls.Add(1)
	resp, err := b.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// call is do with every answer but a 200 turned into an error.
func (b *HTTPBackend) call(ctx context.Context, method, path string) ([]byte, error) {
	status, body, err := b.do(ctx, method, path)
	if err != nil || status == http.StatusOK {
		return body, err
	}
	return nil, b.answerErr(method, path, status, body)
}

// answerErr maps a non-200 answer onto the error the other transports
// return for it (see codeErr): 409 is the empty bin; a 503 is one of
// several refusals, which its message names — a drain (either tier's,
// or /healthz's "draining"), or a proxy's "no healthy backends" or
// "backend down". Any other answer, such as a recovering daemon's 503,
// becomes an error naming the request.
func (b *HTTPBackend) answerErr(method, path string, status int, body []byte) error {
	if status == http.StatusConflict {
		return serve.ErrEmptyBin
	}
	msg := strings.TrimSpace(string(body)) // /healthz answers plain text
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil {
		msg = e.Error
	}
	if status == http.StatusServiceUnavailable {
		switch msg {
		case serve.ErrDraining.Error(), ErrDraining.Error(), "draining":
			return serve.ErrDraining
		case ErrNoBackends.Error():
			return ErrNoBackends
		case ErrBackendDown.Error():
			return ErrBackendDown
		}
	}
	return fmt.Errorf("cluster: %s %s%s: status %d: %s", method, b.base, path, status, msg)
}

// get reads the JSON document at path into v.
func (b *HTTPBackend) get(ctx context.Context, path string, v any) error {
	body, err := b.call(ctx, http.MethodGet, path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("cluster: decode %s%s: %w", b.base, path, err)
	}
	return nil
}

// checkBins runs the deferred bin-count check before the first
// operation (see NewHTTPBackendN).
func (b *HTTPBackend) checkBins(ctx context.Context) error {
	if b.wantN == 0 || b.binsOK.Load() {
		return nil
	}
	_, err := b.StatsDoc(ctx)
	return err
}

// place posts a place request and returns its bins. A keyed place's
// key is well formed, so its 400 is the daemon refusing keyed traffic
// itself: the wire's keyed-unsupported code.
func (b *HTTPBackend) place(ctx context.Context, path string, keyed bool) ([]int, int64, error) {
	if err := b.checkBins(ctx); err != nil {
		return nil, 0, err
	}
	status, body, err := b.do(ctx, http.MethodPost, path)
	switch {
	case err != nil:
		return nil, 0, err
	case status == http.StatusBadRequest && keyed:
		return nil, 0, serve.ErrKeyedUnsupported
	case status != http.StatusOK:
		return nil, 0, b.answerErr(http.MethodPost, path, status, body)
	}
	var pr serve.PlaceResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		return nil, 0, fmt.Errorf("cluster: decode %s%s: %w", b.base, path, err)
	}
	bins := pr.Bins
	if len(bins) == 0 {
		bins = []int{pr.Bin}
	}
	return bins, pr.Samples, nil
}

// Place implements Backend via POST /v1/place.
func (b *HTTPBackend) Place(ctx context.Context, count int) ([]int, int64, error) {
	if count != 1 {
		return b.place(ctx, "/v1/place?count="+strconv.Itoa(count), false)
	}
	return b.place(ctx, "/v1/place", false)
}

// Remove implements Backend via POST /v1/remove; the 409 conflict is
// serve.ErrEmptyBin.
func (b *HTTPBackend) Remove(ctx context.Context, bin int) error {
	return b.RemoveKey(ctx, bin, "")
}

// PlaceKey implements KeyedBackend via POST /v1/place?key=.
func (b *HTTPBackend) PlaceKey(ctx context.Context, key string) ([]int, int64, error) {
	return b.place(ctx, "/v1/place?key="+url.QueryEscape(key), true)
}

// RemoveKey implements KeyedBackend via POST /v1/remove?bin=&key=.
func (b *HTTPBackend) RemoveKey(ctx context.Context, bin int, key string) error {
	if err := b.checkBins(ctx); err != nil {
		return err
	}
	path := "/v1/remove?bin=" + strconv.Itoa(bin)
	if key != "" {
		path += "&key=" + url.QueryEscape(key)
	}
	_, err := b.call(ctx, http.MethodPost, path)
	return err
}

// Stats implements Backend via GET /v1/stats.
func (b *HTTPBackend) Stats(ctx context.Context) (serve.StatsView, error) {
	doc, err := b.StatsDoc(ctx)
	return doc.StatsView, err
}

// StatsDoc implements ReportBackend via GET /v1/stats.
func (b *HTTPBackend) StatsDoc(ctx context.Context) (StatsResponse, error) {
	doc, _, err := b.StatsRaw(ctx)
	return doc, err
}

// StatsRaw is StatsDoc plus the document's bytes as served. A backend
// built with wantN refuses a document serving another bin count.
func (b *HTTPBackend) StatsRaw(ctx context.Context) (StatsResponse, []byte, error) {
	body, err := b.call(ctx, http.MethodGet, "/v1/stats")
	if err != nil {
		return StatsResponse{}, nil, err
	}
	var sr StatsResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		return StatsResponse{}, nil, fmt.Errorf("cluster: decode %s/v1/stats: %w", b.base, err)
	}
	if b.wantN > 0 {
		if sr.Info.N != b.wantN {
			if b.warned.CompareAndSwap(false, true) {
				slog.Warn("backend bin count mismatch, refusing to route to it",
					"backend", b.base, "backend_n", sr.Info.N, "cluster_n", b.wantN)
			}
			return StatsResponse{}, nil, fmt.Errorf("cluster: bin count mismatch on %s: %d != %d", b.base, sr.Info.N, b.wantN)
		}
		b.binsOK.Store(true)
	}
	return sr, body, nil
}

// Timeseries implements ReportBackend via GET /v1/timeseries.
func (b *HTTPBackend) Timeseries(ctx context.Context, window int) (watch.SeriesResponse, error) {
	var doc watch.SeriesResponse
	err := b.get(ctx, "/v1/timeseries?window="+strconv.Itoa(window), &doc)
	return doc, err
}

// Events reads the watchdog's event journal via GET /v1/events.
func (b *HTTPBackend) Events(ctx context.Context) (watch.EventsResponse, error) {
	var doc watch.EventsResponse
	err := b.get(ctx, "/v1/events", &doc)
	return doc, err
}

// Transport implements ReportBackend. HTTP carries one request per
// write, so its coalescing factor is 1 by definition; bytes per call
// are measured at the socket, headers included.
func (b *HTTPBackend) Transport() TransportStats {
	ts := TransportStats{Transport: "http"}
	if calls := b.calls.Load(); calls > 0 {
		ts.CoalescingFactor = 1
		ts.BytesPerOp = float64(b.bytes.Total()) / float64(calls)
	}
	return ts
}

// ReadTrace implements TraceBackend via GET /v1/trace (optionally
// ?id= filtered): the daemon's retained-op ring, for cross-tier trace
// assembly and bundle capture.
func (b *HTTPBackend) ReadTrace(ctx context.Context, id string) ([]*obs.Op, error) {
	path := "/v1/trace"
	if id != "" {
		path += "?id=" + url.QueryEscape(id)
	}
	var tr obs.TraceResponse
	err := b.get(ctx, path, &tr)
	return tr.Ops, err
}

// Health implements Backend via GET /healthz.
func (b *HTTPBackend) Health(ctx context.Context) error {
	if _, err := b.call(ctx, http.MethodGet, "/healthz"); err != nil {
		return err
	}
	return b.checkBins(ctx)
}
