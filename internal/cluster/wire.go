package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/watch"
	"repro/internal/wire"
)

// WireBackend drives a bbserved or bbproxy over the binary protocol
// when the daemon advertises a wire listener. Its answers are
// HTTPBackend's — the same typed answers with the same codes — so
// failover and eviction behave the same on either transport. The
// HTTP backend it is built over carries what the protocol does not:
// whole-ring trace reads and the watchdog's time series.
type WireBackend struct {
	hb *HTTPBackend
	wc *wire.Client
}

// NewWireBackend dials the wire listener advertised by the daemon
// behind hb, with a pool of hb's connection cap (default 1). wantN > 0
// enforces n-agreement from the HELLO handshake alone. A dial or
// agreement failure returns an error; callers typically fall back to
// the HTTP backend and log.
func NewWireBackend(hb *HTTPBackend, wireAddr string, wantN int) (*WireBackend, error) {
	addr, err := wire.ResolveAddr(hb.Name(), wireAddr)
	if err != nil {
		return nil, err
	}
	wc, err := wire.Dial(addr, wire.ClientOptions{Conns: hb.conns})
	if err != nil {
		return nil, err
	}
	if hello := wc.Hello(); wantN > 0 && hello.N != wantN {
		wc.Close()
		return nil, fmt.Errorf("cluster: backend %s serves n=%d, want %d", hb.Name(), hello.N, wantN)
	}
	return &WireBackend{hb: hb, wc: wc}, nil
}

// Name implements Backend: the HTTP base URL, so membership rows and
// logs name the backend the same on either transport.
func (b *WireBackend) Name() string { return b.hb.Name() }

// Place implements Backend.
func (b *WireBackend) Place(ctx context.Context, count int) ([]int, int64, error) {
	return b.wc.Place(ctx, count)
}

// Remove implements Backend.
func (b *WireBackend) Remove(ctx context.Context, bin int) error {
	return b.wc.Remove(ctx, bin, "")
}

// PlaceKey implements KeyedBackend.
func (b *WireBackend) PlaceKey(ctx context.Context, key string) ([]int, int64, error) {
	return b.wc.PlaceKeyed(ctx, key)
}

// RemoveKey implements KeyedBackend.
func (b *WireBackend) RemoveKey(ctx context.Context, bin int, key string) error {
	return b.wc.Remove(ctx, bin, key)
}

// Stats implements Backend.
func (b *WireBackend) Stats(ctx context.Context) (serve.StatsView, error) {
	doc, err := b.StatsDoc(ctx)
	return doc.StatsView, err
}

// StatsDoc implements ReportBackend over a wire STATS request (the
// same JSON document /v1/stats serves).
func (b *WireBackend) StatsDoc(ctx context.Context) (StatsResponse, error) {
	body, err := b.wc.StatsJSON(ctx)
	if err != nil {
		return StatsResponse{}, err
	}
	var sr StatsResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		return StatsResponse{}, fmt.Errorf("cluster: decode wire stats from %s: %w", b.Name(), err)
	}
	return sr, nil
}

// Timeseries implements ReportBackend over HTTP: the protocol has no
// time-series message.
func (b *WireBackend) Timeseries(ctx context.Context, window int) (watch.SeriesResponse, error) {
	return b.hb.Timeseries(ctx, window)
}

// Transport implements ReportBackend from the wire client's own
// counters.
func (b *WireBackend) Transport() TransportStats {
	s := b.wc.Stats()
	return TransportStats{Transport: "wire", CoalescingFactor: s.CoalescingFactor, BytesPerOp: s.BytesPerOp}
}

// Health implements Backend via wire PING, which reports draining just
// like GET /healthz.
func (b *WireBackend) Health(ctx context.Context) error { return b.wc.Ping(ctx) }

// ReadTrace implements TraceBackend. An exact-id lookup rides the wire
// TRACE message when the connection negotiated protocol ≥ 3; a v2
// backend (or a whole-ring read, which the wire message does not
// carry) falls back to the HTTP backend.
func (b *WireBackend) ReadTrace(ctx context.Context, id string) ([]*obs.Op, error) {
	if id != "" {
		body, err := b.wc.TraceJSON(ctx, obs.ParseTrace(id))
		if err == nil {
			var tr obs.TraceResponse
			if err := json.Unmarshal(body, &tr); err != nil {
				return nil, fmt.Errorf("cluster: decode wire trace from %s: %w", b.Name(), err)
			}
			return tr.Ops, nil
		}
		if !errors.Is(err, wire.ErrTraceUnsupported) {
			return nil, err
		}
	}
	return b.hb.ReadTrace(ctx, id)
}

// Close tears down the wire connection pool.
func (b *WireBackend) Close() error { return b.wc.Close() }
