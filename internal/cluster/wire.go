package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/wire"
)

// WireBackend drives a bbserved over the binary protocol when the
// backend advertises a wire listener. Routing semantics are identical
// to HTTPBackend — wire codes map back onto the same sentinel errors —
// so failover and eviction behave the same on either transport. The
// HTTP backend is retained for construction fallback and naming.
type WireBackend struct {
	hb *HTTPBackend
	wc *wire.Client
}

// NewWireBackend dials the wire listener advertised by the backend at
// base. wantN > 0 enforces n-agreement from the HELLO handshake alone.
// A dial or agreement failure returns an error; callers typically fall
// back to the HTTP backend and log.
func NewWireBackend(hb *HTTPBackend, wireAddr string, wantN int) (*WireBackend, error) {
	addr, err := wire.ResolveAddr(hb.Name(), wireAddr)
	if err != nil {
		return nil, err
	}
	wc, err := wire.Dial(addr, wire.ClientOptions{})
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

// wireErr maps typed wire errors back onto the sentinel errors the
// router's failover logic matches on.
func wireErr(err error) error {
	if err == nil {
		return nil
	}
	switch wire.ErrCode(err) {
	case wire.CodeEmptyBin:
		return serve.ErrEmptyBin
	case wire.CodeDraining:
		return serve.ErrDraining
	case wire.CodeKeyedUnsupported:
		return serve.ErrKeyedUnsupported
	}
	return err
}

// Place implements Backend.
func (b *WireBackend) Place(ctx context.Context, count int) ([]int, int64, error) {
	bins, samples, err := b.wc.Place(ctx, count)
	return bins, samples, wireErr(err)
}

// Remove implements Backend.
func (b *WireBackend) Remove(ctx context.Context, bin int) error {
	return wireErr(b.wc.Remove(ctx, bin, ""))
}

// PlaceKey implements KeyedBackend.
func (b *WireBackend) PlaceKey(ctx context.Context, key string) ([]int, int64, error) {
	bins, samples, err := b.wc.PlaceKeyed(ctx, key)
	return bins, samples, wireErr(err)
}

// RemoveKey implements KeyedBackend.
func (b *WireBackend) RemoveKey(ctx context.Context, bin int, key string) error {
	return wireErr(b.wc.Remove(ctx, bin, key))
}

// Stats implements Backend over a wire STATS request (the same JSON
// document /v1/stats serves).
func (b *WireBackend) Stats(ctx context.Context) (serve.StatsView, error) {
	body, err := b.wc.StatsJSON(ctx)
	if err != nil {
		return serve.StatsView{}, wireErr(err)
	}
	var sr serve.StatsResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		return serve.StatsView{}, fmt.Errorf("cluster: decode wire stats from %s: %w", b.Name(), err)
	}
	return sr.StatsView, nil
}

// Health implements Backend via wire PING, which reports draining just
// like GET /healthz.
func (b *WireBackend) Health(ctx context.Context) error {
	return wireErr(b.wc.Ping(ctx))
}

// ReadTrace implements TraceBackend. An exact-id lookup rides the wire
// TRACE message when the connection negotiated protocol ≥ 3; a v2
// backend (or a whole-ring read, which the wire message does not
// carry) falls back to the retained HTTP backend.
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
			return nil, wireErr(err)
		}
	}
	return b.hb.ReadTrace(ctx, id)
}

// Close tears down the wire connection pool.
func (b *WireBackend) Close() error { return b.wc.Close() }
