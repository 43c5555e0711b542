package serve

import (
	"context"
	"encoding/json"

	"repro/internal/obs"
	"repro/internal/wire"
)

// Place implements wire.Handler with /v1/place?count=k semantics.
func (h *Handler) Place(ctx context.Context, count int) ([]int, int64, error) {
	if count < 1 || count > MaxBulkPlace {
		return nil, 0, badRequest("count must be in [1,%d], got %d", MaxBulkPlace, count)
	}
	return h.t.PlaceBalls(ctx, "", count)
}

// PlaceKeyed implements wire.Handler with /v1/place?key=k semantics.
func (h *Handler) PlaceKeyed(ctx context.Context, key string) ([]int, int64, error) {
	if key == "" {
		return nil, 0, badRequest("empty key")
	}
	return h.t.PlaceBalls(ctx, key, 1)
}

// Remove implements wire.Handler with /v1/remove semantics.
func (h *Handler) Remove(ctx context.Context, bin int, key string) error {
	return h.t.RemoveKeyed(ctx, bin, key)
}

// StatsJSON implements wire.Handler: the exact /v1/stats document, so
// wire clients decode with the same structs as HTTP clients.
func (h *Handler) StatsJSON(ctx context.Context) ([]byte, error) {
	doc, err := StatsDocument(h.t, h.info, h.ws.Load(), nil)
	if err != nil {
		return nil, err
	}
	return json.Marshal(doc)
}

// TraceJSON implements wire.Handler (protocol ≥ 3): the tier's own
// retained ops for one trace id, as the GET /v1/trace?id= document.
// Cross-tier assembly stays on the HTTP GET /v1/trace/{id} route; the
// wire message keeps one meaning on both tiers — "this daemon's ring,
// filtered".
func (h *Handler) TraceJSON(ctx context.Context, id uint64) ([]byte, error) {
	r := h.t.Obs()
	return json.Marshal(traceDoc(r, r.OpsByTrace(obs.FormatTrace(id))))
}

// Hello implements wire.Handler for the n-agreement handshake.
func (h *Handler) Hello() wire.Hello {
	return wire.Hello{
		Protocol: h.info.Protocol,
		N:        h.info.N,
		Shards:   h.info.Shards,
	}
}

// Draining implements wire.Handler: PING mirrors the tier's drain bit
// (a proxy's backend health stays with its membership).
func (h *Handler) Draining() bool { return h.t.Draining() }
