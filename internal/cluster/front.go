package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"repro/internal/keyed"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/wire"
)

// This file is the Router's side of the shared front end
// (serve.Handler): the serve.Tier methods that make bbproxy's HTTP and
// wire surface.

// StatsResponse is the body of the proxy's GET /v1/stats: the same
// envelope a bbserved serves (backends appear as pseudo-shards) plus
// the aggregated cluster block. The keyed and durability blocks live
// inside the cluster block. It is also the one typed document clients
// read from either tier: a bbserved's decodes with a zero cluster
// block.
type StatsResponse struct {
	serve.StatsResponse
	// WindowLatencyNs covers only the last completed staleness window
	// (WindowSec long), for per-interval monitoring.
	WindowLatencyNs serve.Latency `json:"window_latency_ns"`
	WindowSec       float64       `json:"window_sec,omitempty"`
	Cluster         Stats         `json:"cluster"`
}

// KeyedBlocks resolves the blocks whose place in the document depends
// on the tier: a bbserved serves its keyed tier (keys → shards) and
// its WAL at the top level, a bbproxy serves its own (keys → backends)
// under cluster. Either is nil when the daemon runs none.
func (sr *StatsResponse) KeyedBlocks() (*keyed.Stats, *keyed.DurabilityStats) {
	ks, ds := sr.Keyed, sr.Durability
	if sr.Cluster.Keyed != nil {
		ks = sr.Cluster.Keyed
	}
	if sr.Cluster.Durability != nil {
		ds = sr.Cluster.Durability
	}
	return ks, ds
}

// IsProxy reports whether a bbproxy served the document: only the
// routing tier fills the cluster block.
func (sr *StatsResponse) IsProxy() bool { return sr.Cluster.Policy != "" }

// NewHandlerWire is serve.NewHandlerWire for a router: the proxy's
// HTTP surface, with the wire server's counters when ws is non-nil.
func NewHandlerWire(rt *Router, info serve.Info, ws *wire.Server) *serve.Handler {
	return serve.NewHandlerWire(rt, info, ws)
}

// NewRouterWire is serve.NewHandler for a router served over the
// binary protocol.
func NewRouterWire(rt *Router, info serve.Info) *serve.Handler { return serve.NewHandler(rt, info) }

// PlaceBalls implements serve.Tier: Place, or PlaceKeyed for a key.
func (rt *Router) PlaceBalls(ctx context.Context, key string, count int) ([]int, int64, error) {
	if key != "" {
		return rt.PlaceKeyed(ctx, key)
	}
	return rt.Place(ctx, count)
}

// Ready implements serve.Tier: the proxy serves while at least one
// backend is in rotation.
func (rt *Router) Ready() error {
	if len(rt.ms.Healthy()) == 0 {
		return ErrNoBackends
	}
	return nil
}

// ErrCode implements serve.Tier for the routing errors and the
// backends' sentinel errors the router passes through.
func (rt *Router) ErrCode(err error) wire.Code {
	switch {
	case errors.Is(err, ErrDraining):
		return wire.CodeDraining
	case errors.Is(err, ErrNoBackends):
		return wire.CodeNoBackends
	case errors.Is(err, ErrBackendDown):
		return wire.CodeBackendDown
	case errors.Is(err, serve.ErrEmptyBin):
		return wire.CodeEmptyBin
	case errors.Is(err, serve.ErrKeyedUnsupported):
		return wire.CodeKeyedUnsupported
	}
	return wire.CodeInternal
}

// InternalStatus implements serve.Tier: any other failure came from
// (or on the way to) a backend, a 502.
func (rt *Router) InternalStatus() int { return http.StatusBadGateway }

// Routes implements serve.Tier: the proxy serves only the shared
// routes.
func (rt *Router) Routes(*http.ServeMux, serve.Info) {}

// StatsDoc implements serve.Tier: base plus the cluster view (backends
// as pseudo-shards), the place latency and the cluster block.
func (rt *Router) StatsDoc(base serve.StatsResponse, _ url.Values) (any, error) {
	win, secs := rt.WindowLatency()
	cs := rt.Stats() // one aggregation pass serves both blocks
	base.StatsView = cs.View()
	base.LatencyNs = serve.LatencySummary(rt.PlaceLatency())
	return StatsResponse{
		StatsResponse:   base,
		WindowLatencyNs: serve.LatencySummary(win),
		WindowSec:       secs,
		Cluster:         cs,
	}, nil
}

// WriteMetrics implements serve.Tier: the cluster aggregates, the
// keyed tier, per-backend gauges, the place latency as a summary in
// seconds, and the staleness-at-pick distribution.
func (rt *Router) WriteMetrics(w io.Writer) {
	cs := rt.Stats()
	lat := rt.PlaceLatency()
	obs.WriteGauge(w, "bb_proxy_backends", "Configured backend slots.", cs.Backends)
	obs.WriteGauge(w, "bb_proxy_healthy_backends", "Backends currently in rotation.", cs.Healthy)
	obs.WriteGauge(w, "bb_proxy_balls", "Estimated balls across healthy backends.", cs.Balls)
	obs.WriteGauge(w, "bb_proxy_backend_gap", "Max minus min estimated backend ball count.", cs.BackendGap)
	obs.WriteGauge(w, "bb_proxy_max_load", "Maximum single-bin load across healthy backends.", cs.MaxLoad)
	obs.WriteGauge(w, "bb_proxy_probes_per_pick", "Load-view probes per routing decision.", cs.ProbesPerPick)
	obs.WriteCounter(w, "bb_proxy_picks_total", "Cumulative routing decisions.", cs.Picks)
	obs.WriteCounter(w, "bb_proxy_probes_total", "Cumulative load-view probes.", cs.Probes)
	obs.WriteCounter(w, "bb_proxy_failovers_total", "Placements retried on another backend.", cs.Failovers)
	obs.WriteCounter(w, "bb_proxy_evictions_total", "Backends evicted from rotation.", cs.Evictions)
	obs.WriteCounter(w, "bb_proxy_rejoins_total", "Backends re-admitted to rotation.", cs.Rejoins)

	if ks := cs.Keyed; ks != nil {
		obs.WriteGauge(w, "bb_proxy_keyed_keys", "Keys in the keyed placement table.", ks.Keys)
		obs.WriteGauge(w, "bb_proxy_keyed_hot_keys", "Keys split to replica sets.", ks.HotKeys)
		obs.WriteGauge(w, "bb_proxy_keyed_affinity_hit_rate", "Keyed requests answered from the affinity table.", ks.AffinityHitRate)
		obs.WriteCounter(w, "bb_proxy_keyed_moved_total", "Key replicas moved by failures or rebalancing.", ks.MovedKeys)
		obs.WriteCounter(w, "bb_proxy_keyed_shed_total", "Key replicas shed off overfull bins.", ks.ShedKeys)
	}

	fmt.Fprintf(w, "# HELP bb_proxy_backend_up Backend in rotation (1) or evicted (0).\n# TYPE bb_proxy_backend_up gauge\n")
	for _, row := range cs.Rows {
		up := 0
		if row.Up {
			up = 1
		}
		fmt.Fprintf(w, "bb_proxy_backend_up{slot=%q} %d\n", strconv.Itoa(row.Slot), up)
	}
	fmt.Fprintf(w, "# HELP bb_proxy_backend_balls Estimated balls per backend.\n# TYPE bb_proxy_backend_balls gauge\n")
	for _, row := range cs.Rows {
		fmt.Fprintf(w, "bb_proxy_backend_balls{slot=%q} %d\n", strconv.Itoa(row.Slot), row.Balls)
	}
	fmt.Fprintf(w, "# HELP bb_proxy_backend_poll_age_seconds Age of each backend's load view.\n# TYPE bb_proxy_backend_poll_age_seconds gauge\n")
	for _, row := range cs.Rows {
		if row.AgeMs >= 0 {
			fmt.Fprintf(w, "bb_proxy_backend_poll_age_seconds{slot=%q} %g\n",
				strconv.Itoa(row.Slot), float64(row.AgeMs)/1e3)
		}
	}

	fmt.Fprintf(w, "# HELP bb_proxy_place_latency_seconds Proxied place latency (incl. failover).\n")
	fmt.Fprintf(w, "# TYPE bb_proxy_place_latency_seconds summary\n")
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		fmt.Fprintf(w, "bb_proxy_place_latency_seconds{quantile=%q} %g\n",
			strconv.FormatFloat(q, 'g', -1, 64), float64(lat.Quantile(q))/1e9)
	}
	fmt.Fprintf(w, "bb_proxy_place_latency_seconds_sum %g\n", float64(lat.Sum)/1e9)
	fmt.Fprintf(w, "bb_proxy_place_latency_seconds_count %d\n", lat.Count)

	obs.WritePickStaleness(w, rt.PickStaleness())
}
