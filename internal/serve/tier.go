package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"repro/internal/obs"
)

// This file is the Dispatcher's side of the shared front end: the
// Tier methods that make bbserved's HTTP and wire surface.

// PlaceBalls implements Tier: PlaceMany, or PlaceKeyed for a key.
func (d *Dispatcher) PlaceBalls(ctx context.Context, key string, count int) ([]int, int64, error) {
	if key == "" {
		return d.PlaceMany(ctx, count)
	}
	bin, samples, err := d.PlaceKeyed(ctx, key)
	if err != nil {
		return nil, 0, err
	}
	return []int{bin}, samples, nil
}

// Ready implements Tier: a dispatcher serves until it drains.
func (d *Dispatcher) Ready() error { return nil }

// GatherTrace implements Tier from the dispatcher's own ring.
func (d *Dispatcher) GatherTrace(ctx context.Context, id uint64) (sources []string, ops []*obs.Op) {
	if id == 0 {
		return []string{d.obs.Hop()}, d.obs.Ops(0)
	}
	return []string{d.obs.Hop()}, d.obs.OpsByTrace(obs.FormatTrace(id))
}

// InternalStatus implements Tier: the dispatcher's own failure is a
// 500.
func (d *Dispatcher) InternalStatus() int { return http.StatusInternalServerError }

// StatsDoc implements Tier: base plus the lock-free view, the
// dispatch latency and the keyed and durability blocks, or with
// ?shard=s one shard's row (ShardStatsResponse).
func (d *Dispatcher) StatsDoc(base StatsResponse, q url.Values) (any, error) {
	if s := q.Get("shard"); s != "" {
		shard, err := strconv.Atoi(s)
		if err != nil || shard < 0 || shard >= d.Shards() {
			return nil, fmt.Errorf("shard must be in [0,%d), got %q", d.Shards(), s)
		}
		return ShardStatsResponse{Info: base.Info, Shard: d.ShardStats(shard)}, nil
	}
	ks := d.KeyedStats()
	base.StatsView = d.Stats()
	base.LatencyNs = LatencySummary(d.Latency())
	base.Keyed = &ks
	base.Durability = d.Durability()
	return base, nil
}

// Routes implements Tier: GET /v1/snapshot, the lock-all consistent
// snapshot.
func (d *Dispatcher) Routes(mux *http.ServeMux, info Info) {
	mux.HandleFunc("GET /v1/snapshot", func(w http.ResponseWriter, r *http.Request) {
		metrics, balls := d.sa.MetricsWithBalls() // one lock-all: Balls and Metrics agree
		resp := SnapshotResponse{Info: info, Balls: balls, Metrics: metrics}
		for s := 0; s < d.sa.Shards(); s++ {
			resp.Shards = append(resp.Shards, d.sa.ShardMetrics(s))
		}
		writeJSON(w, http.StatusOK, resp)
	})
}

// WriteMetrics implements Tier: counters and gauges from the lock-free
// stats view, the keyed tier, per-shard ball/load gauges, and the
// dispatch latency as a summary in seconds.
func (d *Dispatcher) WriteMetrics(w io.Writer) {
	v := d.Stats()
	lat := d.Latency()
	obs.WriteCounter(w, "bb_place_total", "Cumulative balls placed.", v.Placed)
	obs.WriteCounter(w, "bb_remove_total", "Cumulative balls removed.", v.Removed)
	obs.WriteCounter(w, "bb_samples_total", "Cumulative random bin choices (allocation time).", v.Samples)
	obs.WriteGauge(w, "bb_balls", "Balls currently in the system.", v.Balls)
	obs.WriteGauge(w, "bb_max_load", "Current maximum bin load.", v.MaxLoad)
	obs.WriteGauge(w, "bb_min_load", "Current minimum bin load.", v.MinLoad)
	obs.WriteGauge(w, "bb_gap", "Max minus min load.", v.Gap)
	obs.WriteGauge(w, "bb_psi", "Quadratic potential of the load vector.", v.Psi)
	obs.WriteGauge(w, "bb_samples_per_ball", "Cumulative samples per placed ball.", v.SamplesPerBall)

	ks := d.KeyedStats()
	obs.WriteGauge(w, "bb_keyed_keys", "Keys in the keyed placement table.", ks.Keys)
	obs.WriteGauge(w, "bb_keyed_hot_keys", "Keys split to replica sets.", ks.HotKeys)
	obs.WriteGauge(w, "bb_keyed_affinity_hit_rate", "Keyed requests answered from the affinity table.", ks.AffinityHitRate)
	obs.WriteCounter(w, "bb_keyed_moved_total", "Key replicas moved by failures or rebalancing.", ks.MovedKeys)
	obs.WriteCounter(w, "bb_keyed_shed_total", "Key replicas shed off overfull bins.", ks.ShedKeys)

	fmt.Fprintf(w, "# HELP bb_shard_balls Balls per shard.\n# TYPE bb_shard_balls gauge\n")
	for _, row := range v.Shards {
		fmt.Fprintf(w, "bb_shard_balls{shard=%q} %d\n", strconv.Itoa(row.Shard), row.Balls)
	}
	fmt.Fprintf(w, "# HELP bb_shard_max_load Maximum load per shard.\n# TYPE bb_shard_max_load gauge\n")
	for _, row := range v.Shards {
		fmt.Fprintf(w, "bb_shard_max_load{shard=%q} %d\n", strconv.Itoa(row.Shard), row.MaxLoad)
	}

	fmt.Fprintf(w, "# HELP bb_dispatch_latency_seconds Request admission-to-completion latency (keyed route, shard lock wait and work under it).\n")
	fmt.Fprintf(w, "# TYPE bb_dispatch_latency_seconds summary\n")
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		fmt.Fprintf(w, "bb_dispatch_latency_seconds{quantile=%q} %g\n",
			strconv.FormatFloat(q, 'g', -1, 64), float64(lat.Quantile(q))/1e9)
	}
	fmt.Fprintf(w, "bb_dispatch_latency_seconds_sum %g\n", float64(lat.Sum)/1e9)
	fmt.Fprintf(w, "bb_dispatch_latency_seconds_count %d\n", lat.Count)
}
