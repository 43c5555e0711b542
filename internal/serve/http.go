package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	ballsbins "repro"
	"repro/internal/diag"
	"repro/internal/hdrhist"
	"repro/internal/keyed"
	"repro/internal/obs"
	"repro/internal/watch"
	"repro/internal/wire"
)

// MaxBulkPlace caps the count accepted by one POST /v1/place, bounding
// the response size and the work one HTTP request can commit.
const MaxBulkPlace = 65536

// Info describes the served configuration; it is echoed in /v1/stats
// and /v1/snapshot so load generators can label their output.
type Info struct {
	Protocol string `json:"protocol"`
	N        int    `json:"n"`
	Shards   int    `json:"shards"`
	Engine   string `json:"engine"`
	Seed     uint64 `json:"seed"`
	// WireAddr advertises the binary wire-protocol listener (the
	// -wire-addr flag value), empty when wire serving is off. Peers
	// that see it (bbproxy, bbload -transport wire) may dial it
	// instead of HTTP; see wire.ResolveAddr for host-less values.
	WireAddr string `json:"wire_addr,omitempty"`
}

// PlaceResponse is the body of POST /v1/place. Bin duplicates Bins[0]
// for the count=1 case so single-ball callers need not unpack a list.
// Key echoes the keyed placement's key, when one was given.
type PlaceResponse struct {
	Bin     int    `json:"bin"`
	Bins    []int  `json:"bins,omitempty"`
	Count   int    `json:"count"`
	Samples int64  `json:"samples"`
	Key     string `json:"key,omitempty"`
}

// RemoveResponse is the body of POST /v1/remove.
type RemoveResponse struct {
	Bin     int  `json:"bin"`
	Removed bool `json:"removed"`
}

// StatsResponse is the body of GET /v1/stats: the lock-free monitoring
// view plus dispatch-latency quantiles in nanoseconds and the keyed
// placement tier's block (key→shard affinity).
type StatsResponse struct {
	Info Info `json:"info"`
	StatsView
	Draining  bool         `json:"draining"`
	LatencyNs Latency      `json:"dispatch_latency_ns"`
	Keyed     *keyed.Stats `json:"keyed,omitempty"`
	// Durability is the keyed tier's WAL block (log bytes, records
	// since snapshot, fsync age, recovery replay time); omitted when
	// the process runs without -data-dir.
	Durability *keyed.DurabilityStats `json:"durability,omitempty"`
	// Wire is the binary protocol's server block (conns, frames,
	// reply batching); omitted when the process runs without
	// -wire-addr.
	Wire *wire.Stats `json:"wire,omitempty"`
	// Obs is the per-stage latency decomposition (queue, apply, op
	// totals) from the observability recorder; omitted when recording
	// is disabled. bbproxy's stats carry the same block for its own
	// stages (probe, forward).
	Obs map[string]obs.StageSummary `json:"obs,omitempty"`
	// Watch is the invariant watchdog's summary (violations, event
	// journal cursor); omitted when the watchdog is disabled. The full
	// journal and time series live at /v1/events and /v1/timeseries.
	Watch *watch.StatsBlock `json:"watch,omitempty"`
	// Diag is the flight recorder's summary (bundles written, drops,
	// last trigger); omitted when the process runs without -diag-dir.
	Diag *diag.Stats `json:"diag,omitempty"`
}

// Latency summarizes a latency histogram in nanoseconds.
type Latency struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P90   int64   `json:"p90"`
	P99   int64   `json:"p99"`
	P999  int64   `json:"p999"`
	Max   int64   `json:"max"`
}

// SnapshotResponse is the body of GET /v1/snapshot: a lock-all
// linearizable Metrics of the whole system plus one per-shard Result
// (read shard-at-a-time after the global snapshot).
type SnapshotResponse struct {
	Info    Info               `json:"info"`
	Balls   int64              `json:"balls"`
	Metrics ballsbins.Result   `json:"metrics"`
	Shards  []ballsbins.Result `json:"shards"`
}

type handler struct {
	d     *Dispatcher
	info  Info
	ws    *wire.Server // nil when wire serving is off
	build obs.BuildInfo
}

// NewHandler mounts the serving API over a dispatcher:
//
//	POST /v1/place[?count=k]  place 1 (default) or k balls
//	POST /v1/remove?bin=i     remove one ball from bin i
//	GET  /v1/stats[?shard=s]  lock-free monitoring view (one shard row)
//	GET  /v1/snapshot         lock-all consistent snapshot
//	GET  /healthz             200 ok, 503 once draining
//	GET  /metrics             Prometheus text format
func NewHandler(d *Dispatcher, info Info) http.Handler {
	return NewHandlerWire(d, info, nil)
}

// NewHandlerWire is NewHandler for a process that also serves the
// binary protocol: the wire server's counters join /v1/stats (wire
// block) and /metrics (bb_wire_* series). ws may be nil.
func NewHandlerWire(d *Dispatcher, info Info, ws *wire.Server) http.Handler {
	h := &handler{d: d, info: info, ws: ws, build: obs.Build(wire.Version)}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/place", h.place)
	mux.HandleFunc("POST /v1/remove", h.remove)
	mux.HandleFunc("GET /v1/stats", h.stats)
	mux.HandleFunc("GET /v1/snapshot", h.snapshot)
	mux.HandleFunc("GET /v1/trace", d.Obs().TraceHandler())
	mux.HandleFunc("GET /v1/trace/{id}", d.Obs().AssembledTraceHandler(nil))
	mux.HandleFunc("GET /v1/events", d.Watch().EventsHandler())
	mux.HandleFunc("GET /v1/timeseries", d.Watch().TimeseriesHandler())
	mux.HandleFunc("GET /v1/version", obs.VersionHandler(h.build))
	mux.HandleFunc("GET /healthz", h.healthz)
	mux.HandleFunc("GET /metrics", h.metrics)
	return mux
}

// traceCtx threads an upstream X-BB-Trace header into the request
// context so the dispatcher's capture joins the caller's trace.
func traceCtx(r *http.Request) context.Context {
	return obs.WithTrace(r.Context(), obs.ParseTrace(r.Header.Get(obs.Header)))
}

// WriteJSON writes v as indented JSON with the given status. Shared by
// every HTTP surface in the system (bbserved, bbproxy) so the wire
// shape cannot drift between tiers.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// WriteError writes the canonical {"error": ...} body.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, status int, v any) { WriteJSON(w, status, v) }

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteError(w, status, format, args...)
}

// ParseBulkCount validates a /v1/place count query value: empty means
// 1, otherwise an integer in [1, MaxBulkPlace].
func ParseBulkCount(s string) (int, error) {
	if s == "" {
		return 1, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < 1 {
		return 0, fmt.Errorf("count must be a positive integer, got %q", s)
	}
	if v > MaxBulkPlace {
		return 0, fmt.Errorf("count %d exceeds maximum %d", v, MaxBulkPlace)
	}
	return v, nil
}

func (h *handler) place(w http.ResponseWriter, r *http.Request) {
	count, err := ParseBulkCount(r.URL.Query().Get("count"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key := r.URL.Query().Get("key")
	if key != "" && count > 1 {
		// Bulk + affinity is ambiguous: a bulk spreads round-robin
		// across shards, a key pins its shard. Refusing is the only
		// honest answer — silently round-robining a keyed bulk (the
		// pre-keyed behavior) would scatter a key's balls and destroy
		// the affinity contract without telling the caller.
		writeError(w, http.StatusBadRequest,
			"bulk place (count=%d) cannot carry a key: keyed placement is one ball per request; send count=1 requests for key %q", count, key)
		return
	}
	ctx := traceCtx(r)
	var bins []int
	var samples int64
	if key != "" {
		var bin int
		bin, samples, err = h.d.PlaceKeyed(ctx, key)
		bins = []int{bin}
	} else {
		bins, samples, err = h.d.PlaceMany(ctx, count)
	}
	if err != nil {
		// A cancelled bulk request may still have committed its balls
		// (admission is the commit point) — the client is gone
		// and cannot read any body, so there is no one to report them
		// to; they remain visible in /v1/stats like every placement.
		status := http.StatusInternalServerError
		switch err {
		case ErrDraining:
			status = http.StatusServiceUnavailable
		case ErrKeyedUnsupported:
			status = http.StatusBadRequest
		}
		writeError(w, status, "%v", err)
		return
	}
	resp := PlaceResponse{Bin: bins[0], Count: count, Samples: samples, Key: key}
	if count > 1 {
		resp.Bins = bins
	}
	writeJSON(w, http.StatusOK, resp)
}

func (h *handler) remove(w http.ResponseWriter, r *http.Request) {
	s := r.URL.Query().Get("bin")
	if s == "" {
		writeError(w, http.StatusBadRequest, "missing bin parameter")
		return
	}
	bin, err := strconv.Atoi(s)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bin must be an integer, got %q", s)
		return
	}
	if bin < 0 || bin >= h.d.N() {
		writeError(w, http.StatusBadRequest, "bin %d outside [0,%d)", bin, h.d.N())
		return
	}
	switch err := h.d.RemoveKeyed(traceCtx(r), bin, r.URL.Query().Get("key")); err {
	case nil:
		writeJSON(w, http.StatusOK, RemoveResponse{Bin: bin, Removed: true})
	case ErrEmptyBin:
		writeError(w, http.StatusConflict, "bin %d is empty", bin)
	case ErrDraining:
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// LatencySummary condenses a histogram snapshot into the quantile
// summary used by /v1/stats and the bench JSON records.
func LatencySummary(s hdrhist.Snapshot) Latency {
	return Latency{
		Count: s.Count,
		Mean:  s.Mean(),
		P50:   s.Quantile(0.5),
		P90:   s.Quantile(0.9),
		P99:   s.Quantile(0.99),
		P999:  s.Quantile(0.999),
		Max:   s.Max,
	}
}

// ShardStatsResponse is the body of GET /v1/stats?shard=s: one shard's
// row from the lock-free monitoring view. Cluster load views and
// operators drilling into a hot shard use it to avoid shipping every
// row on each poll.
type ShardStatsResponse struct {
	Info  Info      `json:"info"`
	Shard ShardStat `json:"shard"`
}

func (h *handler) stats(w http.ResponseWriter, r *http.Request) {
	if s := r.URL.Query().Get("shard"); s != "" {
		shard, err := strconv.Atoi(s)
		if err != nil || shard < 0 || shard >= h.d.Shards() {
			writeError(w, http.StatusBadRequest, "shard must be in [0,%d), got %q", h.d.Shards(), s)
			return
		}
		writeJSON(w, http.StatusOK, ShardStatsResponse{
			Info:  h.info,
			Shard: h.d.ShardStats(shard),
		})
		return
	}
	writeJSON(w, http.StatusOK, BuildStatsResponse(h.d, h.info, h.ws))
}

// BuildStatsResponse assembles the /v1/stats document. It is the
// single source for both transports: the HTTP stats handler and the
// wire adapter's STATS reply marshal exactly this.
func BuildStatsResponse(d *Dispatcher, info Info, ws *wire.Server) StatsResponse {
	ks := d.KeyedStats()
	resp := StatsResponse{
		Info:       info,
		StatsView:  d.Stats(),
		Draining:   d.Draining(),
		LatencyNs:  LatencySummary(d.Latency()),
		Keyed:      &ks,
		Durability: d.Durability(),
		Obs:        d.Obs().StageSummaries(),
		Watch:      d.Watch().StatsBlockDoc(),
		Diag:       d.Diag().StatsDoc(),
	}
	if ws != nil {
		s := ws.Stats()
		resp.Wire = &s
	}
	return resp
}

func (h *handler) snapshot(w http.ResponseWriter, r *http.Request) {
	sa := h.d.Allocator()
	metrics, balls := sa.MetricsWithBalls() // one lock-all: Balls and Metrics agree
	resp := SnapshotResponse{
		Info:    h.info,
		Balls:   balls,
		Metrics: metrics,
	}
	for s := 0; s < sa.Shards(); s++ {
		resp.Shards = append(resp.Shards, sa.ShardMetrics(s))
	}
	writeJSON(w, http.StatusOK, resp)
}

func (h *handler) healthz(w http.ResponseWriter, r *http.Request) {
	if h.d.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// metrics renders the Prometheus text exposition format: counters and
// gauges from the lock-free stats view, per-shard ball/load gauges,
// and the dispatch latency as a summary in seconds.
func (h *handler) metrics(w http.ResponseWriter, r *http.Request) {
	v := h.d.Stats()
	lat := h.d.Latency()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	g := func(name, help string, value any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, value)
	}
	c := func(name, help string, value int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, value)
	}
	c("bb_place_total", "Cumulative balls placed.", v.Placed)
	c("bb_remove_total", "Cumulative balls removed.", v.Removed)
	c("bb_samples_total", "Cumulative random bin choices (allocation time).", v.Samples)
	g("bb_balls", "Balls currently in the system.", v.Balls)
	g("bb_max_load", "Current maximum bin load.", v.MaxLoad)
	g("bb_min_load", "Current minimum bin load.", v.MinLoad)
	g("bb_gap", "Max minus min load.", v.Gap)
	g("bb_psi", "Quadratic potential of the load vector.", v.Psi)
	g("bb_samples_per_ball", "Cumulative samples per placed ball.", v.SamplesPerBall)
	g("bb_combining_factor", "Requests applied per shard lock acquisition (1: every request takes its own).", v.CombiningFactor)

	ks := h.d.KeyedStats()
	g("bb_keyed_keys", "Keys in the keyed placement table.", ks.Keys)
	g("bb_keyed_hot_keys", "Keys split to replica sets.", ks.HotKeys)
	g("bb_keyed_affinity_hit_rate", "Keyed requests answered from the affinity table.", ks.AffinityHitRate)
	c("bb_keyed_moved_total", "Key replicas moved by failures or rebalancing.", ks.MovedKeys)
	c("bb_keyed_shed_total", "Key replicas shed off overfull bins.", ks.ShedKeys)
	WriteDurabilityMetrics(w, h.d.Durability())
	if h.ws != nil {
		wire.WriteMetrics(w, h.ws.Stats())
	}

	fmt.Fprintf(w, "# HELP bb_shard_balls Balls per shard.\n# TYPE bb_shard_balls gauge\n")
	for _, row := range v.Shards {
		fmt.Fprintf(w, "bb_shard_balls{shard=%q} %d\n", strconv.Itoa(row.Shard), row.Balls)
	}
	fmt.Fprintf(w, "# HELP bb_shard_max_load Maximum load per shard.\n# TYPE bb_shard_max_load gauge\n")
	for _, row := range v.Shards {
		fmt.Fprintf(w, "bb_shard_max_load{shard=%q} %d\n", strconv.Itoa(row.Shard), row.MaxLoad)
	}

	fmt.Fprintf(w, "# HELP bb_dispatch_latency_seconds Request admission-to-completion latency (shard lock wait plus work under it).\n")
	fmt.Fprintf(w, "# TYPE bb_dispatch_latency_seconds summary\n")
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		fmt.Fprintf(w, "bb_dispatch_latency_seconds{quantile=%q} %g\n",
			trimFloat(q), float64(lat.Quantile(q))/1e9)
	}
	fmt.Fprintf(w, "bb_dispatch_latency_seconds_sum %g\n", float64(lat.Sum)/1e9)
	fmt.Fprintf(w, "bb_dispatch_latency_seconds_count %d\n", lat.Count)

	h.d.Watch().WriteMetrics(w)
	h.d.Obs().WriteStageMetrics(w)
	obs.WriteBuildMetrics(w, h.build)
	obs.WriteRuntimeMetrics(w)
}

func trimFloat(q float64) string { return strconv.FormatFloat(q, 'g', -1, 64) }

// WriteDurabilityMetrics renders the keyed tier's WAL block as
// bb_wal_* Prometheus series. Shared by bbserved and bbproxy (via
// internal/cluster) so the durability series cannot drift between
// tiers; a nil block (no -data-dir) writes nothing.
func WriteDurabilityMetrics(w io.Writer, ds *keyed.DurabilityStats) {
	if ds == nil {
		return
	}
	g := func(name, help string, value any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, value)
	}
	c := func(name, help string, value int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, value)
	}
	g("bb_wal_log_bytes", "Bytes across live WAL segments.", ds.LogBytes)
	c("bb_wal_records_total", "Journal records appended this process lifetime.", ds.Records)
	g("bb_wal_records_since_snapshot", "Journal records since the last compacting snapshot.", ds.RecordsSinceSnapshot)
	c("bb_wal_snapshots_total", "Compacting snapshots written this process lifetime.", ds.Snapshots)
	fsyncAge := float64(-1)
	if ds.LastFsyncAgeMs >= 0 {
		fsyncAge = float64(ds.LastFsyncAgeMs) / 1e3
	}
	g("bb_wal_last_fsync_age_seconds", "Age of the last fsync (-1 before any).", fsyncAge)
	g("bb_wal_recovery_replay_seconds", "Wall time of boot recovery (snapshot decode + journal replay).", float64(ds.RecoveryReplayMs)/1e3)
	c("bb_wal_recovered_records_total", "Journal records replayed at boot.", ds.RecoveredRecords)
	c("bb_wal_append_errors_total", "Journal appends that failed after their mutation applied.", ds.AppendErrors)
}
