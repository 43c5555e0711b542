package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

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

// ErrorResponse is the body of every refused place, remove or stats
// request: the answer's text and its code's name.
type ErrorResponse struct {
	Error string    `json:"error"`
	Code  wire.Code `json:"code"`
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

// Tier is one serving tier's dispatch core as the shared front end
// sees it: *Dispatcher (bbserved) and *cluster.Router (bbproxy)
// implement it. Handler serves a Tier over HTTP and the wire protocol,
// and internal/daemon runs one as a process. Everything that differs
// between the tiers comes from these methods.
type Tier interface {
	// N is the tier's global bin count.
	N() int
	// PlaceBalls places count balls or, with a non-empty key, one
	// ball on the key's sticky bin (count is then 1). It returns the
	// global bins and the random choices spent.
	PlaceBalls(ctx context.Context, key string, count int) ([]int, int64, error)
	// RemoveKeyed removes one ball from global bin; a non-empty key
	// releases the ball from the keyed tier's books too.
	RemoveKeyed(ctx context.Context, bin int, key string) error
	// Draining reports whether Close has begun.
	Draining() bool
	// Ready returns why a tier that is not draining still cannot
	// serve (nil when it can); /healthz answers 503 with it.
	Ready() error
	// Obs, Watch, Diag and Durability are the tier's trace recorder,
	// watchdog, flight recorder (nil until BindDiag) and WAL block
	// (nil without a store).
	Obs() *obs.Recorder
	Watch() *watch.Monitor
	Diag() *diag.Recorder
	Durability() *keyed.DurabilityStats
	// BindDiag attaches the flight recorder once it is built.
	BindDiag(rec *diag.Recorder)
	// GatherTrace returns the ops recorded for trace id in every ring
	// the tier can read (every retained op when id is 0) and the rings
	// it read: GET /v1/trace/{id} and the bundles' trace section.
	GatherTrace(ctx context.Context, id uint64) (sources []string, ops []*obs.Op)
	// StatsDoc completes base — the blocks every tier shares, filled
	// by the front end — into the tier's /v1/stats document. q is the
	// HTTP request's query (nil for the wire and the flight recorder);
	// an error is a 400.
	StatsDoc(base StatsResponse, q url.Values) (any, error)
	// WriteMetrics writes the tier's own Prometheus series; the front
	// end adds the durability, wire, watchdog, stage, build and
	// runtime series.
	WriteMetrics(w io.Writer)
	// Routes mounts the tier-only routes next to the shared ones.
	Routes(mux *http.ServeMux, info Info)
	// InternalStatus is the HTTP status of wire.CodeInternal: 500 for
	// a tier's own failure, 502 for a failure it forwards. Every other
	// answer carries its code (a *wire.Error), and HTTP takes the
	// code's status.
	InternalStatus() int
	// Close drains the tier: new calls are refused, admitted ones
	// finish, and a durable tier seals its store.
	Close()
}

// Handler is the front end both daemons share: it serves a Tier over
// HTTP (ServeHTTP) and over the binary protocol (it is the tier's
// wire.Handler), with the same bounds and the same answers on both
// transports: the wire adapter returns the tier's errors unchanged,
// and HTTP answers each with its code's status.
type Handler struct {
	t     Tier
	info  Info
	ws    atomic.Pointer[wire.Server] // nil when wire serving is off
	build obs.BuildInfo
	mux   *http.ServeMux
}

// NewHandler builds the front end over a tier:
//
//	POST /v1/place[?count=k]  place 1 (default) or k balls (507 when full)
//	POST /v1/place?key=K      keyed placement (bulk + key is a 400)
//	POST /v1/remove?bin=i[&key=K]  remove one ball from global bin i
//	GET  /v1/stats            the tier's stats document
//	GET  /v1/trace[/{id}]     retained ops; one trace id assembled
//	GET  /v1/events           invariant watchdog event journal
//	GET  /v1/timeseries       watchdog time series
//	GET  /v1/version          build identity
//	GET  /healthz             200 ok, 503 when draining or not ready
//	GET  /metrics             Prometheus text format
//
// plus the tier's own routes (Tier.Routes). When the process also
// serves the binary protocol, pass the Handler to wire.NewServer and
// call BindServer with the result.
func NewHandler(t Tier, info Info) *Handler {
	h := &Handler{t: t, info: info, build: obs.Build(wire.Version), mux: http.NewServeMux()}
	h.mux.HandleFunc("POST /v1/place", h.place)
	h.mux.HandleFunc("POST /v1/remove", h.remove)
	h.mux.HandleFunc("GET /v1/stats", h.stats)
	h.mux.HandleFunc("GET /v1/trace", h.trace)
	h.mux.HandleFunc("GET /v1/trace/{id}", h.assembledTrace)
	h.mux.HandleFunc("GET /v1/events", h.events)
	h.mux.HandleFunc("GET /v1/timeseries", h.timeseries)
	h.mux.HandleFunc("GET /v1/version", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, h.build)
	})
	h.mux.HandleFunc("GET /healthz", h.healthz)
	h.mux.HandleFunc("GET /metrics", h.metrics)
	t.Routes(h.mux, info)
	return h
}

// NewHandlerWire is NewHandler for a process that also serves the
// binary protocol: the wire server's counters join /v1/stats (wire
// block) and /metrics (bb_wire_* series). ws may be nil.
func NewHandlerWire(t Tier, info Info, ws *wire.Server) *Handler {
	h := NewHandler(t, info)
	h.BindServer(ws)
	return h
}

// NewDispatcherWire is NewHandler for a dispatcher served over the
// binary protocol.
func NewDispatcherWire(d *Dispatcher, info Info) *Handler { return NewHandler(d, info) }

// BindServer attaches the wire.Server whose counters /v1/stats, STATS
// replies and /metrics report (the server needs the handler first,
// hence the late bind).
func (h *Handler) BindServer(ws *wire.Server) { h.ws.Store(ws) }

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.mux.ServeHTTP(w, r) }

// traceCtx threads an upstream X-BB-Trace header into the request
// context so the tier's capture joins the caller's trace.
func traceCtx(r *http.Request) context.Context {
	return obs.WithTrace(r.Context(), obs.ParseTrace(r.Header.Get(obs.Header)))
}

// writeJSON writes v as indented JSON with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// fail answers err with its code's status and an ErrorResponse.
func (h *Handler) fail(w http.ResponseWriter, err error) {
	c := wire.ErrCode(err)
	writeJSON(w, c.Status(h.t.InternalStatus()), ErrorResponse{err.Error(), c})
}

// badRequest is the answer to a malformed request.
func badRequest(format string, args ...any) error {
	return &wire.Error{Code: wire.CodeBadRequest, Msg: fmt.Sprintf(format, args...)}
}

// parseBulkCount validates a /v1/place count query value: empty means
// 1, otherwise an integer in [1, MaxBulkPlace].
func parseBulkCount(s string) (int, error) {
	if s == "" {
		return 1, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < 1 {
		return 0, badRequest("count must be a positive integer, got %q", s)
	}
	if v > MaxBulkPlace {
		return 0, badRequest("count %d exceeds maximum %d", v, MaxBulkPlace)
	}
	return v, nil
}

func (h *Handler) place(w http.ResponseWriter, r *http.Request) {
	count, err := parseBulkCount(r.URL.Query().Get("count"))
	if err != nil {
		h.fail(w, err)
		return
	}
	key := r.URL.Query().Get("key")
	if key != "" && count > 1 {
		// Bulk + affinity is ambiguous: a bulk spreads round-robin
		// across shards, a key pins its shard. Refusing is the only
		// honest answer — silently round-robining a keyed bulk (the
		// pre-keyed behavior) would scatter a key's balls and destroy
		// the affinity contract without telling the caller.
		h.fail(w, badRequest(
			"bulk place (count=%d) cannot carry a key: keyed placement is one ball per request; send count=1 requests for key %q", count, key))
		return
	}
	bins, samples, err := h.t.PlaceBalls(traceCtx(r), key, count)
	if err != nil {
		// A cancelled bulk request may still have committed its balls
		// (admission is the commit point) — the client is gone
		// and cannot read any body, so there is no one to report them
		// to; they remain visible in /v1/stats like every placement.
		h.fail(w, err)
		return
	}
	resp := PlaceResponse{Bin: bins[0], Count: count, Samples: samples, Key: key}
	if count > 1 {
		resp.Bins = bins
	}
	writeJSON(w, http.StatusOK, resp)
}

func (h *Handler) remove(w http.ResponseWriter, r *http.Request) {
	s := r.URL.Query().Get("bin")
	if s == "" {
		h.fail(w, badRequest("missing bin parameter"))
		return
	}
	bin, err := strconv.Atoi(s)
	if err != nil {
		h.fail(w, badRequest("bin must be an integer, got %q", s))
		return
	}
	if err := h.t.RemoveKeyed(traceCtx(r), bin, r.URL.Query().Get("key")); err != nil {
		h.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, RemoveResponse{Bin: bin, Removed: true})
}

// StatsDocument is t's stats document — the body of /v1/stats, of
// wire STATS replies and of an in-process client's stats reads: the
// blocks every tier shares (ws, the wire server whose counters join
// them, may be nil), completed by the tier.
func StatsDocument(t Tier, info Info, ws *wire.Server, q url.Values) (any, error) {
	base := StatsResponse{
		Info:     info,
		Draining: t.Draining(),
		Obs:      t.Obs().StageSummaries(),
		Watch:    t.Watch().StatsBlockDoc(),
		Diag:     t.Diag().StatsDoc(),
	}
	if ws != nil {
		s := ws.Stats()
		base.Wire = &s
	}
	return t.StatsDoc(base, q)
}

func (h *Handler) stats(w http.ResponseWriter, r *http.Request) {
	doc, err := StatsDocument(h.t, h.info, h.ws.Load(), r.URL.Query())
	if err != nil {
		h.fail(w, badRequest("%v", err))
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

// traceDoc is the GET /v1/trace document over ops from the tier's own
// ring, which is also the body of a wire TRACE reply.
func traceDoc(r *obs.Recorder, ops []*obs.Op) obs.TraceResponse {
	if ops == nil {
		ops = []*obs.Op{}
	}
	return obs.TraceResponse{Hop: r.Hop(), Ops: ops}
}

// trace serves the tier's retained-op ring, oldest first: ?min_ns= or
// ?min_ms= keeps the ops at least that slow, ?id= one trace's ops
// (1-16 hex digits).
func (h *Handler) trace(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	minDur, err := parseMinDur(q)
	if err != nil {
		h.fail(w, err)
		return
	}
	rec := h.t.Obs()
	s := q.Get("id")
	if s == "" {
		writeJSON(w, http.StatusOK, traceDoc(rec, rec.Ops(minDur)))
		return
	}
	id := obs.ParseTrace(s)
	if id == 0 {
		h.fail(w, badRequest("id must be 1-16 hex digits"))
		return
	}
	writeJSON(w, http.StatusOK, traceDoc(rec, rec.OpsByTrace(obs.FormatTrace(id))))
}

// parseMinDur reads /v1/trace's slowness filter: min_ns, else min_ms,
// else none.
func parseMinDur(q url.Values) (time.Duration, error) {
	if s := q.Get("min_ns"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil || v < 0 {
			return 0, badRequest("min_ns must be a non-negative integer, got %q", s)
		}
		return time.Duration(v), nil
	}
	if s := q.Get("min_ms"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || v < 0 {
			return 0, badRequest("min_ms must be a non-negative number, got %q", s)
		}
		return time.Duration(v * float64(time.Millisecond)), nil
	}
	return 0, nil
}

// assembledTrace serves one trace id's ops from every ring the tier
// reads (Tier.GatherTrace), with their assembled tree.
func (h *Handler) assembledTrace(w http.ResponseWriter, r *http.Request) {
	id := obs.ParseTrace(r.PathValue("id"))
	if id == 0 {
		h.fail(w, badRequest("trace id must be 1-16 hex digits"))
		return
	}
	sources, ops := h.t.GatherTrace(r.Context(), id)
	writeJSON(w, http.StatusOK, obs.NewAssembledTraceResponse(id, sources, ops))
}

// events serves the watchdog's event journal: ?since=SEQ keeps the
// events after SEQ (incremental tailing), ?type=NAME one type's.
func (h *Handler) events(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	since, err := parseNonNegative(q, "since")
	if err != nil {
		h.fail(w, err)
		return
	}
	typ := watch.EventType(q.Get("type"))
	if typ != "" && !slices.Contains(watch.EventTypes(), typ) {
		h.fail(w, badRequest("unknown event type %q", string(typ)))
		return
	}
	writeJSON(w, http.StatusOK, h.t.Watch().EventsDoc(int64(since), typ))
}

// timeseries serves the watchdog's time series: ?window=N keeps the
// last N points (absent or 0: every retained point).
func (h *Handler) timeseries(w http.ResponseWriter, r *http.Request) {
	window, err := parseNonNegative(r.URL.Query(), "window")
	if err != nil {
		h.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, h.t.Watch().SeriesDoc(window))
}

// parseNonNegative reads query parameter name as a non-negative
// integer; absent is 0.
func parseNonNegative(q url.Values, name string) (int, error) {
	s := q.Get(name)
	if s == "" {
		return 0, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < 0 {
		return 0, badRequest("%s must be a non-negative integer, got %q", name, s)
	}
	return v, nil
}

func (h *Handler) healthz(w http.ResponseWriter, r *http.Request) {
	if h.t.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if err := h.t.Ready(); err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// metrics renders the Prometheus text exposition format: the tier's
// own series, then the series every tier shares.
func (h *Handler) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	h.t.WriteMetrics(w)
	writeDurabilityMetrics(w, h.t.Durability())
	if ws := h.ws.Load(); ws != nil {
		wire.WriteMetrics(w, ws.Stats())
	}
	h.t.Watch().WriteMetrics(w)
	h.t.Obs().WriteStageMetrics(w)
	obs.WriteBuildMetrics(w, h.build)
	obs.WriteRuntimeMetrics(w)
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

// writeDurabilityMetrics renders the keyed tier's WAL block as
// bb_wal_* Prometheus series; a nil block (no -data-dir) writes
// nothing.
func writeDurabilityMetrics(w io.Writer, ds *keyed.DurabilityStats) {
	if ds == nil {
		return
	}
	obs.WriteGauge(w, "bb_wal_log_bytes", "Bytes across live WAL segments.", ds.LogBytes)
	obs.WriteCounter(w, "bb_wal_records_total", "Journal records appended this process lifetime.", ds.Records)
	obs.WriteGauge(w, "bb_wal_records_since_snapshot", "Journal records since the last compacting snapshot.", ds.RecordsSinceSnapshot)
	obs.WriteCounter(w, "bb_wal_snapshots_total", "Compacting snapshots written this process lifetime.", ds.Snapshots)
	fsyncAge := float64(-1)
	if ds.LastFsyncAgeMs >= 0 {
		fsyncAge = float64(ds.LastFsyncAgeMs) / 1e3
	}
	obs.WriteGauge(w, "bb_wal_last_fsync_age_seconds", "Age of the last fsync (-1 before any).", fsyncAge)
	obs.WriteGauge(w, "bb_wal_recovery_replay_seconds", "Wall time of boot recovery (snapshot decode + journal replay).", float64(ds.RecoveryReplayMs)/1e3)
	obs.WriteCounter(w, "bb_wal_recovered_records_total", "Journal records replayed at boot.", ds.RecoveredRecords)
	obs.WriteCounter(w, "bb_wal_append_errors_total", "Journal appends that failed after their mutation applied.", ds.AppendErrors)
}
