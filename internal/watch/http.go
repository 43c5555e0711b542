package watch

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// EventsResponse is the body of GET /v1/events.
type EventsResponse struct {
	Hop             string           `json:"hop"`
	ViolationsTotal int64            `json:"violations_total"`
	Violations      map[string]int64 `json:"violations,omitempty"`
	EventCounts     map[string]int64 `json:"event_counts"`
	Events          []Event          `json:"events"`
}

// EventsDoc assembles the /v1/events document (empty doc on nil).
func (m *Monitor) EventsDoc(since int64, typ EventType) EventsResponse {
	resp := EventsResponse{
		Hop:             m.Hop(),
		ViolationsTotal: m.ViolationsTotal(),
		Violations:      m.ViolationCounts(),
		EventCounts:     map[string]int64{},
		Events:          []Event{},
	}
	for t, n := range m.EventCounts() {
		resp.EventCounts[string(t)] = n
	}
	for _, ev := range m.Events(since) {
		if typ != "" && ev.Type != typ {
			continue
		}
		resp.Events = append(resp.Events, ev)
	}
	return resp
}

// SeriesResponse is the body of GET /v1/timeseries.
type SeriesResponse struct {
	Hop             string  `json:"hop"`
	CadenceMs       int64   `json:"cadence_ms"`
	ViolationsTotal int64   `json:"violations_total"`
	Points          []Point `json:"points"`
}

// SeriesDoc assembles the /v1/timeseries document: the last window
// points (window<=0: everything retained). Empty doc on nil.
func (m *Monitor) SeriesDoc(window int) SeriesResponse {
	points := m.Series(window)
	if points == nil {
		points = []Point{}
	}
	return SeriesResponse{
		Hop:             m.Hop(),
		CadenceMs:       m.Cadence().Milliseconds(),
		ViolationsTotal: m.ViolationsTotal(),
		Points:          points,
	}
}

// WriteMetrics renders the watchdog's Prometheus series: the
// per-invariant violation counters and the per-type event counters.
// Shared by bbserved and bbproxy so the series cannot drift between
// tiers; a nil monitor writes nothing.
func (m *Monitor) WriteMetrics(w io.Writer) {
	if m == nil {
		return
	}
	fmt.Fprintf(w, "# HELP bb_invariant_violations_total Paper-bound violations detected by the watchdog.\n# TYPE bb_invariant_violations_total counter\n")
	for inv, n := range m.ViolationCounts() {
		fmt.Fprintf(w, "bb_invariant_violations_total{invariant=%q} %d\n", inv, n)
	}
	fmt.Fprintf(w, "# HELP bb_event_total Watchdog journal events by type.\n# TYPE bb_event_total counter\n")
	for _, t := range EventTypes() {
		fmt.Fprintf(w, "bb_event_total{type=%q} %d\n", string(t), m.EventCounts()[t])
	}
}

// StatsBlock is the watch summary embedded in both tiers' /v1/stats
// documents (jq-friendly: violations without scraping /metrics).
type StatsBlock struct {
	ViolationsTotal int64 `json:"violations_total"`
	EventsTotal     int64 `json:"events_total"`
	LastEventSeq    int64 `json:"last_event_seq"`
	CadenceMs       int64 `json:"cadence_ms"`
}

// StatsBlockDoc returns the stats-embedded summary, nil on a nil
// monitor (the block is omitted when the watchdog is off).
func (m *Monitor) StatsBlockDoc() *StatsBlock {
	if m == nil {
		return nil
	}
	var events int64
	for _, n := range m.EventCounts() {
		events += n
	}
	return &StatsBlock{
		ViolationsTotal: m.ViolationsTotal(),
		EventsTotal:     events,
		LastEventSeq:    m.LastSeq(),
		CadenceMs:       m.Cadence().Milliseconds(),
	}
}

// OverrideHandler serves POST /debug/watch/override — the out-of-
// process face of OverrideBound, mounted on the daemons' debug
// listeners (never the public API). The CI smoke test posts
// invariant=NAME&bound=-1 to force a deterministic violation through
// the real watchdog → flight-recorder path; bound may be any int64,
// and posting without clear resets nothing (use clear=1 to remove the
// override). A nil monitor answers 503.
func OverrideHandler(m *Monitor) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if m == nil {
			http.Error(w, "watchdog disabled", http.StatusServiceUnavailable)
			return
		}
		inv := r.URL.Query().Get("invariant")
		if inv == "" {
			httpError(w, "missing invariant parameter")
			return
		}
		if r.URL.Query().Get("clear") != "" {
			m.ClearOverride(inv)
			httpJSON(w, map[string]any{"invariant": inv, "cleared": true})
			return
		}
		s := r.URL.Query().Get("bound")
		bound, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			httpError(w, "bound must be an integer, got %q", s)
			return
		}
		m.OverrideBound(inv, bound)
		httpJSON(w, map[string]any{"invariant": inv, "bound": bound})
	}
}

// httpJSON/httpError answer OverrideHandler's requests without
// importing internal/serve (watch sits below both tiers in the package
// graph).
func httpJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusBadRequest)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
