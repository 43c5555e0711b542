// Package bench is the repository's end-to-end benchmark (bbmark): four
// seeded workloads that drive the serving stack from the outside, the
// same public constructors the daemons use, and report a fixed set of
// end-to-end metrics, per-layer span/counter metrics from a separate
// traced run, and a cost ladder of single public functions timed in
// isolation. See README.md for the workloads, metrics and bounds.
package bench

import (
	"math"
	"sort"
)

// Metric describes one reported number: its unit, which direction is
// better, and (end-to-end metrics only) the share of the parent's
// median by which it may worsen before a change counts as a regression.
type Metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// Workloads lists the workload names in run order.
var Workloads = []string{"sim", "serve-churn", "cluster-wire", "keyed-http"}

// EndToEnd is the end-to-end metric table. Every workload reports every
// metric; none is ever 0 (see README.md for each one's per-workload
// meaning). Bounds come from the calibration runs recorded in README.md.
var EndToEnd = []Metric{
	{"setup_s", "s", "lower", 0.25},
	{"req_p50_us", "us", "lower", 0.25},
	{"cpu_ns_per_op", "ns", "lower", 0.25},
	{"alloc_bytes_per_op", "B", "lower", 0.05},
	{"allocs_per_op", "count", "lower", 0.05},
	{"heap_live_mb", "MB", "lower", 0.1},
	{"samples_per_ball", "count", "lower", 0.05},
	{"load_var", "psi/bin", "lower", 0.25},
}

// spanLayers are the layers a request's blocking path is split into.
// A layer absent from a workload's path reports a share of 0.
var spanLayers = []string{
	"engine", "serve_dispatch", "wire_front_hop", "http_front_hop", "proxy_self", "wire_backend_hop",
}

// counterMetrics are the per-layer counters, taken as deltas of public
// Stats over the measured window (0 where the layer is not used), then
// the runtime's GC share and the client's whole-window rate and p90.
// The last two move with the host's stalls far more than the median
// does, so they carry no bound.
var counterMetrics = []Metric{
	{Name: "serve.combining_factor", Unit: "ratio", Better: "higher"},
	{Name: "serve.queue_share", Unit: "frac", Better: "lower"},
	{Name: "cluster.probes_per_pick", Unit: "ratio", Better: "lower"},
	{Name: "cluster.fallbacks", Unit: "count", Better: "lower"},
	{Name: "cluster.pick_staleness_p99_frac", Unit: "frac", Better: "lower"},
	{Name: "wire.client_coalescing", Unit: "ratio", Better: "higher"},
	{Name: "wire.client_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "wire.server_reqs_per_write", Unit: "ratio", Better: "higher"},
	{Name: "keyed.hit_rate", Unit: "frac", Better: "higher"},
	{Name: "keyed.probes_per_miss", Unit: "ratio", Better: "lower"},
	{Name: "keyed.keys_moved", Unit: "count", Better: "lower"},
	{Name: "keyed.hot_keys", Unit: "count", Better: "lower"},
	{Name: "wal.appends_per_op", Unit: "ratio", Better: "lower"},
	{Name: "wal.snapshots", Unit: "count", Better: "lower"},
	{Name: "go.gc_cpu_frac", Unit: "frac", Better: "lower"},
	{Name: "client.ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "client.req_p90_us", Unit: "us", Better: "lower"},
}

// PerLayer is the per-layer metric table: span shares, counters, and
// the cost ladder's rungs. These carry no bound.
var PerLayer = buildPerLayer()

func buildPerLayer() []Metric {
	ms := []Metric{
		{Name: "span.client_p50_us", Unit: "us", Better: "lower"},
		{Name: "span.client_p99_us", Unit: "us", Better: "lower"},
		{Name: "span.p50_sum_ratio", Unit: "ratio", Better: "lower"},
		{Name: "trace.overhead_frac", Unit: "frac", Better: "lower"},
	}
	for _, l := range spanLayers {
		ms = append(ms,
			Metric{Name: "span." + l + ".p50_frac", Unit: "frac", Better: "lower"},
			Metric{Name: "span." + l + ".p99_frac", Unit: "frac", Better: "lower"})
	}
	ms = append(ms, counterMetrics...)
	for _, r := range ladder {
		ms = append(ms,
			Metric{Name: "rung." + r.name + ".ns", Unit: "ns", Better: "lower"},
			Metric{Name: "rung." + r.name + ".allocs", Unit: "count", Better: "lower"},
			Metric{Name: "rung." + r.name + ".bytes", Unit: "B", Better: "lower"})
		if r.parent != "" {
			ms = append(ms, Metric{Name: "rung." + r.name + ".tax_ns", Unit: "ns", Better: "lower"})
		}
	}
	return ms
}

// metricByName finds name in EndToEnd then PerLayer.
func metricByName(name string) (Metric, bool) {
	for _, tab := range [][]Metric{EndToEnd, PerLayer} {
		for _, m := range tab {
			if m.Name == name {
				return m, true
			}
		}
	}
	return Metric{}, false
}

// Check is one correctness check of a run.
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// Result is one workload run.
type Result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     bool               `json:"trace"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Checks    []Check            `json:"checks"`
	Metrics   map[string]float64 `json:"metrics"`
	// SelfTime is the traced run's per-layer self-time table (µs at the
	// p50 and p99 bands), keyed by layer.
	SelfTime map[string][2]float64 `json:"self_time,omitempty"`
}

// Correct reports whether every check passed.
func (r *Result) Correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

func (r *Result) check(name string, ok bool, detail string) {
	r.Checks = append(r.Checks, Check{Name: name, OK: ok, Detail: detail})
}

// quantile returns the q-quantile of sorted xs by linear interpolation
// between closest ranks (0 for an empty slice).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// median sorts a copy of xs and returns its median.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
