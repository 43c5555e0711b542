package load

import "repro/internal/watch"

// GapPoint is one gap_over_time sample in a Result: the compact
// projection of a watch.Point a benchmark record needs to plot balance
// against time (and to spot exactly when a violation fired — the
// cumulative counter steps at that sample).
type GapPoint struct {
	TimeUnixMs int64   `json:"t_ms"`
	Balls      int64   `json:"balls"`
	MaxLoad    int     `json:"max_load"`
	Gap        int     `json:"gap"`
	OpsPerSec  float64 `json:"ops_per_sec"`
	Violations int64   `json:"violations_total"`
}

// gapSeries projects a timeseries document onto the Result columns.
func gapSeries(doc watch.SeriesResponse) []GapPoint {
	out := make([]GapPoint, 0, len(doc.Points))
	for _, p := range doc.Points {
		out = append(out, GapPoint{
			TimeUnixMs: p.TimeUnixMs,
			Balls:      p.Balls,
			MaxLoad:    p.MaxLoad,
			Gap:        p.Gap,
			OpsPerSec:  p.OpsPerSec,
			Violations: p.Violations,
		})
	}
	return out
}
