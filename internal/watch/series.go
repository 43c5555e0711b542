package watch

// Point is one time-series sample: the per-window aggregates the
// collector reads from the tier's stats each tick. Fields that a tier
// cannot report (pick staleness on a bbserved, affinity on a tier
// without keyed traffic) stay zero.
type Point struct {
	Seq        int64 `json:"seq"`
	TimeUnixMs int64 `json:"t_ms"`
	Balls      int64 `json:"balls"`
	// Placed/Removed are the cumulative books at sample time; the
	// monitor derives OpsPerSec from their deltas between ticks.
	Placed          int64   `json:"placed"`
	Removed         int64   `json:"removed"`
	MaxLoad         int     `json:"max_load"`
	MinLoad         int     `json:"min_load"`
	Gap             int     `json:"gap"`
	Psi             float64 `json:"psi"`
	OpsPerSec       float64 `json:"ops_per_sec"`
	AffinityHitRate float64 `json:"affinity_hit_rate"`
	// PickStalenessP99Ms is the routing tier's staleness-at-decision
	// p99 (the Benjamini–Makarychev cost-of-stale-views metric), here
	// to be correlated against Gap over the same axis.
	PickStalenessP99Ms int64            `json:"pick_staleness_p99_ms"`
	StageP99Ns         map[string]int64 `json:"stage_p99_ns,omitempty"`
	// Violations is the cumulative violation count at sample time — a
	// step in this series marks exactly when a bound broke.
	Violations int64 `json:"violations_total"`
}
