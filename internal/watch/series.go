package watch

import (
	"sort"
	"sync/atomic"
)

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

// series is the fixed-width time-series ring: single writer (the
// collector), lock-free concurrent readers — the same atomic-pointer
// ring as the event journal.
type series struct {
	slots  []atomic.Pointer[Point]
	cursor atomic.Uint64
	seq    atomic.Int64
}

func newSeries(n int) *series {
	return &series{slots: make([]atomic.Pointer[Point], n)}
}

func (s *series) add(p *Point) {
	p.Seq = s.seq.Add(1)
	i := (s.cursor.Add(1) - 1) % uint64(len(s.slots))
	s.slots[i].Store(p)
}

// last snapshots the newest n points, oldest first (n<=0: all).
func (s *series) last(n int) []Point {
	out := make([]Point, 0, len(s.slots))
	for i := range s.slots {
		if p := s.slots[i].Load(); p != nil {
			out = append(out, *p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}
