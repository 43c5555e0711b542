package cluster

import (
	"math"
	"time"

	"repro/internal/keyed"
	"repro/internal/serve"
)

// BackendRow is one backend's row in the aggregated cluster stats.
type BackendRow struct {
	Slot int    `json:"slot"`
	Name string `json:"name"`
	Up   bool   `json:"up"`
	// Balls is the LoadView estimate (polled + local delta) — the value
	// the routing policies actually see.
	Balls int64 `json:"balls"`
	// PolledBalls and AgeMs describe the last successful stats poll;
	// AgeMs is -1 when the backend has never been polled.
	PolledBalls int64   `json:"polled_balls"`
	Delta       int64   `json:"delta"`
	AgeMs       int64   `json:"age_ms"`
	MaxLoad     int     `json:"max_load"`
	MinLoad     int     `json:"min_load"`
	Placed      int64   `json:"placed"`
	Removed     int64   `json:"removed"`
	Samples     int64   `json:"samples"`
	Psi         float64 `json:"psi"`
}

// Stats is the aggregated cross-backend view the proxy exposes: the
// routing tier's own counters plus per-backend rows. Load aggregates
// (MaxLoad, Gap, BackendGap) cover healthy backends only — an evicted
// backend's balls are unreachable and its stats frozen.
type Stats struct {
	Policy   string `json:"policy"`
	Backends int    `json:"backends"`
	Healthy  int    `json:"healthy"`
	BinsPer  int    `json:"bins_per_backend"`

	// Balls is the estimated live total across healthy backends.
	Balls int64 `json:"balls"`
	// MaxBackendBalls/MinBackendBalls/BackendGap describe the
	// cross-backend ball distribution — the quantity the routing
	// policies balance (the cluster-level max load and gap, in the
	// balls-into-bins sense where backends are the bins).
	MaxBackendBalls int64 `json:"max_backend_balls"`
	MinBackendBalls int64 `json:"min_backend_balls"`
	BackendGap      int64 `json:"backend_gap"`
	// MaxLoad and Gap descend into bins: the maximum single-bin load
	// across healthy backends, and max − min across all their bins
	// (from the last polls).
	MaxLoad int `json:"max_load"`
	Gap     int `json:"gap"`

	// Picks counts routing decisions; Probes the load-view probes they
	// consumed (ProbesPerPick is the routing analogue of the paper's
	// samples per ball); Failovers the placements retried on another
	// backend after an error.
	Picks         int64   `json:"picks"`
	Probes        int64   `json:"probes"`
	ProbesPerPick float64 `json:"probes_per_pick"`
	// Fallbacks counts picks whose acceptance loop exhausted its probe
	// cap (the chosen backend never passed the acceptance test).
	Fallbacks int64 `json:"fallbacks"`
	Failovers int64 `json:"failovers"`
	Evictions int64 `json:"evictions"`
	Rejoins   int64 `json:"rejoins"`

	// Keyed is the keyed placement tier's block (key→backend
	// affinity), present when the router runs one.
	Keyed *keyed.Stats `json:"keyed,omitempty"`

	// Durability is the keyed tier's WAL block, present when the
	// router persists its assignments (-data-dir).
	Durability *keyed.DurabilityStats `json:"durability,omitempty"`

	Rows []BackendRow `json:"rows"`
}

// Stats assembles the aggregated cluster view. It reads only local
// state (the LoadView and counters) — no backend round-trips — so it
// is as stale as the view itself.
func (rt *Router) Stats() Stats {
	st := Stats{
		Policy:          rt.policy.Name(),
		Backends:        rt.ms.Size(),
		BinsPer:         rt.n,
		MinBackendBalls: math.MaxInt64,
		Picks:           rt.picks.Load(),
		Probes:          rt.probes.Load(),
		Fallbacks:       rt.fallbacks.Load(),
		Failovers:       rt.failovers.Load(),
		Evictions:       rt.ms.Evictions(),
		Rejoins:         rt.ms.Rejoins(),
	}
	if st.Picks > 0 {
		st.ProbesPerPick = float64(st.Probes) / float64(st.Picks)
	}
	if km := rt.Keyed(); km != nil {
		ks := km.Stats()
		st.Keyed = &ks
	}
	st.Durability = rt.Durability()
	for slot := 0; slot < rt.ms.Size(); slot++ {
		p, load, delta := rt.view.read(slot)
		row := BackendRow{
			Slot:  slot,
			Name:  rt.ms.Backend(slot).Name(),
			Up:    rt.ms.IsUp(slot),
			Balls: load,
			Delta: delta,
			AgeMs: -1,
		}
		if p != nil {
			row.PolledBalls = p.st.Balls
			row.AgeMs = time.Since(p.at).Milliseconds()
			row.MaxLoad = p.st.MaxLoad
			row.MinLoad = p.st.MinLoad
			row.Placed = p.st.Placed
			row.Removed = p.st.Removed
			row.Samples = p.st.Samples
			row.Psi = p.st.Psi
		}
		st.Rows = append(st.Rows, row)
		if !row.Up {
			continue
		}
		st.Healthy++
		st.Balls += row.Balls
		if row.Balls > st.MaxBackendBalls {
			st.MaxBackendBalls = row.Balls
		}
		if row.Balls < st.MinBackendBalls {
			st.MinBackendBalls = row.Balls
		}
	}
	if st.Healthy == 0 {
		st.MinBackendBalls = 0
	}
	st.BackendGap = st.MaxBackendBalls - st.MinBackendBalls
	v := st.View()
	st.MaxLoad, st.Gap = v.MaxLoad, v.Gap
	return st
}

// View flattens the cluster stats into the serve monitoring shape, so
// load generators built for a single bbserved can read the proxy
// unmodified: backends appear as pseudo-shards, and the aggregate
// counters sum the healthy backends' last polled stats (plus local
// deltas for Balls). Psi is the sum of backend-local potentials — an
// approximation, since the cross-backend mean is not each backend's
// mean. Deriving the view from an already-assembled Stats keeps the
// two blocks of one /v1/stats response internally consistent (a
// single aggregation pass, not two racing ones).
func (cs Stats) View() serve.StatsView {
	v := serve.StatsView{MinLoad: math.MaxInt}
	for _, row := range cs.Rows {
		if row.Up {
			v.Balls += row.Balls
			v.Placed += row.Placed
			v.Removed += row.Removed
			v.Samples += row.Samples
			v.Psi += row.Psi
			if row.AgeMs >= 0 {
				if row.MaxLoad > v.MaxLoad {
					v.MaxLoad = row.MaxLoad
				}
				if row.MinLoad < v.MinLoad {
					v.MinLoad = row.MinLoad
				}
			}
		}
		v.Shards = append(v.Shards, serve.ShardStat{
			Shard:   row.Slot,
			Balls:   row.Balls,
			Placed:  row.Placed,
			Removed: row.Removed,
			Samples: row.Samples,
			MaxLoad: row.MaxLoad,
			MinLoad: row.MinLoad,
		})
	}
	if v.MinLoad == math.MaxInt {
		v.MinLoad = 0
	}
	v.Gap = v.MaxLoad - v.MinLoad
	if v.Placed > 0 {
		v.SamplesPerBall = float64(v.Samples) / float64(v.Placed)
	}
	return v
}
