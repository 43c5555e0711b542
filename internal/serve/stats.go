package serve

import (
	"math"
	"sync/atomic"

	ballsbins "repro"
)

// Stats is the dispatcher's monitoring pipeline: after each operation
// the caller publishes its shard's state — read while it still holds
// the shard lock — as one immutable row behind an atomic pointer, so
// every row a monitor reads is an internally consistent post-op
// observation, and reading costs zero locks and never blocks traffic.
// Different shards' rows may still be a few operations apart in time,
// so a view sums rows of slightly different instants: every row
// balances its own books, and at quiescence the view equals the
// lock-all reads of Dispatcher.Allocator() exactly. Use those when a
// linearizable snapshot is worth stalling every shard for. The
// watchdog reads only these rows (see watchSample).
type Stats struct {
	shards []shardCell
}

// shardCell holds one shard's latest published row. Written only
// under the shard's lock; read by anyone.
type shardCell struct {
	row atomic.Pointer[shardRow]
	_   [56]byte // one cache line per shard
}

// shardRow is an immutable post-op observation of one shard.
type shardRow struct {
	balls, placed, removed, samples, sumSq int64
	maxLoad, minLoad                       int
	ops                                    int64 // lock acquisitions, one request each
}

func newStats(shards int) *Stats {
	return &Stats{shards: make([]shardCell, shards)}
}

// publish refreshes shard s's row from its allocator, counting one
// more request applied under its own lock acquisition. Called with the
// shard lock held; the fresh row is the operation's one allocation.
func (st *Stats) publish(s int, a *ballsbins.Allocator) {
	prev := st.shards[s].row.Load()
	row := &shardRow{
		balls:   a.Balls(),
		placed:  a.Placed(),
		removed: a.Removed(),
		samples: a.Samples(),
		sumSq:   a.SumSquares(),
		maxLoad: a.MaxLoad(),
		minLoad: a.MinLoad(),
		ops:     1,
	}
	if prev != nil {
		row.ops += prev.ops
	}
	st.shards[s].row.Store(row)
}

// ShardStat is one shard's row in a StatsView.
type ShardStat struct {
	Shard   int   `json:"shard"`
	Balls   int64 `json:"balls"`
	Placed  int64 `json:"placed"`
	Removed int64 `json:"removed"`
	Samples int64 `json:"samples"`
	MaxLoad int   `json:"max_load"`
	MinLoad int   `json:"min_load"`
	// Batches counts shard lock acquisitions and Requests the requests
	// they applied (a bulk's chunk is one request). Every request takes
	// its own lock, so the two are equal; both stay because the bbmark
	// benchmark (bench/workloads.go) reads them.
	Batches  int64 `json:"batches"`
	Requests int64 `json:"requests"`
}

// StatsView is a monitoring snapshot assembled from the per-shard
// rows (see Stats for its consistency contract).
type StatsView struct {
	Balls   int64 `json:"balls"`
	Placed  int64 `json:"placed"`
	Removed int64 `json:"removed"`
	Samples int64 `json:"samples"`
	MaxLoad int   `json:"max_load"`
	MinLoad int   `json:"min_load"`
	Gap     int   `json:"gap"`
	// Psi is the quadratic potential combined exactly from the shard
	// rows (Σ sumSq − t²/n over the rows as read).
	Psi float64 `json:"psi"`
	// SamplesPerBall is cumulative samples over cumulative placements.
	SamplesPerBall float64     `json:"samples_per_ball"`
	Shards         []ShardStat `json:"shards"`
}

// ShardRow returns shard s's latest published row alone — the cheap
// single-shard read behind GET /v1/stats?shard= (one atomic load, no
// full-view assembly).
func (st *Stats) ShardRow(s int) ShardStat {
	g := st.shards[s].row.Load()
	if g == nil {
		g = &shardRow{} // nothing published yet: empty shard
	}
	return toShardStat(s, g)
}

func toShardStat(s int, g *shardRow) ShardStat {
	return ShardStat{
		Shard:    s,
		Balls:    g.balls,
		Placed:   g.placed,
		Removed:  g.removed,
		Samples:  g.samples,
		MaxLoad:  g.maxLoad,
		MinLoad:  g.minLoad,
		Batches:  g.ops,
		Requests: g.ops,
	}
}

// View assembles a StatsView for n total bins.
func (st *Stats) View(n int) StatsView {
	v := StatsView{MinLoad: math.MaxInt}
	var sumSq int64
	for s := range st.shards {
		g := st.shards[s].row.Load()
		if g == nil {
			g = &shardRow{} // nothing published yet: empty shard
		}
		v.Shards = append(v.Shards, toShardStat(s, g))
		v.Balls += g.balls
		v.Placed += g.placed
		v.Removed += g.removed
		v.Samples += g.samples
		sumSq += g.sumSq
		if g.maxLoad > v.MaxLoad {
			v.MaxLoad = g.maxLoad
		}
		if g.minLoad < v.MinLoad {
			v.MinLoad = g.minLoad
		}
	}
	if v.MinLoad == math.MaxInt {
		v.MinLoad = 0
	}
	v.Gap = v.MaxLoad - v.MinLoad
	t := float64(v.Balls)
	v.Psi = float64(sumSq) - t*t/float64(n)
	if v.Placed > 0 {
		v.SamplesPerBall = float64(v.Samples) / float64(v.Placed)
	}
	return v
}

// Stats returns the dispatcher's current monitoring view.
func (d *Dispatcher) Stats() StatsView { return d.stats.View(d.cfg.N) }

// ShardStats returns shard s's row of the monitoring view.
func (d *Dispatcher) ShardStats(s int) ShardStat { return d.stats.ShardRow(s) }
