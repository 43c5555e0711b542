package serve

import (
	"repro/internal/protocol"
	"repro/internal/watch"
)

// watchSample assembles one watchdog sample for the serve tier. The
// max-load checks are armed when the spec's rule has a Bound (the
// adaptive family, threshold, fixed[<b]). The sample reads only the
// shards' published stats rows and takes no shard lock, so a tick
// never stalls traffic. A row is an immutable post-op observation
// taken under its shard's lock (see Stats): a mid-op read is
// impossible by construction, and every row balances its own books.
//
//   - One pass over the rows (Stats.View) feeds the Point and the
//     per-row checks: serve_shard_max on the worst shard, and
//     serve_books. So every Point balances its books, summed row by
//     row.
//
//   - serve_global_max observes the largest max over the rows of that
//     pass against the sharded bound, whose horizon m sums the rows'
//     placements in a second pass, after the first. It is sound.
//     Count every op as done when its row is published: then each
//     row's max is its shard's true max at the instant the first pass
//     read that row. Placements only grow, so the horizon read after
//     every row counts every placement made before each row was read,
//     and the bound grows with its horizon: a later read only loosens
//     it, never fabricates a breach.
//
//   - serve_keyed_max is both tiers' keyed check (AppendKeyedMaxCheck)
//     over the keyed tier's block, assembled entirely under the KeyMap
//     mutex.
func (d *Dispatcher) watchSample() watch.Sample {
	var s watch.Sample
	v := d.stats.View(d.cfg.N)

	// Per-shard checks from the same rows. The worst shard carries the
	// serve_shard_max check; books aggregate exactly.
	var worst watch.Check
	worst.Invariant = "serve_shard_max"
	var booksSkew int64
	for _, row := range v.Shards {
		if skew := row.Balls - (row.Placed - row.Removed); skew != 0 {
			if skew < 0 {
				skew = -skew
			}
			booksSkew += skew
		}
		bins := d.sa.ShardSize(row.Shard)
		bound, ok := protocol.BoundOf(d.rule, bins, row.Placed)
		if ok && (worst.Fields == nil || int64(row.MaxLoad)-bound > worst.Observed-worst.Bound) {
			worst.Observed = int64(row.MaxLoad)
			worst.Bound = bound
			worst.Fields = map[string]int64{
				"shard": int64(row.Shard), "balls": row.Balls,
				"placed": row.Placed, "bins": int64(bins),
			}
		}
	}
	if worst.Fields != nil {
		s.Checks = append(s.Checks, worst)
	}
	s.Checks = append(s.Checks, watch.Check{
		Invariant: "serve_books",
		Observed:  booksSkew,
		Bound:     0,
		Fields: map[string]int64{
			"balls": v.Balls, "placed": v.Placed, "removed": v.Removed,
		},
	})

	ks := d.km.Stats()
	keyedTraffic := ks.AffinityHits+ks.AffinityMisses > 0
	var placed int64 // the horizon: a second pass, after the first
	for shard := range d.cfg.Shards {
		placed += d.stats.ShardRow(shard).Placed
	}
	if bound, ok := protocol.BoundOf(d.rule, d.cfg.N/d.cfg.Shards, protocol.CeilDiv(placed, int64(d.cfg.Shards))); ok && !keyedTraffic {
		// The sharded bound, Bound(⌊n/P⌋, ⌈m/P⌉), is built on
		// round-robin ticket evenness; keyed traffic pins balls to
		// shards by key popularity instead, so the global form is armed
		// only while all traffic is anonymous (the per-shard form above
		// stays armed either way — shard-local acceptance is
		// unconditional).
		s.Checks = append(s.Checks, watch.Check{
			Invariant: "serve_global_max",
			Observed:  int64(v.MaxLoad),
			Bound:     bound,
			Fields:    map[string]int64{"balls": v.Balls, "placed": placed},
		})
	}
	s.Checks = AppendKeyedMaxCheck(s.Checks, "serve_keyed_max", "healthy_shards", &ks)

	s.Point = watch.Point{
		Balls:           v.Balls,
		Placed:          v.Placed,
		Removed:         v.Removed,
		MaxLoad:         v.MaxLoad,
		MinLoad:         v.MinLoad,
		Gap:             v.Gap,
		Psi:             v.Psi,
		AffinityHitRate: ks.AffinityHitRate,
		StageP99Ns:      d.obs.StageP99s(),
	}
	return s
}
