package serve

import (
	"repro/internal/protocol"
	"repro/internal/watch"
)

// watchSample assembles one watchdog sample for the serve tier. The
// max-load checks are armed when the spec's rule has a Bound (the
// adaptive family, threshold, fixed[<b]). Every check reads from a
// consistency domain that cannot tear mid-op:
//
//   - serve_shard_max and serve_books evaluate each shard's published
//     stats row — an immutable post-op observation taken under the
//     shard lock (see Stats), so a mid-op read is impossible by
//     construction: rows only ever show completed operations.
//
//   - serve_global_max evaluates the lock-all MetricsWithBalls path —
//     max load and ball count from a single linearizable acquisition.
//     Its horizon m is the cumulative placement count (read after the
//     lock-all: placements are monotone, so a later read only loosens
//     the bound, never fabricates a breach).
//
//   - serve_keyed_max is both tiers' keyed check (AppendKeyedMaxCheck)
//     over the keyed tier's block, assembled entirely under the KeyMap
//     mutex.
func (d *Dispatcher) watchSample() watch.Sample {
	var s watch.Sample

	// Per-shard checks from the post-op rows. The worst shard
	// carries the serve_shard_max check; books aggregate exactly.
	var worst watch.Check
	worst.Invariant = "serve_shard_max"
	var booksSkew int64
	var viewPlaced, viewRemoved, viewBalls int64
	for shard := 0; shard < d.cfg.Shards; shard++ {
		row := d.stats.ShardRow(shard)
		viewPlaced += row.Placed
		viewRemoved += row.Removed
		viewBalls += row.Balls
		if skew := row.Balls - (row.Placed - row.Removed); skew != 0 {
			if skew < 0 {
				skew = -skew
			}
			booksSkew += skew
		}
		bins := d.sa.ShardSize(shard)
		bound, ok := protocol.BoundOf(d.rule, bins, row.Placed)
		if ok && (worst.Fields == nil || int64(row.MaxLoad)-bound > worst.Observed-worst.Bound) {
			worst.Observed = int64(row.MaxLoad)
			worst.Bound = bound
			worst.Fields = map[string]int64{
				"shard": int64(shard), "balls": row.Balls,
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
			"balls": viewBalls, "placed": viewPlaced, "removed": viewRemoved,
		},
	})

	// The lock-all linearizable pass: the Point's load numbers and the
	// global sharded-composition bound from one acquisition.
	metrics, balls := d.sa.MetricsWithBalls()
	ks := d.km.Stats()
	keyedTraffic := ks.AffinityHits+ks.AffinityMisses > 0
	placed := d.sa.Placed() // monotone: read-after only loosens
	if bound, ok := protocol.BoundOf(d.rule, d.cfg.N/d.cfg.Shards, protocol.CeilDiv(placed, int64(d.cfg.Shards))); ok && !keyedTraffic {
		// The sharded bound, Bound(⌊n/P⌋, ⌈m/P⌉), is built on
		// round-robin ticket evenness; keyed traffic pins balls to
		// shards by key popularity instead, so the global form is armed
		// only while all traffic is anonymous (the per-shard form above
		// stays armed either way — shard-local acceptance is
		// unconditional).
		s.Checks = append(s.Checks, watch.Check{
			Invariant: "serve_global_max",
			Observed:  int64(metrics.MaxLoad),
			Bound:     bound,
			Fields:    map[string]int64{"balls": balls, "placed": placed},
		})
	}
	s.Checks = AppendKeyedMaxCheck(s.Checks, "serve_keyed_max", "healthy_shards", &ks)

	s.Point = watch.Point{
		Balls:           balls,
		Placed:          viewPlaced,
		Removed:         viewRemoved,
		MaxLoad:         metrics.MaxLoad,
		MinLoad:         metrics.MinLoad,
		Gap:             metrics.Gap,
		Psi:             metrics.Psi,
		AffinityHitRate: ks.AffinityHitRate,
		StageP99Ns:      d.obs.StageP99s(),
	}
	return s
}
