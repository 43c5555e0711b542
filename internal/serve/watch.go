package serve

import (
	"strings"

	"repro/internal/watch"
)

// adaptiveFamily reports whether the spec's acceptance rule gives the
// paper's deterministic max-load bound ("adaptive", "adaptive-noslack"
// — the ⌈m/n⌉+1 family). Greedy/single/memory have no hard bound, and
// the threshold family's bound is already a fixed horizon; only the
// adaptive family is armed for live max-load checks.
func adaptiveFamily(name string) bool { return strings.HasPrefix(name, "adaptive") }

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

// Watch returns the dispatcher's invariant monitor (nil when
// Config.Watch.Disabled).
func (d *Dispatcher) Watch() *watch.Monitor { return d.watch }

// watchSample assembles one watchdog sample for the serve tier. Every
// check reads from a consistency domain that cannot tear mid-op:
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
//   - serve_keyed_max evaluates the keyed tier's block, assembled
//     entirely under the KeyMap mutex; the policy bound is computed
//     under that same hold (keyed.Stats.PolicyBound), so observed and
//     bound describe one instant. One unit of slack covers churn
//     residuals (a key assigned at a high replica count legitimately
//     outlives the count's decline — the same slack the keyed churn
//     tests allow).
func (d *Dispatcher) watchSample() watch.Sample {
	var s watch.Sample
	adaptive := adaptiveFamily(d.sa.Name())

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
		if adaptive {
			bins := int64(d.sa.ShardSize(shard))
			bound := ceilDiv(row.Placed, bins) + 1
			if worst.Fields == nil || int64(row.MaxLoad)-bound > worst.Observed-worst.Bound {
				worst.Observed = int64(row.MaxLoad)
				worst.Bound = bound
				worst.Fields = map[string]int64{
					"shard": int64(shard), "balls": row.Balls,
					"placed": row.Placed, "bins": bins,
				}
			}
		}
	}
	if adaptive && worst.Fields != nil {
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
	if adaptive && !keyedTraffic {
		// The sharded bound ⌈⌈m/P⌉/⌊n/P⌋⌉+1 is built on round-robin
		// ticket evenness; keyed traffic pins balls to shards by key
		// popularity instead, so the global form is armed only while
		// all traffic is anonymous (the per-shard form above stays
		// armed either way — shard-local acceptance is unconditional).
		shards := int64(d.cfg.Shards)
		placed := d.sa.Placed() // monotone: read-after only loosens
		bound := ceilDiv(ceilDiv(placed, shards), int64(d.cfg.N)/shards) + 1
		s.Checks = append(s.Checks, watch.Check{
			Invariant: "serve_global_max",
			Observed:  int64(metrics.MaxLoad),
			Bound:     bound,
			Fields:    map[string]int64{"balls": balls, "placed": placed},
		})
	}
	if ks.PolicyBound > 0 {
		s.Checks = append(s.Checks, watch.Check{
			Invariant: "serve_keyed_max",
			Observed:  ks.MaxKeyLoad,
			Bound:     ks.PolicyBound + 1,
			Fields: map[string]int64{
				"keys": ks.Keys, "replicas": ks.Replicas,
				"healthy_shards": int64(ks.Healthy),
			},
		})
	}

	s.Point = watch.Point{
		Balls:           balls,
		Placed:          viewPlaced,
		Removed:         viewRemoved,
		MaxLoad:         metrics.MaxLoad,
		MinLoad:         metrics.MinLoad,
		Gap:             metrics.Gap,
		Psi:             metrics.Psi,
		AffinityHitRate: ks.AffinityHitRate,
	}
	if sum := d.obs.StageSummaries(); len(sum) > 0 {
		s.Point.StageP99Ns = make(map[string]int64, len(sum))
		for stage, v := range sum {
			s.Point.StageP99Ns[stage] = v.P99Ns
		}
	}
	return s
}
