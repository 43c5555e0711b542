package cluster

import (
	"repro/internal/serve"
	"repro/internal/watch"
)

// watchSample assembles one watchdog sample for the cluster tier. The
// time-series point comes from one rt.Stats() aggregation pass and its
// View; the cross-backend bound check reads the view's per-slot
// counters instead (the balls this router placed and removed, exact at
// operation completion) — the polled estimate has transient double-
// and under-count windows around refreshes (an op noted after a poll
// already captured it is counted twice until the next refresh), which
// would fabricate violations.
//
// The cross-backend bound needs care on four axes:
//
//   - Horizon. The paper's ⌈i/K⌉+1 is stated for insertions, and live
//     ball counts are not monotone — a ball placed legitimately at a
//     high horizon persists while others drain, so checking against
//     the current live total would fabricate violations during removal
//     phases. The horizon is Σ cumulative placements from the counters,
//     which is monotone and read after the per-slot live loads, so
//     concurrent traffic can only raise the bound relative to what was
//     observed, never lower it.
//
//   - Bulk slack. One accepted pick lands the whole bulk on the chosen
//     backend; acceptance admitted the backend below the policy's
//     Bound before the bulk, so the provable form is
//     Bound(K, i)−1+maxBulk (the paper's ⌈i/K⌉+1 exactly when every
//     pick carries one ball). The slack here is 2·maxBulk: the
//     acceptance test itself runs against the stale view, whose error
//     around a refresh is bounded by the in-flight bulk it double- or
//     under-counts.
//
//   - Membership. The bound assumes a fixed K: an eviction strands the
//     survivors' mass (placed when K was larger), and a rejoin can
//     return a backend empty while its peers are full — both make the
//     current-K form unsound. The check is therefore armed only while
//     the membership has never churned (zero evictions); the kill
//     scenarios keep their own invariants (rebalance accounting, zero
//     phantom violations) through the event journal instead.
//
//   - Fallback picks. The acceptance loop carries a probe cap for
//     termination; a pick that exhausts it takes the least-loaded
//     probe, which never passed the acceptance test — so the bound is
//     disarmed once any pick has fallen back (cs.Fallbacks counts
//     them in /v1/stats).
//
// It is also armed only for a policy whose Rule has a Bound (adaptive,
// threshold[m], fixed[<b]) and with no keyed traffic: keyed routing
// pins balls to backends by key popularity (bounded per key, not per
// pick), so the anonymous-pick evenness the bound rests on does not
// apply.
func (rt *Router) watchSample() watch.Sample {
	cs := rt.Stats()
	var s watch.Sample

	keyedTraffic := cs.Keyed != nil && cs.Keyed.AffinityHits+cs.Keyed.AffinityMisses > 0
	if _, ok := rt.policy.Bound(cs.Healthy, 0); ok && !keyedTraffic && cs.Evictions == 0 && cs.Fallbacks == 0 {
		// Read order matters: per-slot placed before removed (a torn
		// read under-states the live count), and the horizon pass after
		// the observed pass (concurrent placements can only raise the
		// bound, never shrink it under the observation).
		cells := rt.view.cells
		var observed int64
		for slot := range cells {
			if rt.ms.IsUp(slot) {
				observed = max(observed, cells[slot].net())
			}
		}
		var horizon int64
		for slot := range cells {
			if rt.ms.IsUp(slot) {
				horizon += cells[slot].placed.Load()
			}
		}
		maxBulk := rt.maxBulk.Load()
		if maxBulk < 1 {
			maxBulk = 1
		}
		slack := 2 * maxBulk
		bound, _ := rt.policy.Bound(cs.Healthy, horizon)
		s.Checks = append(s.Checks, watch.Check{
			Invariant: "cluster_backend_max",
			Observed:  observed,
			Bound:     bound - 1 + slack,
			Fields: map[string]int64{
				"balls": cs.Balls, "horizon": horizon,
				"healthy": int64(cs.Healthy), "bulk_slack": slack,
			},
		})
	}
	s.Checks = serve.AppendKeyedMaxCheck(s.Checks, "cluster_keyed_max", "healthy_backends", cs.Keyed)

	v := cs.View()
	s.Point = watch.Point{
		Balls:              v.Balls,
		Placed:             v.Placed,
		Removed:            v.Removed,
		MaxLoad:            v.MaxLoad,
		MinLoad:            v.MinLoad,
		Gap:                v.Gap,
		Psi:                v.Psi,
		PickStalenessP99Ms: rt.pickStaleness.Snapshot().Quantile(0.99),
		StageP99Ns:         rt.Obs().StageP99s(),
	}
	if cs.Keyed != nil {
		s.Point.AffinityHitRate = cs.Keyed.AffinityHitRate
	}
	return s
}
