package protocol_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/keyed"
	"repro/internal/protocol"
)

// rule is the acceptance-rule shape of a tier's placement policy.
type rule interface {
	Name() string
	Accept(k int, load, i int64) bool
	MaxProbes(k int) int
	Bound(k int, i int64) (int64, bool)
}

// TestRuleTable pins every name each tier's PolicyByName accepts: its
// Name, its probe cap, its defended bound, and its acceptance test
// against the literal integer arithmetic for k in 1..9, load in 0..40
// and i in 0..300. A policy without the rule methods is pinned by name
// alone; its probes are pinned by TestRouterPolicyGolden.
func TestRuleTable(t *testing.T) {
	const d, retries, fixedB, horizon = 3, 5, 7, 100
	live := func(k int, load, i int64) bool { return int64(k)*(load-1) < i }
	horizonTest := func(k int, load, _ int64) bool { return int64(k)*(load-1) < horizon }
	below := func(_ int, load, _ int64) bool { return load < fixedB }
	always := func(int, int64, int64) bool { return true }
	never := func(int, int64, int64) bool { return false }
	probeCap := func(k int) int { return max(4*k, 8) }
	constant := func(c int) func(int) int { return func(int) int { return c } }
	ceil := func(a, b int64) int64 { return (a + b - 1) / b }
	none := func(int, int64) (int64, bool) { return 0, false }
	liveBound := func(k int, i int64) (int64, bool) {
		if k <= 0 {
			return 0, false
		}
		return ceil(i, int64(k)) + 1, true
	}
	horizonBound := func(k int, _ int64) (int64, bool) {
		if k <= 0 {
			return 0, false
		}
		return ceil(horizon, int64(k)) + 1, true
	}
	fixedBound := func(k int, _ int64) (int64, bool) {
		if k <= 0 {
			return 0, false
		}
		return fixedB, true
	}

	type want struct {
		name   string
		accept func(k int, load, i int64) bool
		probes func(k int) int
		bound  func(k int, i int64) (int64, bool)
	}
	clusterCases := map[string]want{
		"single":       {"single", always, constant(1), none},
		"random":       {"single", always, constant(1), none},
		"greedy":       {"greedy[3]", never, constant(d), none},
		"adaptive":     {"adaptive", live, probeCap, liveBound},
		"threshold":    {"threshold[100]", horizonTest, probeCap, horizonBound},
		"boundedretry": {"threshold-retry[5]", live, constant(retries), none},
		"retry":        {"threshold-retry[5]", live, constant(retries), none},
		"fixed":        {"fixed[<7]", below, probeCap, fixedBound},
	}
	keyedCases := map[string]want{
		"hash":         {"hash", always, constant(1), none},
		"affinity":     {"hash", always, constant(1), none},
		"greedy":       {"greedy[3]", never, constant(d), none},
		"greedy4":      {"greedy[4]", never, constant(4), none},
		"adaptive":     {"adaptive", live, probeCap, liveBound},
		"threshold":    {"threshold[100]", horizonTest, probeCap, horizonBound},
		"boundedretry": {"boundedretry[5]", live, constant(retries), none},
		"retry":        {"boundedretry[5]", live, constant(retries), none},
	}

	check := func(tier, in string, p interface{ Name() string }, w want) {
		t.Helper()
		if got := p.Name(); got != w.name {
			t.Errorf("%s %q: Name() = %q want %q", tier, in, got, w.name)
		}
		r, ok := p.(rule)
		if !ok {
			t.Logf("%s %q: no rule methods, pinned by name", tier, in)
			return
		}
		for k := 0; k <= 9; k++ {
			if k > 0 {
				if got, want := r.MaxProbes(k), w.probes(k); got != want {
					t.Errorf("%s %q: MaxProbes(%d) = %d want %d", tier, in, k, got, want)
				}
			}
			for i := int64(0); i <= 300; i++ {
				gb, gok := r.Bound(k, i)
				wb, wok := w.bound(k, i)
				if gb != wb || gok != wok {
					t.Fatalf("%s %q: Bound(%d, %d) = (%d, %v) want (%d, %v)", tier, in, k, i, gb, gok, wb, wok)
				}
				if k == 0 {
					continue
				}
				for load := int64(0); load <= 40; load++ {
					if got, want := r.Accept(k, load, i), w.accept(k, load, i); got != want {
						t.Fatalf("%s %q: Accept(%d, %d, %d) = %v want %v", tier, in, k, load, i, got, want)
					}
				}
			}
		}
	}

	if len(cluster.Policies()) != 7 || len(keyed.Policies()) != 5 {
		t.Fatalf("policy vocabularies changed: cluster %v keyed %v", cluster.Policies(), keyed.Policies())
	}
	for in, w := range clusterCases {
		p, err := cluster.PolicyByName(in, d, retries, fixedB, horizon)
		if err != nil {
			t.Fatalf("cluster %q: %v", in, err)
		}
		check("cluster", in, p, w)
	}
	for in, w := range keyedCases {
		p, err := keyed.PolicyByName(in, d, retries, horizon)
		if err != nil {
			t.Fatalf("keyed %q: %v", in, err)
		}
		check("keyed", in, p, w)
	}
}

// TestPick pins the one BoundedRetry loop on scripted draws over k=4
// bins at live count i=10: a skipped draw costs no probe, the draw
// budget ends the loop, the first bin Accept admits wins, otherwise the
// least loaded bin probed wins (the first minimum), and nothing probed
// returns -1.
func TestPick(t *testing.T) {
	type draw struct {
		bin  int
		load int64
		ok   bool
	}
	skip := draw{}
	probe := func(bin int, load int64) draw { return draw{bin, load, true} }
	for _, tc := range []struct {
		name          string
		rule          protocol.Rule
		budget        int
		draws         []draw
		bin, probes   int
		accepted      bool
		wantDrawsUsed int
	}{
		{"skips cost no probe", protocol.RetryRule("retry", 2), 10,
			[]draw{skip, skip, probe(3, 9), skip, probe(1, 5)}, 1, 2, false, 5},
		{"budget ends the loop", protocol.AdaptiveRule(), 3,
			[]draw{probe(0, 6), skip, skip}, 0, 1, false, 3},
		{"first accept wins", protocol.AdaptiveRule(), 10,
			[]draw{probe(0, 5), probe(2, 2)}, 2, 2, true, 2},
		{"least loaded probed wins", protocol.GreedyRule(3), 10,
			[]draw{probe(0, 4), probe(1, 2), probe(2, 2)}, 1, 3, false, 3},
		{"nothing probed", protocol.AdaptiveRule(), 3,
			[]draw{skip, skip, skip}, -1, 0, false, 3},
		{"no budget", protocol.AdaptiveRule(), 0, nil, -1, 0, false, 0},
	} {
		used := 0
		bin, probes, accepted := protocol.Pick(tc.rule, 4, 10, tc.budget, func() (int, int64, bool) {
			d := tc.draws[used] // past the script: the loop over-drew
			used++
			return d.bin, d.load, d.ok
		})
		if bin != tc.bin || probes != tc.probes || accepted != tc.accepted || used != tc.wantDrawsUsed {
			t.Errorf("%s: Pick = (bin %d, probes %d, accepted %v) after %d draws, want (%d, %d, %v) after %d",
				tc.name, bin, probes, accepted, used, tc.bin, tc.probes, tc.accepted, tc.wantDrawsUsed)
		}
	}
}
