package protocol

import (
	"testing"

	"repro/internal/rng"
)

// FuzzMaxLoadInvariant checks the paper's deterministic guarantee on
// arbitrary (n, m, seed) triples for both headline protocols, plus the
// internal consistency of the final vector.
func FuzzMaxLoadInvariant(f *testing.F) {
	f.Add(uint16(10), uint16(100), uint64(1))
	f.Add(uint16(1), uint16(1), uint64(0))
	f.Add(uint16(128), uint16(0), uint64(42))
	f.Fuzz(func(t *testing.T, nRaw, mRaw uint16, seed uint64) {
		n := 1 + int(nRaw%256)
		m := int64(mRaw % 4096)
		bound := int(MaxLoadBound(n, m))
		for _, fac := range []Factory{
			func() Protocol { return NewAdaptive() },
			func() Protocol { return NewThreshold() },
			func() Protocol { return NewStaleAdaptive(1 + int64(seed%uint64(n))) },
		} {
			out := Run(fac(), n, m, rng.New(seed))
			if out.Vector.Balls() != m {
				t.Fatalf("placed %d of %d", out.Vector.Balls(), m)
			}
			if out.Vector.MaxLoad() > bound {
				t.Fatalf("max load %d exceeds %d", out.Vector.MaxLoad(), bound)
			}
			if err := out.Vector.Validate(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// FuzzRuleBound checks the serving tiers' acceptance rules on
// arbitrary (k, load, i, seed): Accepts is the literal integer test,
// and a sequential run of each rule that defends a bound, sampling
// uniform bins over an exact view until Accept admits one, never
// exceeds Bound(k, i) at any prefix.
func FuzzRuleBound(f *testing.F) {
	f.Add(uint8(4), uint16(7), uint16(30), uint64(1))
	f.Add(uint8(0), uint16(0), uint16(0), uint64(0))
	f.Add(uint8(63), uint16(1), uint16(2047), uint64(42))
	f.Fuzz(func(t *testing.T, kRaw uint8, loadRaw, iRaw uint16, seed uint64) {
		k := 1 + int(kRaw%64)
		load, i := int64(loadRaw), int64(iRaw)
		if got, want := Accepts(k, load, i), int64(k)*(load-1) < i; got != want {
			t.Fatalf("Accepts(%d, %d, %d) = %v want %v", k, load, i, got, want)
		}
		m := 1 + i%2048
		b := 1 + load%16
		for _, run := range []struct {
			rule  Rule
			balls int64
		}{
			{AdaptiveRule(), m},
			{ThresholdRule(m), m},
			{FixedRule(b), min(m, int64(k)*b)}, // the fixed rule's capacity
		} {
			rule, balls := run.rule, run.balls
			loads := make([]int64, k)
			r := rng.New(seed)
			var maxLoad int64
			for ball := int64(1); ball <= balls; ball++ {
				j := r.Intn(k)
				for draws := 1; !rule.Accept(k, loads[j], ball); draws++ {
					if draws > 1<<20 {
						t.Fatalf("%s: ball %d of %d found no accepting bin", rule.Name(), ball, balls)
					}
					j = r.Intn(k)
				}
				loads[j]++
				maxLoad = max(maxLoad, loads[j])
				bound, ok := rule.Bound(k, ball)
				if !ok || maxLoad > bound {
					t.Fatalf("%s: max load %d after ball %d over %d bins, bound (%d, %v)",
						rule.Name(), maxLoad, ball, k, bound, ok)
				}
			}
		}
	})
}

// FuzzPick runs Pick over arbitrary rules, bin counts, live counts and
// budgets, drawing uniform bins of which a seeded subset is skipped:
// Pick never returns a skipped or unprobed bin, never probes more than
// MaxProbes or draws more than its budget, reports accepted only for a
// bin Accept admits, and otherwise returns the least loaded bin probed
// after no probe was admitted.
func FuzzPick(f *testing.F) {
	f.Add(uint8(2), uint8(4), int64(10), uint16(40), uint64(1))
	f.Add(uint8(0), uint8(0), int64(0), uint16(0), uint64(7))
	f.Add(uint8(5), uint8(15), int64(300), uint16(3), uint64(42))
	f.Fuzz(func(t *testing.T, kind, kRaw uint8, i int64, budget uint16, seed uint64) {
		rules := []Rule{FirstRule("single"), GreedyRule(2), AdaptiveRule(), ThresholdRule(100), RetryRule("retry", 3), FixedRule(5)}
		r := rules[int(kind)%len(rules)]
		k := 1 + int(kRaw%16)
		g := rng.New(seed)
		skipped, loads := make([]bool, k), make([]int64, k)
		for b := range loads {
			skipped[b], loads[b] = g.Intn(3) == 0, int64(g.Intn(12))
		}
		probed := make([]bool, k)
		admitted := false
		draws, oks := 0, 0
		bin, probes, accepted := Pick(r, k, i, int(budget), func() (int, int64, bool) {
			draws++
			b := g.Intn(k)
			if skipped[b] {
				return b, 0, false
			}
			oks++
			probed[b] = true
			admitted = admitted || r.Accept(k, loads[b], i)
			return b, loads[b], true
		})
		if draws > int(budget) || probes != oks || probes > r.MaxProbes(k) {
			t.Fatalf("%s: %d draws (budget %d), %d probes of %d probed draws (MaxProbes %d)",
				r.Name(), draws, budget, probes, oks, r.MaxProbes(k))
		}
		if bin < 0 {
			if probes != 0 || accepted {
				t.Fatalf("%s: bin -1 after %d probes, accepted %v", r.Name(), probes, accepted)
			}
			return
		}
		if bin >= k || skipped[bin] || !probed[bin] {
			t.Fatalf("%s: returned bin %d, which was skipped or never probed", r.Name(), bin)
		}
		if accepted != admitted || accepted && !r.Accept(k, loads[bin], i) {
			t.Fatalf("%s: accepted %v for bin %d at load %d, i %d (some probe admitted: %v)",
				r.Name(), accepted, bin, loads[bin], i, admitted)
		}
		for b := range probed {
			if !accepted && probed[b] && loads[b] < loads[bin] {
				t.Fatalf("%s: fallback bin %d at load %d, but probed bin %d holds %d", r.Name(), bin, loads[bin], b, loads[b])
			}
		}
	})
}
