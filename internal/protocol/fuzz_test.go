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
