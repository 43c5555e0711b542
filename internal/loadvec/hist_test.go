package loadvec

import (
	"testing"

	"repro/internal/rng"
)

// mirrorVector applies the same level moves to a Vector and a Hist and
// checks every shared aggregate agrees.
func checkHistMirrorsVector(t *testing.T, h *Hist, v *Vector) {
	t.Helper()
	if h.N() != v.N() || h.Balls() != v.Balls() ||
		h.MaxLoad() != v.MaxLoad() || h.MinLoad() != v.MinLoad() ||
		h.Gap() != v.Gap() || h.SumSquares() != v.SumSquares() {
		t.Fatalf("aggregates diverge: %v vs %v", h, v)
	}
	for l := -1; l <= h.MaxLoad()+2; l++ {
		if h.LevelCount(l) != v.LevelCount(l) {
			t.Fatalf("LevelCount(%d): %d vs %d", l, h.LevelCount(l), v.LevelCount(l))
		}
		if h.CountBelow(l) != v.CountBelow(l) {
			t.Fatalf("CountBelow(%d): %d vs %d", l, h.CountBelow(l), v.CountBelow(l))
		}
	}
	if hp, vp := h.QuadraticPotential(), v.QuadraticPotential(); hp != vp {
		t.Fatalf("Psi: %v vs %v", hp, vp)
	}
	for c := 0; c <= h.MaxLoad()+1; c++ {
		if h.Holes(c) != v.Holes(c) {
			t.Fatalf("Holes(%d): %d vs %d", c, h.Holes(c), v.Holes(c))
		}
	}
}

func TestHistMirrorsVector(t *testing.T) {
	const n = 13
	h := NewHist(n)
	v := New(n)
	r := rng.New(5)
	checkHistMirrorsVector(t, h, v)
	for i := 0; i < 500; i++ {
		// Pick a uniform bin via the vector, mirror its level into the
		// histogram.
		bin := r.Intn(n)
		l := v.Load(bin)
		v.Increment(bin)
		h.IncrementLevel(l)
		checkHistMirrorsVector(t, h, v)
		if err := h.Validate(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}

func TestHistLevelOfRankPartition(t *testing.T) {
	h := NewHist(9)
	for _, l := range []int{0, 0, 0, 1, 1, 0, 2, 0, 1} {
		h.IncrementLevel(l)
	}
	// Ranks must enumerate levels in non-decreasing order with the
	// right multiplicities.
	prev := -1
	counts := map[int]int64{}
	for k := int64(0); k < 9; k++ {
		l := h.LevelOfRank(k)
		if l < prev {
			t.Fatalf("rank %d level %d below previous %d", k, l, prev)
		}
		prev = l
		counts[l]++
	}
	for l, c := range counts {
		if h.LevelCount(l) != c {
			t.Fatalf("level %d: rank multiplicity %d vs count %d", l, c, h.LevelCount(l))
		}
	}
}

func TestHistToVectorConsistent(t *testing.T) {
	const n = 40
	h := NewHist(n)
	r := rng.New(11)
	h.PlaceBelowBatch(r, 5*n, 6)
	v := h.ToVector(r)
	if err := v.Validate(); err != nil {
		t.Fatalf("materialized vector invalid: %v", err)
	}
	checkHistMirrorsVector(t, h, v)
}

func TestHistToVectorAssignsUniformly(t *testing.T) {
	// With one bin at level 1 and the rest at 0, the loaded bin's
	// identity must be uniform across materializations.
	const n = 8
	const reps = 8000
	counts := make([]int64, n)
	r := rng.New(3)
	for rep := 0; rep < reps; rep++ {
		h := NewHist(n)
		h.IncrementLevel(0)
		v := h.ToVector(r)
		for i := 0; i < n; i++ {
			if v.Load(i) == 1 {
				counts[i]++
			}
		}
	}
	for i, c := range counts {
		// 4-sigma band around reps/n.
		mean := float64(reps) / n
		if d := float64(c) - mean; d > 4*35 || d < -4*35 {
			t.Fatalf("bin %d got the ball %d times, want ~%.0f", i, c, mean)
		}
	}
}

func TestHistPlaceBelowBatchPanicsWithoutOpenBin(t *testing.T) {
	h := NewHist(2)
	h.IncrementLevel(0)
	h.IncrementLevel(0) // both bins at load 1
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for T=1 with no empty bin")
		}
	}()
	h.PlaceBelowBatch(rng.New(1), 1, 1)
}

func TestHistGenericSourceFallback(t *testing.T) {
	// A non-xoshiro source must take the generic draw path and still
	// satisfy every invariant.
	src := rng.NewPCG32(7, 11)
	r := rng.NewWith(src, 7)
	h := NewHist(32)
	h.PlaceBelowBatch(r, 320, 11)
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if h.Balls() != 320 {
		t.Fatalf("balls = %d", h.Balls())
	}
}

// FuzzHistMirrorsVector drives a Hist and a mirror Vector with the
// same deterministic tape (each byte selects a bin; the hist mirrors
// that bin's level) and checks the full shared-aggregate set plus
// materialization after every tape.
func FuzzHistMirrorsVector(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4})
	f.Add([]byte{7, 7, 7, 7, 9})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, tape []byte) {
		const n = 11
		h := NewHist(n)
		v := New(n)
		for _, op := range tape {
			bin := int(op) % n
			l := v.Load(bin)
			v.Increment(bin)
			h.IncrementLevel(l)
		}
		if err := h.Validate(); err != nil {
			t.Fatalf("hist invalid after %d ops: %v", len(tape), err)
		}
		if err := v.Validate(); err != nil {
			t.Fatalf("vector invalid after %d ops: %v", len(tape), err)
		}
		checkHistMirrorsVector(t, h, v)
		mv := h.ToVector(rng.New(1))
		if err := mv.Validate(); err != nil {
			t.Fatalf("materialized vector invalid: %v", err)
		}
		checkHistMirrorsVector(t, h, mv)
	})
}

// FuzzHistPlaceBelowBatch interleaves deterministic level bumps with
// randomized PlaceBelowBatch bursts and validates every maintained
// invariant, the ball accounting, and that placements respected the
// threshold (no level T or above may gain bins from a below-T batch).
func FuzzHistPlaceBelowBatch(f *testing.F) {
	f.Add([]byte{0x83, 4, 0x90, 0x81})
	f.Add([]byte{7, 0xFF, 7, 0x80})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, tape []byte) {
		const n = 11
		h := NewHist(n)
		r := rng.New(99)
		for _, op := range tape {
			if op&0x80 != 0 {
				T := int(op&0x3F)%(h.MaxLoad()+2) + 1
				cb := h.CountBelow(T)
				if cb == 0 {
					continue
				}
				count := int64(op>>6&1) + 1 // 1 or 2 balls
				if count > cb {
					count = 1
				}
				before := h.Balls()
				maxBefore := h.MaxLoad()
				samples := h.PlaceBelowBatch(r, count, T)
				if samples < count {
					t.Fatalf("batch of %d reported %d samples", count, samples)
				}
				if h.Balls() != before+count {
					t.Fatalf("batch of %d moved balls %d -> %d", count, before, h.Balls())
				}
				if h.MaxLoad() > max(maxBefore, T) || h.MaxLoad() < maxBefore {
					t.Fatalf("batch below %d pushed max to %d (was %d)", T, h.MaxLoad(), maxBefore)
				}
			} else {
				l := int(op & 0x3F)
				if h.LevelCount(l) == 0 {
					continue
				}
				h.IncrementLevel(l)
			}
			if err := h.Validate(); err != nil {
				t.Fatalf("hist invalid: %v", err)
			}
		}
		mv := h.ToVector(r)
		if err := mv.Validate(); err != nil {
			t.Fatalf("materialized vector invalid: %v", err)
		}
		checkHistMirrorsVector(t, h, mv)
	})
}
