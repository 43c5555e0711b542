package loadvec

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/rng"
)

// Hist is the histogram-mode counterpart of Vector: it tracks only the
// level-count histogram (how many bins hold each load), not which bin
// holds what. Vector's aggregate queries — ball count, min/max, gap,
// Σℓ², the quadratic potential, LevelCount, CountBelow, Holes — are
// available with identical semantics (the exponential potential is a
// sum over LevelCount), but the working set is O(#levels) instead of
// O(n), so a placement loop over a Hist runs entirely in L1 cache with
// no random memory accesses.
//
// The paper's rejection-sampling protocols are symmetric under bin
// relabeling: their dynamics depend on the load vector only through
// this histogram, and conditioned on the final histogram the
// assignment of loads to bin identities is uniform over all consistent
// assignments. A histogram-only simulation followed by ToVector (which
// draws that uniform assignment) therefore has exactly the load-vector
// distribution of the bin-by-bin process — the fact the fast engine in
// internal/protocol is built on.
type Hist struct {
	n      int
	levels []int64 // levels[ℓ] = number of bins with load exactly ℓ
	below  []int64 // below[ℓ] = number of bins with load < ℓ; len(levels)+1 entries, ends with n
	balls  int64
	sumSq  int64
	min    int32
	max    int32

	// rankHint[q] caches the level of rank q<<rankShift as of the last
	// rebuild (see PlaceBelowBatch). Because bins only move up, below
	// entries only decrease, so a cached level is always a lower bound
	// on the current level of any rank in its block — lookups correct
	// it with a short, purely upward scan. The fixed power-of-two size
	// lets lookups mask the index instead of bounds-checking it.
	rankHint  *[rankHintSize]int32
	rankShift uint
}

// rankHintSize is the rank→level hint table size: small enough to stay
// cache-resident, large enough that one block spans few levels.
const rankHintSize = 4096

// NewHist returns a Hist for n empty bins. It panics if n <= 0.
func NewHist(n int) *Hist {
	if n <= 0 {
		panic("loadvec: NewHist with n <= 0")
	}
	if int64(n) > math.MaxInt32 {
		panic("loadvec: NewHist with n > MaxInt32")
	}
	h := &Hist{
		n:      n,
		levels: make([]int64, 1, 16),
		below:  make([]int64, 2, 17),
	}
	h.levels[0] = int64(n)
	h.below[1] = int64(n)
	return h
}

// N returns the number of bins.
func (h *Hist) N() int { return h.n }

// Balls returns the number of balls placed so far.
func (h *Hist) Balls() int64 { return h.balls }

// MaxLoad returns the current maximum load.
func (h *Hist) MaxLoad() int { return int(h.max) }

// MinLoad returns the current minimum load.
func (h *Hist) MinLoad() int { return int(h.min) }

// Gap returns MaxLoad − MinLoad.
func (h *Hist) Gap() int { return int(h.max - h.min) }

// LevelCount returns how many bins currently hold exactly load ℓ.
func (h *Hist) LevelCount(l int) int64 {
	if l < 0 || l >= len(h.levels) {
		return 0
	}
	return h.levels[l]
}

// CountBelow returns the number of bins with load strictly less than
// x, in O(1).
func (h *Hist) CountBelow(x int) int64 {
	if x <= 0 {
		return 0
	}
	if x >= len(h.below) {
		return int64(h.n)
	}
	return h.below[x]
}

// LevelOfRank maps a rank k (0 ≤ k < n) in the by-level ordering of
// the bins to its load level: ranks [CountBelow(ℓ), CountBelow(ℓ+1))
// belong to level ℓ, exactly as Vector.BinAtRank orders bins. The scan
// runs from the maximum level downward, which is cheapest for the
// top-heavy histograms the acceptance-threshold protocols produce. It
// panics if k is out of range.
func (h *Hist) LevelOfRank(k int64) int {
	if k < 0 || k >= int64(h.n) {
		panic(fmt.Sprintf("loadvec: LevelOfRank(%d) outside [0,%d)", k, h.n))
	}
	for l := int(h.max); ; l-- {
		if k >= h.below[l] {
			return l
		}
	}
}

// IncrementLevel moves one bin from level ℓ to level ℓ+1 — the
// histogram image of placing a ball into a bin with load ℓ. It panics
// if no bin currently holds load ℓ.
func (h *Hist) IncrementLevel(l int) {
	if l < 0 || l >= len(h.levels) || h.levels[l] == 0 {
		panic(fmt.Sprintf("loadvec: IncrementLevel(%d) with no bin at that level", l))
	}
	h.balls++
	h.sumSq += int64(2*l) + 1

	h.levels[l]--
	if l+1 >= len(h.levels) {
		h.levels = append(h.levels, 0)
		h.below = append(h.below, int64(h.n))
	}
	h.levels[l+1]++
	h.below[l+1]--

	if int32(l+1) > h.max {
		h.max = int32(l + 1)
	}
	if int32(l) == h.min && h.levels[l] == 0 {
		m := h.min
		for h.levels[m] == 0 {
			m++
		}
		h.min = m
	}
}

// DecrementLevel moves one bin from level ℓ to level ℓ−1 — the
// histogram image of removing a ball from a bin with load ℓ. It is the
// removal half of the Hist API (IncrementLevel's inverse) for
// level-addressed consumers; the bin-addressed Session.Remove instead
// materializes a Vector, since a bin identity has no meaning in a
// histogram. It panics
// if ℓ < 1 or no bin currently holds load ℓ. Removals invalidate the
// monotonicity assumption behind the rank-hint cache (below entries no
// longer only decrease), which is safe because PlaceBelowBatch rebuilds
// the cache before every chunk it processes.
func (h *Hist) DecrementLevel(l int) {
	if l < 1 || l >= len(h.levels) || h.levels[l] == 0 {
		panic(fmt.Sprintf("loadvec: DecrementLevel(%d) with no bin at that level", l))
	}
	h.balls--
	h.sumSq -= int64(2*l) - 1

	h.levels[l]--
	h.levels[l-1]++
	h.below[l]++

	if int32(l-1) < h.min {
		h.min = int32(l - 1)
	}
	if int32(l) == h.max && h.levels[l] == 0 {
		m := h.max
		for m > 0 && h.levels[m] == 0 {
			m--
		}
		h.max = m
	}
}

// PlaceBelowBatch places count balls one at a time, each by the
// "sample bins u.a.r. until one has load < T" rejection process with a
// constant threshold T, and returns the total number of samples the
// naive loop would have consumed. It is the fused hot loop behind the
// fast engine's stage execution: per ball it needs only the cumulative
// below array (one read for the acceptance count, a short hint-guided
// scan for the accepted level, one decrement to move the bin up), the
// RNG draw is devirtualized when the backing generator is Xoshiro256,
// and the levels histogram and scalar aggregates are resynchronized
// once per batch. Per ball it consumes exactly the distribution of
// (samples, accepted bin level) of the naive loop: the literal
// Bernoulli-trial count when acceptance is likely, the exact Geometric
// sampler when it is rare. It panics if no bin is below T (where the
// naive loop would spin forever). A T larger than any reachable load
// (e.g. math.MaxInt32) turns the loop into the single-choice process.
func (h *Hist) PlaceBelowBatch(r *rng.Rand, count int64, T int) int64 {
	if count <= 0 {
		return 0
	}
	n := int64(h.n)
	un := uint64(h.n)
	below := h.below
	xo, fast := r.Source().(*rng.Xoshiro256)
	var total, sumLevels int64
	minL, maxL := int(h.min), int(h.max)

	// Rank→level lookups go through the quantized hint table: the
	// cached level is a lower bound (below entries only decrease), so
	// one upward scan — rarely more than a step or two — finishes the
	// lookup with a well-predicted branch. The table is rebuilt every
	// n/2 placements (the chunking below) to bound the staleness drift
	// at O(1) expected extra steps.
	rebuildEvery := int64(h.n/2 + 1)
	for done := int64(0); done < count; {
		h.rebuildRankHint()
		tab := h.rankHint
		shift := h.rankShift
		chunk := min(rebuildEvery, count-done)
		done += chunk

		for k := int64(0); k < chunk; k++ {
			tc := T
			if tc > maxL+1 {
				tc = maxL + 1
			}
			cb := below[tc]
			if cb <= 0 {
				panic(fmt.Sprintf("loadvec: PlaceBelowBatch with no bin below %d", T))
			}
			var rank int64
			if 4*cb >= n {
				for {
					total++
					var j int64
					if fast {
						// Lemire attempt with the generator step
						// inlined; the rare lo < n branch (probability
						// n/2⁶⁴) finishes out of line with the exact
						// threshold so the draw stays bias-free.
						hi, lo := bits.Mul64(xo.Uint64(), un)
						if lo < un {
							hi = rng.Uint64nXoshiroFinish(xo, un, hi, lo)
						}
						j = int64(hi)
					} else {
						j = int64(r.Uint64n(un))
					}
					if j < cb {
						rank = j
						break
					}
				}
			} else {
				total += r.Geometric(float64(cb) / float64(n))
				rank = int64(r.Uint64n(uint64(cb)))
			}

			// Map rank to its level: the l with below[l] <= rank < below[l+1].
			l := int(tab[(uint64(rank)>>shift)&(rankHintSize-1)])
			for rank >= below[l+1] {
				l++
			}
			sumLevels += int64(l)

			// Move one bin from level l to l+1.
			below[l+1]--
			if l+1 > maxL {
				maxL = l + 1
				if maxL+2 > len(below) {
					h.below = append(h.below, int64(h.n))
					below = h.below
				}
			}
			if l == minL && below[l+1] == below[l] {
				minL = l + 1
			}
		}
	}
	// Resynchronize the derived representation once per batch.
	h.min, h.max = int32(minL), int32(maxL)
	h.balls += count
	h.sumSq += 2*sumLevels + count
	if len(h.levels) < len(below)-1 {
		h.levels = append(h.levels, make([]int64, len(below)-1-len(h.levels))...)
	}
	for l := range h.levels {
		h.levels[l] = below[l+1] - below[l]
	}
	return total
}

// rebuildRankHint refreshes the quantized rank→level table from the
// current below array: entry q holds the exact level of rank
// q<<rankShift at rebuild time.
func (h *Hist) rebuildRankHint() {
	shift := uint(0)
	for (h.n-1)>>shift >= rankHintSize {
		shift++
	}
	blocks := (h.n-1)>>shift + 1
	if h.rankHint == nil {
		h.rankHint = new([rankHintSize]int32)
	}
	h.rankShift = shift
	l := 0
	for q := 0; q < blocks; q++ {
		rank := int64(q) << shift
		for rank >= h.below[l+1] {
			l++
		}
		h.rankHint[q] = int32(l)
	}
}

// SumSquares returns Σ loads² over all bins.
func (h *Hist) SumSquares() int64 { return h.sumSq }

// QuadraticPotential returns Ψ = Σℓ² − t²/n, exactly as Vector.
func (h *Hist) QuadraticPotential() float64 {
	t := float64(h.balls)
	return float64(h.sumSq) - t*t/float64(h.n)
}

// Holes returns Σ max(0, capacity − ℓᵢ), exactly as Vector.
func (h *Hist) Holes(capacity int) int64 {
	var holes int64
	for l := int(h.min); l < capacity && l < len(h.levels); l++ {
		holes += h.levels[l] * int64(capacity-l)
	}
	return holes
}

// ToVector materializes a full per-bin Vector from the histogram by
// assigning the multiset of loads to bin identities uniformly at
// random (one Fisher–Yates permutation drawn from r). For any
// bin-relabeling-symmetric process this conditional is exactly the law
// of the bin-by-bin simulation given its histogram, so the returned
// Vector is distributed identically to one produced by running the
// naive engine.
func (h *Hist) ToVector(r *rng.Rand) *Vector {
	v := New(h.n)
	// Random permutation of the bins across positions: perm[p] is a
	// uniformly random ordering, and position p gets the p-th smallest
	// load.
	for p := 1; p < h.n; p++ {
		q := r.Intn(p + 1)
		v.perm[p] = v.perm[q]
		v.perm[q] = int32(p)
	}
	p := 0
	for l, c := range h.levels {
		for k := int64(0); k < c; k++ {
			v.loads[v.perm[p]] = int32(l)
			v.pos[v.perm[p]] = int32(p)
			p++
		}
	}
	v.levels = append(v.levels[:0], h.levels...)
	v.starts = v.starts[:0]
	for _, b := range h.below {
		v.starts = append(v.starts, int32(b))
	}
	v.balls = h.balls
	v.sumSq = h.sumSq
	v.min = h.min
	v.max = h.max
	return v
}

// Validate checks every internal invariant against recomputation,
// returning a descriptive error on the first mismatch.
func (h *Hist) Validate() error {
	var bins, balls, sumSq int64
	for l, c := range h.levels {
		if c < 0 {
			return fmt.Errorf("level %d has negative count %d", l, c)
		}
		bins += c
		balls += c * int64(l)
		sumSq += c * int64(l) * int64(l)
	}
	if bins != int64(h.n) {
		return fmt.Errorf("levels sum to %d bins, want %d", bins, h.n)
	}
	if balls != h.balls {
		return fmt.Errorf("balls: have %d want %d", h.balls, balls)
	}
	if sumSq != h.sumSq {
		return fmt.Errorf("sumSq: have %d want %d", h.sumSq, sumSq)
	}
	if len(h.below) != len(h.levels)+1 {
		return fmt.Errorf("below length %d want %d", len(h.below), len(h.levels)+1)
	}
	var cum int64
	for l, c := range h.levels {
		if h.below[l] != cum {
			return fmt.Errorf("below[%d] = %d want %d", l, h.below[l], cum)
		}
		cum += c
	}
	if h.below[len(h.below)-1] != int64(h.n) {
		return fmt.Errorf("below[last] = %d want %d", h.below[len(h.below)-1], h.n)
	}
	min, max := int32(-1), int32(0)
	for l, c := range h.levels {
		if c == 0 {
			continue
		}
		if min < 0 {
			min = int32(l)
		}
		max = int32(l)
	}
	if h.min != min {
		return fmt.Errorf("min: have %d want %d", h.min, min)
	}
	if h.max != max {
		return fmt.Errorf("max: have %d want %d", h.max, max)
	}
	return nil
}

// String returns a compact human-readable description.
func (h *Hist) String() string {
	return fmt.Sprintf("loadhist{n=%d t=%d min=%d max=%d psi=%.1f}",
		h.n, h.balls, h.min, h.max, h.QuadraticPotential())
}
