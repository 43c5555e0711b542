// Package hdrhist provides a fixed-memory, log-bucketed histogram for
// latency-class values (non-negative int64, typically nanoseconds),
// safe for concurrent recording.
//
// The bucket layout is log-linear, in the spirit of HdrHistogram:
// values below 2^subBits land in unit-width buckets (exact), and each
// further power of two is split into 2^subBits equal sub-buckets, so
// the relative quantization error is bounded by 2^-subBits ≈ 3% at
// every magnitude. The whole range [0, 2^62] fits in a fixed array of
// a couple thousand atomic counters, so Record is a single atomic
// increment — no allocation, no locking — and a histogram can sit on
// the hot path of a dispatcher or load generator.
package hdrhist

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

const (
	// subBits controls resolution: 2^subBits sub-buckets per power of
	// two, giving ≤ 1/2^subBits relative error on quantiles.
	subBits = 5
	sub     = 1 << subBits

	// numBuckets covers every non-negative int64: shift ranges over
	// 0..63-1-subBits and each shift contributes `sub` buckets beyond
	// the initial 2*sub unit-ish region. See bucketIdx.
	numBuckets = (64 - subBits) * sub
)

// Hist is a concurrent log-bucketed histogram. The zero value is NOT
// ready to use; call New.
type Hist struct {
	counts [numBuckets]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
	min    atomic.Int64 // stores minus the minimum, so zero means "unset"
}

// New returns an empty histogram.
func New() *Hist {
	h := &Hist{}
	h.min.Store(-1 << 62) // sentinel: no value recorded yet
	return h
}

// bucketIdx maps v ≥ 0 to its bucket. Values in [0, 2*sub) map to
// themselves (shift 0); beyond that, shift = len(v)-1-subBits and the
// index advances by `sub` per shift, tracking the top subBits+1 bits.
func bucketIdx(v int64) int {
	shift := bits.Len64(uint64(v)) - 1 - subBits
	if shift < 0 {
		shift = 0
	}
	return shift*sub + int(v>>uint(shift))
}

// bucketHi returns the largest value mapping to bucket idx — the
// inclusive upper bound reported for quantiles.
func bucketHi(idx int) int64 {
	if idx < 2*sub {
		return int64(idx)
	}
	shift := idx/sub - 1
	return (int64(idx-shift*sub)+1)<<uint(shift) - 1
}

// Record adds one observation. Negative values are clamped to zero.
func (h *Hist) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketIdx(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			break
		}
	}
	for {
		old := h.min.Load()
		if -v <= old || h.min.CompareAndSwap(old, -v) {
			break
		}
	}
}

// RecordSince records the elapsed nanoseconds since t0.
func (h *Hist) RecordSince(t0 time.Time) { h.Record(int64(time.Since(t0))) }

// Count returns the number of observations so far.
func (h *Hist) Count() int64 { return h.count.Load() }

// Reset zeroes the histogram, returning it to the state New produced.
// Like Snapshot, it is not atomic across buckets: a Record racing the
// reset may land wholly before, wholly after, or be split across the
// boundary — acceptable for windowed monitoring, where the window
// edges are approximate anyway.
func (h *Hist) Reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
	h.min.Store(-1 << 62)
}

// SnapshotAndReset captures the current state and zeroes the histogram
// in one call — the windowed-reporting primitive: call it once per
// interval and each snapshot holds that interval's observations, while
// Merge over the sequence of snapshots reproduces the full history
// (see the merge-after-reset tests). Each bucket is collected with an
// atomic swap, so an observation racing the call lands in either the
// returned window or the next one — never both, never lost; only the
// Sum/Max/Min sidecars of a mid-flight Record can straddle the
// boundary (same tolerance as Snapshot).
func (h *Hist) SnapshotAndReset() Snapshot {
	s := Snapshot{
		Sum: h.sum.Swap(0),
		Max: h.max.Swap(0),
		Min: -h.min.Swap(-1 << 62),
	}
	var total int64
	for i := range h.counts {
		c := h.counts[i].Swap(0)
		if c == 0 {
			continue
		}
		total += c
		s.buckets = append(s.buckets, Bucket{
			Lo:    bucketLo(i),
			Hi:    bucketHi(i),
			Count: c,
		})
	}
	s.Count = total
	// Deduct exactly the observations collected, so racing Records keep
	// their count for the next window.
	h.count.Add(-total)
	if total == 0 {
		s.Max, s.Min, s.Sum = 0, 0, 0
	}
	return s
}

// Snapshot captures the current state for analysis. Concurrent Records
// during the copy may straddle the snapshot (it is not atomic across
// buckets); totals are reconciled so the snapshot is self-consistent.
func (h *Hist) Snapshot() Snapshot { return SnapshotOf(h) }

// SnapshotOf captures the union of live histograms in one pass, as if
// every observation had been recorded into one histogram: bucket i of
// the result sums bucket i of each. It allocates what one Snapshot
// does, where Merge over per-histogram snapshots builds each of them
// and then a third. Concurrent Records are tolerated as in Snapshot.
func SnapshotOf(hs ...*Hist) Snapshot {
	s := Snapshot{Min: math.MaxInt64}
	for _, h := range hs {
		s.Sum += h.sum.Load()
		s.Max = max(s.Max, h.max.Load())
		s.Min = min(s.Min, -h.min.Load())
	}
	var total int64
	for i := 0; i < numBuckets; i++ {
		var c int64
		for _, h := range hs {
			c += h.counts[i].Load()
		}
		if c == 0 {
			continue
		}
		total += c
		s.buckets = append(s.buckets, Bucket{
			Lo:    bucketLo(i),
			Hi:    bucketHi(i),
			Count: c,
		})
	}
	s.Count = total
	if total == 0 {
		s.Max, s.Min, s.Sum = 0, 0, 0
	}
	return s
}

func bucketLo(idx int) int64 {
	if idx == 0 {
		return 0
	}
	return bucketHi(idx-1) + 1
}

// Bucket is one non-empty histogram bucket covering [Lo, Hi].
type Bucket struct {
	Lo, Hi int64
	Count  int64
}

// Snapshot is an immutable view of a histogram.
type Snapshot struct {
	Count, Sum, Min, Max int64
	buckets              []Bucket
}

// Buckets returns the non-empty buckets in ascending value order.
func (s Snapshot) Buckets() []Bucket { return s.buckets }

// Mean returns the arithmetic mean, or 0 when empty.
func (s Snapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns an upper bound for the q-quantile (0 ≤ q ≤ 1): the
// upper edge of the bucket containing the ⌈q·count⌉-th smallest
// observation, clamped to the recorded Max. Quantile(0) is Min,
// Quantile(1) is Max; an empty snapshot yields 0.
func (s Snapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		return s.Min
	}
	rank := int64(q*float64(s.Count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var seen int64
	for _, b := range s.buckets {
		seen += b.Count
		if seen >= rank {
			if b.Hi > s.Max {
				return s.Max
			}
			return b.Hi
		}
	}
	return s.Max
}

// Merge returns the combination of two snapshots, as if every
// observation had been recorded into one histogram.
func (s Snapshot) Merge(o Snapshot) Snapshot {
	if s.Count == 0 {
		return o
	}
	if o.Count == 0 {
		return s
	}
	out := Snapshot{
		Count: s.Count + o.Count,
		Sum:   s.Sum + o.Sum,
		Min:   s.Min,
		Max:   s.Max,
	}
	if o.Min < out.Min {
		out.Min = o.Min
	}
	if o.Max > out.Max {
		out.Max = o.Max
	}
	i, j := 0, 0
	for i < len(s.buckets) || j < len(o.buckets) {
		switch {
		case j >= len(o.buckets) || (i < len(s.buckets) && s.buckets[i].Lo < o.buckets[j].Lo):
			out.buckets = append(out.buckets, s.buckets[i])
			i++
		case i >= len(s.buckets) || o.buckets[j].Lo < s.buckets[i].Lo:
			out.buckets = append(out.buckets, o.buckets[j])
			j++
		default: // same bucket
			b := s.buckets[i]
			b.Count += o.buckets[j].Count
			out.buckets = append(out.buckets, b)
			i, j = i+1, j+1
		}
	}
	return out
}
