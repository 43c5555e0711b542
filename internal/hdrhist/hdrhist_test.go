package hdrhist

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// TestBucketRoundTrip pins the log-linear layout: every bucket's
// bounds map back to the bucket, bounds tile the value axis without
// gaps, and the relative width respects the 2^-subBits error bound.
func TestBucketRoundTrip(t *testing.T) {
	prevHi := int64(-1)
	for idx := 0; idx < numBuckets; idx++ {
		lo, hi := bucketLo(idx), bucketHi(idx)
		if lo != prevHi+1 {
			t.Fatalf("bucket %d: lo %d, want %d (gap)", idx, lo, prevHi+1)
		}
		if bucketIdx(lo) != idx || bucketIdx(hi) != idx {
			t.Fatalf("bucket %d: [%d,%d] maps to %d,%d",
				idx, lo, hi, bucketIdx(lo), bucketIdx(hi))
		}
		if lo >= 2*sub && float64(hi-lo+1) > float64(lo)/float64(sub)+1 {
			t.Fatalf("bucket %d too wide: [%d,%d]", idx, lo, hi)
		}
		prevHi = hi
		if hi >= 1<<62 {
			break
		}
	}
}

func TestQuantileExactSmall(t *testing.T) {
	h := New()
	for v := int64(1); v <= 100; v++ {
		h.Record(v * 10)
	}
	s := h.Snapshot()
	if s.Count != 100 || s.Min != 10 || s.Max != 1000 {
		t.Fatalf("count/min/max = %d/%d/%d", s.Count, s.Min, s.Max)
	}
	if m := s.Mean(); m != 505 {
		t.Fatalf("mean = %v", m)
	}
	// The bucketed quantile may overshoot by one bucket width (~3%).
	for _, tc := range []struct {
		q    float64
		want int64
	}{{0, 10}, {0.5, 500}, {0.99, 990}, {1, 1000}} {
		got := s.Quantile(tc.q)
		if got < tc.want || float64(got) > float64(tc.want)*1.07+1 {
			t.Errorf("Quantile(%v) = %d, want ≈%d", tc.q, got, tc.want)
		}
	}
}

// TestQuantileAccuracy compares against the exact empirical quantile
// on lognormal-ish data: the bucketed answer must bound it from above
// within the layout's relative error.
func TestQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := New()
	var vals []int64
	for i := 0; i < 200000; i++ {
		v := int64(rng.ExpFloat64() * 1e6)
		vals = append(vals, v)
		h.Record(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	s := h.Snapshot()
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := vals[int(q*float64(len(vals)))-1]
		got := s.Quantile(q)
		lo := float64(exact) * (1 - 2.0/sub)
		hi := float64(exact)*(1+2.0/sub) + 1
		if float64(got) < lo || float64(got) > hi {
			t.Errorf("Quantile(%v) = %d, exact %d (want within ±%.0f%%)",
				q, got, exact, 200.0/sub)
		}
	}
}

func TestEmptyAndNegative(t *testing.T) {
	h := New()
	s := h.Snapshot()
	if s.Count != 0 || s.Quantile(0.5) != 0 || s.Mean() != 0 || s.Min != 0 || s.Max != 0 {
		t.Fatalf("empty snapshot: %+v", s)
	}
	h.Record(-5) // clamps to 0
	s = h.Snapshot()
	if s.Count != 1 || s.Min != 0 || s.Max != 0 || s.Quantile(1) != 0 {
		t.Fatalf("negative clamp: %+v", s)
	}
}

func TestMerge(t *testing.T) {
	a, b := New(), New()
	for v := int64(0); v < 1000; v++ {
		a.Record(v)
		b.Record(v + 500)
	}
	m := a.Snapshot().Merge(b.Snapshot())
	if m.Count != 2000 || m.Min != 0 || m.Max != 1499 {
		t.Fatalf("merge: %+v", m)
	}
	all := New()
	for v := int64(0); v < 1000; v++ {
		all.Record(v)
		all.Record(v + 500)
	}
	want := all.Snapshot()
	if m.Sum != want.Sum {
		t.Fatalf("merge sum %d want %d", m.Sum, want.Sum)
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		if m.Quantile(q) != want.Quantile(q) {
			t.Errorf("merge Quantile(%v) = %d, combined-histogram %d",
				q, m.Quantile(q), want.Quantile(q))
		}
	}
	empty := New().Snapshot()
	if got := empty.Merge(want); got.Count != want.Count {
		t.Fatalf("empty.Merge lost data")
	}
	if got := want.Merge(empty); got.Count != want.Count {
		t.Fatalf("Merge(empty) lost data")
	}
}

// TestMergeAfterReset pins the windowed-reporting contract: recording
// in intervals punctuated by SnapshotAndReset and merging the window
// snapshots reproduces the one-histogram view of the full history —
// counts, sum, min/max and every quantile.
func TestMergeAfterReset(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h, all := New(), New()
	var windows []Snapshot
	for w := 0; w < 5; w++ {
		for i := 0; i < 20000; i++ {
			v := int64(rng.ExpFloat64() * float64(uint64(1)<<uint(10+3*w)))
			h.Record(v)
			all.Record(v)
		}
		s := h.SnapshotAndReset()
		if s.Count != 20000 {
			t.Fatalf("window %d count %d want 20000", w, s.Count)
		}
		windows = append(windows, s)
	}
	if c := h.Count(); c != 0 {
		t.Fatalf("count %d after final reset, want 0", c)
	}
	if s := h.Snapshot(); s.Count != 0 || s.Sum != 0 || s.Max != 0 {
		t.Fatalf("non-empty snapshot after reset: %+v", s)
	}

	merged := windows[0]
	for _, w := range windows[1:] {
		merged = merged.Merge(w)
	}
	want := all.Snapshot()
	if merged.Count != want.Count || merged.Sum != want.Sum ||
		merged.Min != want.Min || merged.Max != want.Max {
		t.Fatalf("merged %+v, full-history %+v", merged, want)
	}
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 0.999, 1} {
		if merged.Quantile(q) != want.Quantile(q) {
			t.Errorf("Quantile(%v): merged %d, full-history %d",
				q, merged.Quantile(q), want.Quantile(q))
		}
	}

	// Recording after a reset starts a fresh window (min/max included).
	h.Record(42)
	s := h.Snapshot()
	if s.Count != 1 || s.Min != 42 || s.Max != 42 {
		t.Fatalf("post-reset window: %+v", s)
	}
}

// TestSnapshotAndResetConcurrent interleaves windowed collection with
// concurrent recorders: with -race this is the windowing concurrency
// test, and no observation may be lost or double-counted across
// windows.
func TestSnapshotAndResetConcurrent(t *testing.T) {
	const workers, perWorker = 8, 5000
	h := New()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				h.Record(int64(rng.Intn(1 << 30)))
			}
		}(w)
	}
	var total int64
	stop := make(chan struct{})
	var collector sync.WaitGroup
	collector.Add(1)
	go func() {
		defer collector.Done()
		for {
			select {
			case <-stop:
				return
			default:
				total += h.SnapshotAndReset().Count
			}
		}
	}()
	wg.Wait()
	close(stop)
	collector.Wait()
	total += h.Snapshot().Count // the final, uncollected window
	if total != workers*perWorker {
		t.Fatalf("windows sum to %d observations, want %d", total, workers*perWorker)
	}
}

// TestConcurrentRecord hammers Record from many goroutines; run with
// -race this is the concurrency acceptance test, and the totals must
// balance exactly.
func TestConcurrentRecord(t *testing.T) {
	const workers, perWorker = 8, 5000
	h := New()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				h.Record(int64(rng.Intn(1 << 30)))
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*perWorker {
		t.Fatalf("count %d want %d", s.Count, workers*perWorker)
	}
	var total int64
	for _, b := range s.Buckets() {
		total += b.Count
	}
	if total != s.Count {
		t.Fatalf("bucket sum %d != count %d", total, s.Count)
	}
}

// TestSnapshotOfEqualsMerge checks the one-pass union against the
// two-snapshot Merge it replaces, on random quiescent data: the same
// count, sum, min, max and buckets, including when either side is
// empty.
func TestSnapshotOfEqualsMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		a, b := New(), New()
		for _, h := range []*Hist{a, b} {
			scale := float64(int64(1) << uint(rng.Intn(30)))
			for i, n := 0, rng.Intn(3)*rng.Intn(5000); i < n; i++ {
				h.Record(int64(rng.ExpFloat64() * scale))
			}
		}
		got, want := SnapshotOf(a, b), a.Snapshot().Merge(b.Snapshot())
		if got.Count != want.Count || got.Sum != want.Sum || got.Min != want.Min || got.Max != want.Max ||
			fmt.Sprint(got.Buckets()) != fmt.Sprint(want.Buckets()) {
			t.Fatalf("trial %d: SnapshotOf = %+v, Merge = %+v", trial, got, want)
		}
	}
	if s := SnapshotOf(); s.Count != 0 || s.Min != 0 || s.Max != 0 {
		t.Fatalf("SnapshotOf() = %+v, want empty", s)
	}
}

// TestSnapshotOfConcurrent reads the union of two histograms while
// goroutines record into both: with -race this is its concurrency
// test. Every snapshot must be self-consistent (its buckets sum to its
// count), counts never go backwards, and the final union holds every
// record.
func TestSnapshotOfConcurrent(t *testing.T) {
	const workers, perWorker = 4, 5000
	a, b := New(), New()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			h := []*Hist{a, b}[w%2]
			for i := 0; i < perWorker; i++ {
				h.Record(int64(rng.Intn(1 << 30)))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var last int64
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		s := SnapshotOf(a, b)
		var total int64
		for _, bk := range s.Buckets() {
			total += bk.Count
		}
		if total != s.Count || s.Count < last {
			t.Fatalf("snapshot count %d, buckets sum %d, previous count %d", s.Count, total, last)
		}
		last = s.Count
	}
	if s := SnapshotOf(a, b); s.Count != workers*perWorker {
		t.Fatalf("final union count %d, want %d", s.Count, workers*perWorker)
	}
}
