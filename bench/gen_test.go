package bench

import (
	"bytes"
	"context"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

func streamBytes(cfg StreamConfig, seed uint64, n int) []byte {
	s := NewStream(cfg, seed)
	var out []byte
	for i := 0; i < n; i++ {
		out = s.Next().AppendBinary(out)
	}
	return out
}

// TestStreamDeterministic: one seed gives a byte-identical request
// stream (bulks, keys); another seed gives a different one.
func TestStreamDeterministic(t *testing.T) {
	for _, cfg := range []StreamConfig{
		{BulkMax: 32, BulkS: 1.5},
		{Keys: 4096, KeyS: 1.2, Epoch: 1000, HotShare: 0.3},
	} {
		a, b := streamBytes(cfg, 7, 5000), streamBytes(cfg, 7, 5000)
		if !bytes.Equal(a, b) {
			t.Errorf("%+v: seed 7 gave two different streams", cfg)
		}
		if bytes.Equal(a, streamBytes(cfg, 8, 5000)) {
			t.Errorf("%+v: seeds 7 and 8 gave the same stream", cfg)
		}
	}
}

// stallTarget takes 1 ms per placement, so a test's requests all fit
// in the latency sample, except for the first placement after stall is
// set, which stalls for 50 ms.
type stallTarget struct {
	stall atomic.Bool
	next  atomic.Int64
}

func (s *stallTarget) Place(ctx context.Context, key string, bulk int) ([]int, int64, error) {
	d := time.Millisecond
	if s.stall.CompareAndSwap(true, false) {
		d = 50 * time.Millisecond
	}
	time.Sleep(d)
	bins := make([]int, bulk)
	for i := range bins {
		bins[i] = int(s.next.Add(1))
	}
	return bins, 1, nil
}

func (s *stallTarget) Remove(ctx context.Context, bin int, key string) error { return nil }

// TestClosedLoopBooksAndStall: a closed loop keeps its live balls
// constant, times a stalled request in full, and the stall does not
// move the median.
func TestClosedLoopBooksAndStall(t *testing.T) {
	target := &stallTarget{}
	live := make([]Ball, 100)
	for i := range live {
		live[i] = Ball{Bin: -i}
	}
	loop := &ClosedLoop{Target: target, Stream: StreamConfig{BulkMax: 8, BulkS: 1.5}, Workers: 2, Seed: 1}
	st := loop.Run(live, 10*time.Millisecond, func(func() int64) {
		// Every request begun before the window has long ended by now.
		time.Sleep(10 * time.Millisecond)
		target.stall.Store(true)
		time.Sleep(200 * time.Millisecond)
	})
	if st.Failed != 0 || len(st.Lat) < 50 {
		t.Fatalf("%d requests measured, %d failed", len(st.Lat), st.Failed)
	}
	if len(st.Live) != len(live) || st.Placed != st.Removed {
		t.Errorf("placed %d, removed %d, %d live: want equal counts and %d live", st.Placed, st.Removed, len(st.Live), len(live))
	}
	lat := append([]float64(nil), st.Lat...)
	sort.Float64s(lat)
	if maxLat := lat[len(lat)-1]; maxLat < float64(50*time.Millisecond) {
		t.Errorf("max latency %v: want the 50ms stall in it", time.Duration(maxLat))
	}
	if p50 := quantile(lat, 0.5); p50 > float64(10*time.Millisecond) {
		t.Errorf("median latency %v: one stall should not move it", time.Duration(p50))
	}
}
