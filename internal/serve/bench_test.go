package serve

import (
	"context"
	"sync"
	"testing"

	ballsbins "repro"
	"repro/internal/diag"
	"repro/internal/obs"
)

// benchDispatcher builds the headline single-shard core used by the
// obs-overhead comparison; the allocator itself is O(1) per place, so
// the dispatch path (admission, shard lock, stats row) dominates and
// any tracing cost shows.
func benchDispatcher(b *testing.B, o obs.Options) *Dispatcher {
	b.Helper()
	d := NewDispatcher(Config{
		Spec:   ballsbins.Adaptive(),
		N:      1 << 16,
		Shards: 1,
		Seed:   1,
		Obs:    o,
	})
	b.Cleanup(d.Close)
	return d
}

func benchPlace(b *testing.B, d *Dispatcher) {
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, _, err := d.PlaceMany(ctx, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDispatcherPlace measures the dispatch path, as a one-ball
// PlaceMany, with observability off, on-but-untraced (the production
// default: every op feeds the stage histograms, ~1/1024 is
// materialized into the ring), and fully sampled (every op
// materialized — the worst case, used by tests and smoke jobs, not
// production). The ≤2% untraced-overhead gate compares obs=untraced
// against obs=off.
func BenchmarkDispatcherPlace(b *testing.B) {
	// The single-ball Place path at the production default: a scalar
	// result, so no bins or counts slices — only the stats row
	// allocates.
	b.Run("op=place", func(b *testing.B) {
		d := benchDispatcher(b, obs.Options{})
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, _, err := d.Place(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("obs=off", func(b *testing.B) {
		benchPlace(b, benchDispatcher(b, obs.Options{Disabled: true}))
	})
	b.Run("obs=untraced", func(b *testing.B) {
		benchPlace(b, benchDispatcher(b, obs.Options{}))
	})
	b.Run("obs=sampled", func(b *testing.B) {
		benchPlace(b, benchDispatcher(b, obs.Options{SampleEvery: 1}))
	})
	// The flight recorder is passive until something goes wrong:
	// arming it binds one atomic pointer and a violation hook, nothing
	// per-place, so this mode must match obs=untraced within noise
	// (the ≤2% diag-armed gate, BENCH_diag_<date>.json).
	b.Run("diag=armed", func(b *testing.B) {
		d := benchDispatcher(b, obs.Options{})
		rec, err := diag.New(diag.Options{Dir: b.TempDir(), Hop: "serve"},
			diag.Sources{Monitor: d.Watch(), Obs: d.Obs()})
		if err != nil {
			b.Fatal(err)
		}
		d.BindDiag(rec)
		benchPlace(b, d)
	})
}

// BenchmarkDispatcherChurn is bbmark's serve-churn workload in process:
// 8 shards over 65,536 bins prefilled with 8n balls, and two goroutines
// that each place one ball and then remove their oldest, every call
// under its own trace-tagged ctx (obs at the production default). One
// op is one place plus one remove, so ns/op is wall time per cycle
// with both goroutines running.
func BenchmarkDispatcherChurn(b *testing.B) {
	const n, shards, workers = 1 << 16, 8, 2
	d := NewDispatcher(Config{Spec: ballsbins.Adaptive(), N: n, Shards: shards, Seed: 1})
	b.Cleanup(d.Close)
	ctx := context.Background()
	fifos := make([][]int, workers) // each worker's live balls, oldest first
	for left, i := 8*n, 0; left > 0; {
		bins, _, err := d.PlaceMany(ctx, min(left, MaxBulkPlace))
		if err != nil {
			b.Fatal(err)
		}
		for _, bin := range bins {
			fifos[i%workers] = append(fifos[i%workers], bin)
			i++
		}
		left -= len(bins)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := range workers {
		cycles := b.N / workers
		if w == 0 {
			cycles += b.N % workers
		}
		wg.Add(1)
		go func(q []int, cycles int, trace uint64) {
			defer wg.Done()
			for i := 0; i < cycles; i++ {
				bin, _, err := d.Place(obs.WithTrace(ctx, trace+uint64(2*i)))
				if err != nil {
					b.Error(err)
					return
				}
				j := i % len(q) // q is a ring: slot j holds the oldest ball
				if err := d.Remove(obs.WithTrace(ctx, trace+uint64(2*i+1)), q[j]); err != nil {
					b.Error(err)
					return
				}
				q[j] = bin
			}
		}(fifos[w], cycles, uint64(w+1)<<48)
	}
	wg.Wait()
}
