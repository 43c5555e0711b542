package serve

import (
	"context"
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
