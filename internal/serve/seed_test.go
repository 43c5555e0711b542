package serve

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"

	ballsbins "repro"
)

// seedScriptDigest is the digest of runSeedScript's transcript, as
// recorded when each op was still handed to a per-shard combiner
// goroutine. Running ops in the caller's goroutine must not change a
// single bin, sample count or error of a single-goroutine sequence.
const seedScriptDigest = "16fe2433a420b761"

// runSeedScript drives one scripted single-goroutine sequence through
// a 60-bin, 7-shard dispatcher and returns the FNV-1a digest of every
// returned bin, sample count and error, in call order.
func runSeedScript(t *testing.T) (digest string, d *Dispatcher) {
	t.Helper()
	d = NewDispatcher(Config{Spec: ballsbins.Adaptive(), N: 60, Shards: 7, Seed: 7})
	t.Cleanup(d.Close)
	ctx := context.Background()
	h := fnv.New64a()
	note := func(op string, bins []int, samples int64, err error) {
		fmt.Fprintf(h, "%s %v %d %v\n", op, bins, samples, err)
	}
	var live []int
	place := func() {
		bin, samples, err := d.Place(ctx)
		note("place", []int{bin}, samples, err)
		live = append(live, bin)
	}
	remove := func(bin int) {
		note("remove", []int{bin}, 0, d.Remove(ctx, bin))
	}

	// A lone ball, removed twice: the second removal finds its bin empty.
	place()
	remove(live[0])
	remove(live[0])
	live = live[:0]
	for i := 0; i < 40; i++ {
		place()
	}
	// Bulks whose 7-way splits leave every remainder from 1 to 6, then
	// one whose every chunk holds at least 1024 balls.
	for _, k := range []int{1, 3, 6, 10, 12, 100, 7*1024 + 3} {
		bins, samples, err := d.PlaceMany(ctx, k)
		note("place-many", bins, samples, err)
		live = append(live, bins...)
	}
	// Ten keys: a miss each, then two rounds of hits.
	type keyedBall struct {
		bin int
		key string
	}
	var keyedBalls []keyedBall
	for round := 0; round < 3; round++ {
		for i := 0; i < 10; i++ {
			key := fmt.Sprintf("key-%d", i)
			bin, samples, err := d.PlaceKeyed(ctx, key)
			note("place-keyed "+key, []int{bin}, samples, err)
			keyedBalls = append(keyedBalls, keyedBall{bin, key})
		}
	}
	for _, b := range live[:30] {
		remove(b)
	}
	for _, kb := range keyedBalls[:15] {
		note("remove-keyed "+kb.key, []int{kb.bin}, 0, d.RemoveKeyed(ctx, kb.bin, kb.key))
	}
	for i := 0; i < 20; i++ {
		place()
	}
	return fmt.Sprintf("%016x", h.Sum64()), d
}

// TestDispatcherSeedForSeed pins a single-goroutine op sequence to
// the transcript it produced before dispatch ran inline: same seed,
// same bins, samples and errors.
func TestDispatcherSeedForSeed(t *testing.T) {
	got, d := runSeedScript(t)
	if got != seedScriptDigest {
		t.Fatalf("seed script digest = %s, want %s", got, seedScriptDigest)
	}
	ks := d.KeyedStats()
	if ks.AffinityMisses != 10 || ks.AffinityHits != 20 {
		t.Fatalf("keyed hits/misses = %d/%d, want 20/10", ks.AffinityHits, ks.AffinityMisses)
	}
}
