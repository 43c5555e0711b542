// Package serve is the network-serving layer over the ballsbins
// allocator core: a dispatcher that applies concurrent Place/Remove
// callers' operations to a ShardedAllocator, a lock-free stats
// pipeline for monitoring reads, and the front end both daemons
// share. Handler serves any Tier — this package's Dispatcher or
// cluster's Router — over HTTP and the wire protocol, with one error
// mapping: the tier maps an error to its wire.Code, and the HTTP
// status follows from the code.
//
// # Dispatch core
//
// Every operation runs in its caller's goroutine. A caller's Place
// round-robins a ticket (the allocator's own cursor, so dispatcher
// traffic and direct allocator traffic share one arrival order), then
// takes the ticketed shard's lock via WithShardLocked, places its ball
// and publishes the shard's stats row before unlocking. A removal
// locks the shard owning its bin; a keyed placement locks its key's
// shard. A bulk takes each shard's lock once for all the balls
// ticketed to it, and a chunk of fanOutChunk balls or more runs on a
// helper goroutine so a large bulk keeps every core busy. There is no
// queue, hand-off or per-shard goroutine: with one caller an op costs
// one uncontended lock, and concurrent callers on different shards
// never meet.
//
// Admission is the commit point: ctx is consulted once, before any
// round-robin ticket is claimed; a call past admission executes in
// full even if the caller's context is cancelled meanwhile, and Close
// waits for every admitted call to return before sealing anything. So
// a caller that got a bin really owns a ball, a caller that got an
// error knows nothing happened, and the per-shard evenness of the
// ticket cursor (which the sharded max-load bound is built on) can
// never be skewed by abandoned operations.
package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	ballsbins "repro"
	"repro/internal/diag"
	"repro/internal/hdrhist"
	"repro/internal/keyed"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/watch"
)

// ErrDraining is returned by Place/Remove once Close has begun: the
// dispatcher no longer admits new calls (it is waiting out the ones
// already admitted).
var ErrDraining = errors.New("serve: dispatcher draining")

// ErrEmptyBin is returned by Remove when the target bin holds no
// balls at execution time.
var ErrEmptyBin = errors.New("serve: remove from empty bin")

// ErrKeyedUnsupported is returned by PlaceKeyed for specs whose
// termination relies on round-robin shard evenness: the threshold
// family splits its horizon per shard as ceil(m/P) and FixedThreshold
// carries an absolute bound, so pinning a popular key's balls to one
// shard could push that shard past its acceptance bound and spin its
// placement loop forever under the shard lock. Keyed traffic needs a
// fully online spec (the adaptive family, greedy, single, ...), whose
// acceptance bound tracks the shard's own load.
var ErrKeyedUnsupported = errors.New(
	"serve: spec cannot serve keyed traffic (shard-pinned placement would break its per-shard acceptance bound); use an online spec such as adaptive")

// fanOutChunk is the smallest bulk chunk (balls ticketed to one shard
// by one PlaceMany) that runs on a helper goroutine instead of the
// caller's. Large bulks, such as prefilling a big table, then keep
// every core busy, while the small bulks of live traffic never pay
// for a goroutine start.
const fanOutChunk = 1024

// Config describes a dispatcher. Spec and N are required.
type Config struct {
	Spec   ballsbins.Spec
	N      int // total bins
	Shards int // default 1
	Seed   uint64
	Engine ballsbins.Engine
	// Horizon forwards ballsbins.WithHorizon for specs that need the
	// total ball count (threshold family).
	Horizon int64
	// Keyed tunes the keyed placement tier (internal/keyed) mapping
	// keys to shards; Bins and, when zero, Policy (adaptive) and Seed
	// (derived from Seed) are filled in by the dispatcher. nil uses
	// all defaults.
	Keyed *keyed.Config
	// KeyedStore, when non-nil, persists the keyed tier to a WAL
	// directory (see keyed.OpenStore): OpenDispatcher recovers the
	// exact pre-crash key→shard assignment before returning, and
	// Close writes a final compacting snapshot.
	KeyedStore *keyed.StoreOptions
	// Obs tunes the observability recorder behind /v1/trace and the
	// bb_stage_* series (hop defaults to "serve"); zero values take the
	// obs defaults. Set Obs.Disabled to run without recording.
	Obs obs.Options
	// Watch tunes the invariant watchdog + time-series collector behind
	// /v1/events and /v1/timeseries (see internal/watch); zero values
	// take the watch defaults. Set Watch.Disabled to run without one.
	Watch watch.Options
}

// Dispatcher is the serving front-end over a ShardedAllocator.
// Construct with NewDispatcher; all methods are safe for concurrent
// use.
type Dispatcher struct {
	sa      *ballsbins.ShardedAllocator
	cfg     Config
	stats   *Stats
	km      *keyed.KeyMap                 // key → shard affinity (keyed placements)
	store   *keyed.Store                  // nil unless Config.KeyedStore was set
	keyedOK bool                          // spec terminates under shard-pinned traffic
	obs     *obs.Recorder                 // stage decomposition + slow-op ring (nilable)
	watch   *watch.Monitor                // invariant watchdog + time series (nilable)
	diag    atomic.Pointer[diag.Recorder] // flight recorder, bound late (nilable)
	// drainMu is held shared for the whole of every admitted call and
	// exclusively by Close once draining is set, so Close returns only
	// after every admitted call has. (A WaitGroup would not do: its
	// counter legally hits zero mid-drain while admitted callers keep
	// arriving, and Add-from-zero concurrent with Wait panics.)
	drainMu  sync.RWMutex
	draining atomic.Bool
}

// NewDispatcher builds the sharded allocator and its keyed tier. It
// panics on invalid Config (same rules as ballsbins.NewSharded) and on
// durability I/O errors — callers that can handle those use
// OpenDispatcher.
func NewDispatcher(cfg Config) *Dispatcher {
	d, _, err := OpenDispatcher(cfg)
	if err != nil {
		panic("serve: " + err.Error())
	}
	return d
}

// OpenDispatcher is NewDispatcher with the durability path surfaced:
// when cfg.KeyedStore is set, the keyed tier is recovered from its
// WAL directory before the dispatcher accepts traffic, and the
// returned RecoveryInfo says what was rebuilt (nil without a store).
// I/O failures return an error instead of panicking.
func OpenDispatcher(cfg Config) (*Dispatcher, *keyed.RecoveryInfo, error) {
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	opts := []ballsbins.Option{
		ballsbins.WithSeed(cfg.Seed),
		ballsbins.WithEngine(cfg.Engine),
	}
	if cfg.Horizon > 0 {
		opts = append(opts, ballsbins.WithHorizon(cfg.Horizon))
	}
	kc := keyed.Config{}
	if cfg.Keyed != nil {
		kc = *cfg.Keyed
	}
	kc.Bins = cfg.Shards
	if kc.Seed == 0 {
		// Decoupled from the allocator's shard streams so keyed probe
		// sequences cannot correlate with placement draws.
		kc.Seed = rng.Mix(cfg.Seed, 0x6b657965642f7372)
	}
	var km *keyed.KeyMap
	var store *keyed.Store
	var rec *keyed.RecoveryInfo
	if cfg.KeyedStore != nil {
		var err error
		store, rec, err = keyed.OpenStore(kc, *cfg.KeyedStore)
		if err != nil {
			return nil, nil, err
		}
		km = store.M
	} else {
		km = keyed.New(kc)
	}
	obsOpts := cfg.Obs
	if obsOpts.Hop == "" {
		obsOpts.Hop = "serve"
	}
	d := &Dispatcher{
		sa:    ballsbins.NewSharded(cfg.Spec, cfg.N, cfg.Shards, opts...),
		cfg:   cfg,
		stats: newStats(cfg.Shards),
		km:    km,
		store: store,
		obs:   obs.NewRecorder(obsOpts),
	}
	// Threshold-family and fixed-bound specs reject keyed traffic (see
	// ErrKeyedUnsupported); "threshold-retry" (BoundedRetry) is safe —
	// its sample cap guarantees termination at any shard load.
	name := d.sa.Name()
	d.keyedOK = !(strings.HasPrefix(name, "fixed[") ||
		(strings.HasPrefix(name, "threshold") && !strings.HasPrefix(name, "threshold-retry")))
	d.watch = watch.New("serve", cfg.Watch, d.watchSample)
	if rec != nil {
		d.watch.Record(watch.EventRecovery, "keyed tier recovered from store", map[string]int64{
			"snapshot_keys":    rec.SnapshotKeys,
			"replayed_records": rec.ReplayedRecords,
			"replay_ms":        rec.ReplayMs,
		})
	}
	d.watch.Start()
	return d, rec, nil
}

// Allocator exposes the underlying ShardedAllocator for consistent
// lock-all reads (Metrics, Snapshot, Loads). Do not place or remove
// through it while the dispatcher is live — that would bypass the
// stats pipeline (the allocator itself stays correct either way).
func (d *Dispatcher) Allocator() *ballsbins.ShardedAllocator { return d.sa }

// N returns the total number of bins.
func (d *Dispatcher) N() int { return d.cfg.N }

// Shards returns the shard count.
func (d *Dispatcher) Shards() int { return d.cfg.Shards }

// Name returns the protocol's identifier.
func (d *Dispatcher) Name() string { return d.sa.Name() }

// Place allocates one ball and returns its global bin together with
// the number of random bin choices consumed. ctx is checked at
// admission only: a nil error past that point means the placement is
// committed. The single-ball hot path: one ticket, one shard lock,
// and one allocation (the shard's fresh stats row).
func (d *Dispatcher) Place(ctx context.Context) (bin int, samples int64, err error) {
	if err := d.admit(ctx); err != nil {
		return 0, 0, err
	}
	defer d.drainMu.RUnlock()
	c := d.obs.Begin(obs.TraceFrom(ctx), "place")
	var one [1]int
	samples = d.placeChunk(d.sa.NextShard(), one[:], &c, 0)
	return one[0], samples, nil
}

// PlaceKeyed allocates one ball for key. Instead of claiming a
// round-robin ticket, the ball is ticketed to the key's shard (the
// keyed tier's sticky affinity: internal/keyed assigns each key a
// shard under the keyed policy's bounded-load rule, and repeat
// traffic costs zero probes), so all of a key's balls share one
// shard's locality. Keyed traffic therefore skews per-shard ball
// counts by key popularity — bounded at the key level by the keyed
// policy, and at the traffic level by hot-key splitting — rather
// than obeying the round-robin evenness of anonymous placements.
// Admission and commit semantics are exactly Place's. The op is timed
// from admission, so its route is a "probe" span ahead of queue and
// apply, and the three sum exactly to the op total.
func (d *Dispatcher) PlaceKeyed(ctx context.Context, key string) (bin int, samples int64, err error) {
	if key == "" {
		return d.Place(ctx)
	}
	if !d.keyedOK {
		return 0, 0, ErrKeyedUnsupported
	}
	if err := d.admit(ctx); err != nil {
		return 0, 0, err
	}
	defer d.drainMu.RUnlock()
	c := d.obs.Begin(obs.TraceFrom(ctx), "place")
	shard, probes, hit, err := d.km.Route(key)
	routed := c.Elapsed()
	c.StageElapsed("probe", 0, routed)
	c.Attr("key_probes", int64(probes))
	if hit {
		c.Attr("key_hit", 1)
	}
	if err != nil {
		c.EndElapsed(routed, err)
		return 0, 0, err // unreachable: serve shards never leave rotation
	}
	var one [1]int
	samples = d.placeChunk(shard, one[:], &c, routed)
	return one[0], samples, nil
}

// KeyedStats returns the keyed tier's monitoring block.
func (d *Dispatcher) KeyedStats() keyed.Stats { return d.km.Stats() }

// Durability returns the keyed tier's durability block, nil when the
// dispatcher runs without a store.
func (d *Dispatcher) Durability() *keyed.DurabilityStats {
	if d.store == nil {
		return nil
	}
	ds := d.store.Durability()
	return &ds
}

// PlaceMany allocates count balls spread round-robin over the shards
// (claiming count tickets at once) and returns their global bins in
// assignment order — shard by shard, each shard's chunk placed under
// one lock acquisition — plus the total random choices consumed.
// Chunks of fanOutChunk balls or more run on helper goroutines, the
// rest in the caller's.
//
// ctx is checked at admission, before any ticket is claimed; past
// that point the whole bulk is committed and PlaceMany returns only
// once every ball is placed. (Aborting mid-bulk would leave already-
// claimed tickets without balls, skewing the per-shard evenness the
// max-load bound is built on — so there is deliberately no early
// exit.)
func (d *Dispatcher) PlaceMany(ctx context.Context, count int) ([]int, int64, error) {
	if count < 1 {
		return nil, 0, fmt.Errorf("serve: PlaceMany count %d < 1", count)
	}
	if err := d.admit(ctx); err != nil {
		return nil, 0, err
	}
	defer d.drainMu.RUnlock()
	t0 := time.Now()
	trace := obs.TraceFrom(ctx)
	counts := d.sa.NextShardBatch(int64(count))
	bins := make([]int, count)
	var samples int64
	var helpers *fanOut // allocated only by a bulk with a large chunk
	off := 0
	for s, n := range counts {
		if n == 0 {
			continue
		}
		chunk := bins[off : off+int(n)]
		off += int(n)
		if n < fanOutChunk {
			samples += d.placeBulkChunk(s, chunk, count, trace, t0)
			continue
		}
		if helpers == nil {
			helpers = new(fanOut)
		}
		helpers.place(d, s, chunk, count, trace, t0)
	}
	if helpers != nil {
		samples += helpers.wait()
	}
	return bins, samples, nil
}

// fanOut runs one bulk's large chunks on helper goroutines.
type fanOut struct {
	wg      sync.WaitGroup
	samples atomic.Int64
}

func (f *fanOut) place(d *Dispatcher, s int, chunk []int, bulk int, trace uint64, t0 time.Time) {
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		f.samples.Add(d.placeBulkChunk(s, chunk, bulk, trace, t0))
	}()
}

// wait returns the helpers' total samples once every chunk is placed.
func (f *fanOut) wait() int64 {
	f.wg.Wait()
	return f.samples.Load()
}

// placeBulkChunk places one PlaceMany chunk on shard s. Each chunk
// gets its own capture, sharing the bulk's trace id — a traced bulk
// shows how its chunks fanned out.
func (d *Dispatcher) placeBulkChunk(s int, chunk []int, bulk int, trace uint64, t0 time.Time) int64 {
	c := d.obs.BeginAt(trace, "place", t0)
	c.Attr("bulk", int64(bulk))
	return d.placeChunk(s, chunk, &c, 0)
}

// Remove takes one ball out of global bin. It returns ErrEmptyBin if
// the bin holds no ball when the shard lock is taken, and an error for
// out-of-range bins. Like Place, ctx is checked at admission only;
// past that the removal is committed.
func (d *Dispatcher) Remove(ctx context.Context, bin int) error {
	return d.RemoveKeyed(ctx, bin, "")
}

// RemoveKeyed is Remove plus keyed bookkeeping: a successful removal
// releases one of key's balls from the bin's shard, so the keyed
// tier's live-ball accounting (idle eviction, hot-replica balancing)
// tracks departures. The release happens inside the admitted call, so
// Close never seals a keyed store that a release is still writing.
func (d *Dispatcher) RemoveKeyed(ctx context.Context, bin int, key string) error {
	if bin < 0 || bin >= d.cfg.N {
		return fmt.Errorf("serve: bin %d outside [0,%d)", bin, d.cfg.N)
	}
	if err := d.admit(ctx); err != nil {
		return err
	}
	defer d.drainMu.RUnlock()
	c := d.obs.Begin(obs.TraceFrom(ctx), "remove")
	shard := d.sa.ShardOf(bin)
	err := d.run(shard, &c, 0, func(a *ballsbins.Allocator, base int) error {
		local := bin - base
		if a.Load(local) == 0 {
			return ErrEmptyBin
		}
		a.Remove(local)
		return nil
	})
	if err == nil && key != "" {
		d.km.Release(key, shard)
	}
	return err
}

// admit takes the shared drain lock for the caller's whole call (the
// caller releases it on return) unless the dispatcher is draining or
// ctx is already done. Close sets draining before taking the lock
// exclusively, so either we see the flag and back out, or Close waits
// for our call to return.
func (d *Dispatcher) admit(ctx context.Context) error {
	d.drainMu.RLock()
	if d.draining.Load() {
		d.drainMu.RUnlock()
		return ErrDraining
	}
	if err := ctx.Err(); err != nil {
		d.drainMu.RUnlock()
		return err
	}
	return nil
}

// Draining reports whether Close has begun.
func (d *Dispatcher) Draining() bool { return d.draining.Load() }

// Close drains the dispatcher: new calls are refused with
// ErrDraining, and Close waits for every already-admitted call to
// return. With a keyed store, the drained state is then sealed with a
// final compacting snapshot — a TERM/restart cycle loses zero
// assignments. A failed seal is recorded as a DRAIN event and logged
// at ERROR. Close blocks until the drain completes and is idempotent.
func (d *Dispatcher) Close() {
	if d.draining.CompareAndSwap(false, true) {
		d.watch.Record(watch.EventDrain, "dispatcher draining", nil)
	}
	d.drainMu.Lock() // every admitted call has returned
	d.drainMu.Unlock()
	if d.store != nil {
		if err := d.store.Close(); err != nil {
			d.watch.RecordError(watch.EventDrain, "keyed store seal failed", err)
		}
	}
	d.watch.Close()
}

// placeChunk places len(bins) balls on shard s under one lock
// acquisition, writing their global bins, and returns the samples
// consumed. queued is when the op started waiting for the lock, as an
// offset from c's begin time.
func (d *Dispatcher) placeChunk(s int, bins []int, c *obs.Capture, queued int64) (samples int64) {
	d.run(s, c, queued, func(a *ballsbins.Allocator, base int) error {
		for i := range bins {
			local, smp := a.Place()
			bins[i] = base + local
			samples += smp
		}
		return nil
	})
	return samples
}

// run applies op to shard s under the shard lock and publishes the
// shard's stats row before unlocking, so every row is an exact post-op
// observation. The op read the wall clock once, at admission; the
// lock-held and end stamps are monotonic offsets from it
// (Capture.Elapsed), and the stage records are made after the unlock:
// queue runs from queued (0, or the end of a keyed route) until the
// lock is held, apply is the time under the lock, and the spans sum
// exactly to the op total c ends with.
func (d *Dispatcher) run(s int, c *obs.Capture, queued int64, op func(a *ballsbins.Allocator, base int) error) error {
	var locked, end int64
	var err error
	d.sa.WithShardLocked(s, func(a *ballsbins.Allocator, base int) {
		locked = c.Elapsed()
		err = op(a, base)
		d.stats.publish(s, a)
		end = c.Elapsed()
	})
	c.StageElapsed("queue", queued, locked)
	c.StageElapsed("apply", locked, end)
	c.EndElapsed(end, err)
	return err
}

// Latency returns a snapshot of the dispatch latency: the time from a
// call's admission until its shard lock is released — a keyed route,
// the wait for the lock and the work under it — one sample per lock
// taken (a bulk records one per shard chunk). It is the union of the
// obs op totals, "place" and "remove", read in one pass, so each op
// records its latency once; it is empty when Config.Obs.Disabled.
func (d *Dispatcher) Latency() hdrhist.Snapshot { return d.obs.UnionSnapshot("place", "remove") }

// Obs returns the dispatcher's observability recorder (nil when
// Config.Obs.Disabled).
func (d *Dispatcher) Obs() *obs.Recorder { return d.obs }

// BindDiag attaches the flight recorder (built late by the daemon,
// since its capture closures need the assembled stats surface) and
// wires it to the watchdog's violation hook.
func (d *Dispatcher) BindDiag(rec *diag.Recorder) {
	if rec == nil {
		return
	}
	d.diag.Store(rec)
	d.watch.OnViolation(rec.OnViolation)
}

// Diag returns the bound flight recorder (nil when diagnostics are
// off).
func (d *Dispatcher) Diag() *diag.Recorder { return d.diag.Load() }
