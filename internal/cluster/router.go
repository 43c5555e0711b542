package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/diag"
	"repro/internal/hdrhist"
	"repro/internal/keyed"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/watch"
)

// Config describes a Router.
type Config struct {
	// Backends are the routable nodes, one fixed slot each. Required.
	Backends []Backend
	// BinsPerBackend is every backend's bin count n; global bin
	// numbering is slot·n + local bin. Required.
	BinsPerBackend int
	// Policy picks backends. Required (see PolicyByName).
	Policy Policy
	// Seed drives the policy's random probes.
	Seed uint64
	// Staleness is the LoadView refresh period — how stale the routing
	// decisions are allowed to be. 0 disables polling: the view then
	// relies on local accounting alone (exact for a single router over
	// in-proc backends; deterministic for tests).
	Staleness time.Duration
	// HealthEvery is the health-probe period; 0 disables the health
	// loop (backends only leave rotation via traffic errors).
	HealthEvery time.Duration
	// FailAfter / RiseAfter are the consecutive-evidence thresholds for
	// eviction and rejoin (default 2 each).
	FailAfter, RiseAfter int
	// Keyed, when non-nil, enables the keyed placement tier: requests
	// carrying a key route through an internal/keyed KeyMap over the
	// backend slots (sticky affinity, hot-key splitting,
	// minimal-disruption rebalancing on evict/rejoin) instead of the
	// anonymous Policy. Bins and, when zero, Seed are filled in by the
	// router. Anonymous traffic still uses Policy.
	Keyed *keyed.Config
	// KeyedStore, when non-nil (and Keyed is set), persists the keyed
	// tier to a WAL directory: OpenRouter recovers the exact pre-crash
	// key→backend assignment before routing, and Close seals it with a
	// final compacting snapshot.
	KeyedStore *keyed.StoreOptions
	// Obs tunes the router's trace recorder (hop defaults to "proxy");
	// the zero value enables it with package defaults.
	Obs obs.Options
	// Watch tunes the invariant watchdog + time-series collector behind
	// /v1/events and /v1/timeseries (see internal/watch); zero values
	// take the watch defaults. Set Watch.Disabled to run without one.
	Watch watch.Options
	// Logger receives structured membership and lifecycle events
	// (default slog.Default).
	Logger *slog.Logger
}

// Router routes place/remove traffic across the backends: the cluster
// tier's dispatch core. Construct with NewRouter; all methods are safe
// for concurrent use; Close stops the background loops.
type Router struct {
	cfg    Config
	ms     *Membership
	view   *LoadView
	policy Policy
	km     *keyed.KeyMap // nil unless Config.Keyed was set
	store  *keyed.Store  // nil unless Config.KeyedStore was set
	n      int           // bins per backend

	// mu serializes policy picks over the shared RNG stream (kept
	// single so fixed seeds give reproducible routing).
	mu  sync.Mutex
	rnd *rng.Rand

	picks     atomic.Int64
	probes    atomic.Int64
	failovers atomic.Int64
	// fallbacks counts picks that exhausted the acceptance probe cap
	// and took the least-loaded probe: those backends never passed the
	// policy's acceptance test, so the watchdog's cross-backend bound
	// is disarmed once any pick has fallen back.
	fallbacks atomic.Int64
	// maxBulk is the largest ball count one pick has carried: the
	// acceptance rule admits a backend before the whole bulk lands on
	// it, so the provable cross-backend bound is ⌈i/K⌉+maxBulk (the
	// paper's ⌈i/K⌉+1 exactly when traffic is single-ball).
	maxBulk atomic.Int64
	// ledger is the router's own per-slot routing record (cumulative
	// balls placed/removed through this router). Unlike the LoadView —
	// whose polled+delta estimate has transient double- and under-count
	// windows around refreshes — the ledger is exact at operation
	// completion, so the watchdog checks its bound against it.
	ledger []slotLedger

	obs    *obs.Recorder
	watch  *watch.Monitor                // invariant watchdog + time series (nilable)
	diag   atomic.Pointer[diag.Recorder] // flight recorder, bound late (nilable)
	logger *slog.Logger
	// pickStaleness records, per pick, how old the chosen backend's
	// polled load was (milliseconds) — the routing tier's staleness-at-
	// decision distribution. Picks of never-polled backends are skipped.
	pickStaleness *hdrhist.Hist

	placeLat  *hdrhist.Hist
	removeLat *hdrhist.Hist
	// window accumulates place latency for the current staleness
	// window; the poll loop rotates it into lastWindow.
	window      *hdrhist.Hist
	lastWindow  atomic.Pointer[windowSummary]
	windowBegan atomic.Int64 // unixnano

	draining atomic.Bool
	cancel   context.CancelFunc
	loops    sync.WaitGroup
}

type windowSummary struct {
	snap hdrhist.Snapshot
	secs float64
}

// NewRouter validates cfg, takes a best-effort initial load poll of
// every backend, and starts the health and refresh loops. It panics on
// structurally invalid configuration (no backends, missing policy) —
// same contract as the allocator constructors — and on durability I/O
// errors; callers that can handle those use OpenRouter.
func NewRouter(cfg Config) *Router {
	rt, _, err := OpenRouter(cfg)
	if err != nil {
		panic("cluster: " + err.Error())
	}
	return rt
}

// OpenRouter is NewRouter with the durability path surfaced: when
// cfg.KeyedStore is set, the keyed tier is recovered from its WAL
// directory before any traffic routes, and the returned RecoveryInfo
// says what was rebuilt (nil without a store). I/O failures return an
// error instead of panicking.
func OpenRouter(cfg Config) (*Router, *keyed.RecoveryInfo, error) {
	if len(cfg.Backends) == 0 {
		panic("cluster: NewRouter with no backends")
	}
	if cfg.BinsPerBackend <= 0 {
		panic("cluster: NewRouter with BinsPerBackend <= 0")
	}
	if cfg.Policy == nil {
		panic("cluster: NewRouter with nil Policy")
	}
	obsOpts := cfg.Obs
	if obsOpts.Hop == "" {
		obsOpts.Hop = "proxy"
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	rt := &Router{
		cfg:           cfg,
		ms:            NewMembership(cfg.Backends, cfg.FailAfter, cfg.RiseAfter),
		view:          NewLoadView(len(cfg.Backends)),
		ledger:        make([]slotLedger, len(cfg.Backends)),
		policy:        cfg.Policy,
		n:             cfg.BinsPerBackend,
		rnd:           rng.New(cfg.Seed),
		obs:           obs.NewRecorder(obsOpts),
		logger:        logger,
		pickStaleness: hdrhist.New(),
		placeLat:      hdrhist.New(),
		removeLat:     hdrhist.New(),
		window:        hdrhist.New(),
	}
	rt.ms.probeSeed = rng.Mix(cfg.Seed, 0x70726f6265)  // "probe"
	rt.view.pollSeed = rng.Mix(cfg.Seed, 0x6c6f616470) // "loadp"
	rt.windowBegan.Store(time.Now().UnixNano())
	var rec *keyed.RecoveryInfo
	if cfg.Keyed != nil {
		kc := *cfg.Keyed
		kc.Bins = len(cfg.Backends)
		if kc.Seed == 0 {
			kc.Seed = rng.Mix(cfg.Seed, 0x6b657965642f636c)
		}
		if cfg.KeyedStore != nil {
			store, info, err := keyed.OpenStore(kc, *cfg.KeyedStore)
			if err != nil {
				return nil, nil, err
			}
			rt.store, rt.km, rec = store, store.M, info
			// The recovered map may remember bins as down, but this
			// process's membership starts every slot in rotation:
			// reconcile (SetUp is a no-op for already-up bins). A
			// backend that is genuinely still dead is re-evicted by
			// probes/traffic, which journals a fresh OpDown.
			for slot := range cfg.Backends {
				rt.km.SetUp(slot)
			}
		} else {
			rt.km = keyed.New(kc)
		}
	}
	// A rejoining backend may have lost or served balls we never saw:
	// re-poll it immediately (asynchronously — onChange runs under the
	// membership lock) so the next picks see its real load rather than
	// the pre-eviction estimate. The keyed tier follows membership
	// synchronously: an eviction rebalances exactly the keys resident
	// on the dead slot (the KeyMap has its own lock and never calls
	// back into Membership, so nesting under the membership lock is
	// safe), a rejoin only reopens the slot for future picks.
	rt.ms.onChange = func(slot int, up bool) {
		if rt.km != nil && !up {
			t0 := time.Now()
			// resident (the dead slot's replica count) is read before
			// SetDown from the same KeyMap the rebalance mutates; the
			// paper's minimal-disruption claim is that a rebalance moves
			// only what was resident on the lost bin, so moved > resident
			// is a violation worth reporting the moment it happens rather
			// than on the next watchdog cadence.
			var resident int64
			if st := rt.km.Stats(); slot < len(st.PerBinKeys) {
				resident = st.PerBinKeys[slot]
			}
			moved, shed := rt.km.SetDown(slot)
			c := rt.obs.BeginAt(0, "rebalance", t0)
			c.Attr("slot", int64(slot))
			c.Attr("keys_moved", moved)
			c.End(nil)
			rt.watch.Record(watch.EventRebalance, fmt.Sprintf("slot %d down: %d key replicas moved", slot, moved),
				map[string]int64{"slot": int64(slot), "keys_moved": moved, "keys_shed": shed, "resident": resident})
			if moved > resident {
				rt.watch.ReportViolation("keyed_rebalance_moved", moved, resident,
					map[string]int64{"slot": int64(slot)})
			}
		}
		if up {
			if rt.km != nil {
				rt.km.SetUp(slot)
			}
			rt.watch.Record(watch.EventRejoin, fmt.Sprintf("backend %d rejoined", slot),
				map[string]int64{"slot": int64(slot)})
			rt.logger.Info("cluster: backend rejoined, forcing load re-poll", "slot", slot)
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				defer cancel()
				_ = rt.view.Refresh(ctx, slot, rt.ms.Backend(slot))
			}()
		} else {
			rt.watch.Record(watch.EventEviction, fmt.Sprintf("backend %d evicted", slot),
				map[string]int64{"slot": int64(slot)})
			rt.logger.Warn("cluster: backend evicted", "slot", slot)
		}
	}

	rt.watch = watch.New("proxy", cfg.Watch, rt.watchSample)
	if rec != nil {
		rt.watch.Record(watch.EventRecovery, "keyed tier recovered from store", map[string]int64{
			"snapshot_keys":    rec.SnapshotKeys,
			"replayed_records": rec.ReplayedRecords,
			"replay_ms":        rec.ReplayMs,
		})
	}

	// Seed the view so the first picks are informed (best-effort; a
	// backend that is down simply stays unpolled).
	initCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	rt.view.refreshAll(initCtx, rt.ms.Healthy(), rt.ms.Backend, 2*time.Second)
	cancel()

	loopCtx, loopCancel := context.WithCancel(context.Background())
	rt.cancel = loopCancel
	if cfg.HealthEvery > 0 {
		rt.loops.Add(1)
		go func() {
			defer rt.loops.Done()
			rt.ms.run(loopCtx, cfg.HealthEvery)
		}()
	}
	if cfg.Staleness > 0 {
		rt.loops.Add(1)
		go func() {
			defer rt.loops.Done()
			rt.refreshLoop(loopCtx)
		}()
	}
	rt.watch.Start()
	return rt, rec, nil
}

// refreshLoop re-polls every healthy backend's stats each staleness
// window and rotates the windowed latency histogram.
func (rt *Router) refreshLoop(ctx context.Context) {
	t := time.NewTicker(rt.cfg.Staleness)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			rt.view.refreshAll(ctx, rt.ms.Healthy(), rt.ms.Backend, rt.cfg.Staleness)
			rt.rotateWindow()
		}
	}
}

// rotateWindow publishes the current latency window and starts the
// next one.
func (rt *Router) rotateWindow() {
	began := rt.windowBegan.Swap(time.Now().UnixNano())
	snap := rt.window.SnapshotAndReset()
	rt.lastWindow.Store(&windowSummary{
		snap: snap,
		secs: float64(time.Now().UnixNano()-began) / 1e9,
	})
}

// Membership exposes the backend registry (read-side: Healthy, IsUp).
func (rt *Router) Membership() *Membership { return rt.ms }

// View exposes the load view (read-side: Load, Polled).
func (rt *Router) View() *LoadView { return rt.view }

// N returns the cluster's total bin count (backends × bins each).
func (rt *Router) N() int { return len(rt.cfg.Backends) * rt.n }

// BinsPerBackend returns each backend's bin count.
func (rt *Router) BinsPerBackend() int { return rt.n }

// Policy returns the routing policy's name.
func (rt *Router) Policy() string { return rt.policy.Name() }

// Keyed returns the router's KeyMap, nil when keyed routing is not
// configured.
func (rt *Router) Keyed() *keyed.KeyMap { return rt.km }

// Durability returns the keyed tier's durability block, nil when the
// router runs without a store.
func (rt *Router) Durability() *keyed.DurabilityStats {
	if rt.store == nil {
		return nil
	}
	ds := rt.store.Durability()
	return &ds
}

// Draining reports whether Close has begun.
func (rt *Router) Draining() bool { return rt.draining.Load() }

// pick runs one policy decision under the RNG lock. Alongside the
// chosen slot it returns the probes spent and the staleness of the
// load information the decision saw (-1 when the slot was never
// polled, i.e. the view ran on local accounting alone).
func (rt *Router) pick(healthy []int, count int) (slot int, probes int, staleMs int64) {
	rt.mu.Lock()
	slot, probes, fallback := rt.policy.Pick(rt.rnd, rt.view, healthy, count)
	rt.mu.Unlock()
	rt.picks.Add(1)
	rt.probes.Add(int64(probes))
	if fallback {
		rt.fallbacks.Add(1)
	}
	for {
		cur := rt.maxBulk.Load()
		if int64(count) <= cur || rt.maxBulk.CompareAndSwap(cur, int64(count)) {
			break
		}
	}
	return slot, probes, rt.noteStaleness(slot)
}

// slotLedger is one backend's entry in the router ledger: cumulative
// balls placed on and removed from the slot, counted at operation
// completion. Kept as separate monotone counters (not one live gauge)
// so readers can order their loads — placed before removed — and a
// torn read can only under-state the live count, never inflate it.
type slotLedger struct {
	placed  atomic.Int64
	removed atomic.Int64
}

// note records a completed backend operation (n > 0 balls placed,
// n < 0 one removed) in both load accounts: the LoadView delta that
// steers routing picks, and the exact ledger the watchdog reads.
func (rt *Router) note(slot int, n int64) {
	rt.view.Note(slot, n)
	if n > 0 {
		rt.ledger[slot].placed.Add(n)
	} else {
		rt.ledger[slot].removed.Add(-n)
	}
}

// noteStaleness records how old slot's polled load is right now into
// the pick-staleness histogram and returns it in milliseconds (-1 and
// no record when the slot has never been polled).
func (rt *Router) noteStaleness(slot int) int64 {
	_, age, ok := rt.view.Polled(slot)
	if !ok {
		return -1
	}
	ms := age.Milliseconds()
	rt.pickStaleness.Record(ms)
	return ms
}

// Place routes count balls to one policy-chosen backend and returns
// their global bins plus the backend-reported allocation samples. When
// the chosen backend errors the request fails over to another healthy
// backend (the error is reported to Membership, so a dead backend is
// evicted by its own traffic); Place fails only when every healthy
// backend has been tried.
func (rt *Router) Place(ctx context.Context, count int) ([]int, int64, error) {
	if count < 1 {
		return nil, 0, fmt.Errorf("cluster: Place count %d < 1", count)
	}
	if rt.draining.Load() {
		return nil, 0, ErrDraining
	}
	t0 := time.Now()
	upstream := obs.TraceFrom(ctx)
	c := rt.obs.BeginAt(upstream, "place", t0)
	if id := c.Trace(); id != upstream {
		// Head-sampled here: propagate the minted id downstream so the
		// serve hop records its spans under the same trace.
		ctx = obs.WithTrace(ctx, id)
	}
	var probesTotal, failovers int
	staleMs := int64(-1)
	finish := func(err error) {
		c.Attr("count", int64(count))
		c.Attr("probes", int64(probesTotal))
		c.Attr("failovers", int64(failovers))
		if staleMs >= 0 {
			c.Attr("staleness_ms_at_pick", staleMs)
		}
		c.End(err)
	}
	candidates := rt.ms.Healthy()
	var lastErr error
	for len(candidates) > 0 {
		if err := ctx.Err(); err != nil {
			finish(err)
			return nil, 0, err
		}
		pickStart := time.Now()
		slot, probes, ms := rt.pick(candidates, count)
		c.Stage("probe", pickStart)
		probesTotal += probes
		staleMs = ms
		fwdStart := time.Now()
		bins, samples, err := rt.ms.Backend(slot).Place(ctx, count)
		c.Stage("forward", fwdStart)
		if err == nil {
			rt.ms.ReportSuccess(slot)
			rt.note(slot, int64(count))
			for i := range bins {
				bins[i] += slot * rt.n
			}
			el := int64(time.Since(t0))
			rt.placeLat.Record(el)
			rt.window.Record(el)
			finish(nil)
			return bins, samples, nil
		}
		// A dead caller is not evidence against the backend: when the
		// failure is the caller's own context (disconnect, deadline),
		// return it without reporting or failing over — otherwise two
		// client disconnects could evict a healthy backend.
		if ctx.Err() != nil {
			finish(ctx.Err())
			return nil, 0, ctx.Err()
		}
		lastErr = err
		failovers++
		rt.failovers.Add(1)
		rt.ms.ReportFailure(slot)
		candidates = without(candidates, slot)
	}
	if lastErr == nil {
		finish(ErrNoBackends)
		return nil, 0, ErrNoBackends
	}
	err := fmt.Errorf("cluster: place failed on every healthy backend: %w", lastErr)
	finish(err)
	return nil, 0, err
}

// PlaceKeyed routes one ball for key to the key's assigned backend —
// the keyed tier's dispatch path. First contact probes an assignment
// under the keyed policy's bounded-load rule; repeat traffic hits the
// same backend with zero probes; a hot key spreads over its replica
// set. When the assigned backend errors, the key's replica is moved
// (one deterministic re-probe of its own sequence, counted in
// moved_keys) and the placement retries there — like Place, keyed
// placements fail only when every healthy candidate has been tried,
// so a backend death costs zero client-visible place errors. Falls
// back to anonymous Place when the router has no keyed tier or key
// is empty.
func (rt *Router) PlaceKeyed(ctx context.Context, key string) ([]int, int64, error) {
	if rt.km == nil || key == "" {
		return rt.Place(ctx, 1)
	}
	if rt.draining.Load() {
		return nil, 0, ErrDraining
	}
	t0 := time.Now()
	upstream := obs.TraceFrom(ctx)
	c := rt.obs.BeginAt(upstream, "place", t0)
	if id := c.Trace(); id != upstream {
		ctx = obs.WithTrace(ctx, id)
	}
	var failovers int
	staleMs := int64(-1)
	// Keyed decisions and their probes are accounted in the keyed
	// stats block, not in picks/probes — mixing them would corrupt
	// probes_per_pick, whose denominator is anonymous policy picks.
	slot, keyProbes, hit, err := rt.km.Route(key)
	c.Stage("probe", t0)
	c.Attr("key_probes", int64(keyProbes))
	if hit {
		c.Attr("key_hit", 1)
	}
	finish := func(err error) {
		c.Attr("failovers", int64(failovers))
		if staleMs >= 0 {
			c.Attr("staleness_ms_at_pick", staleMs)
		}
		c.End(err)
	}
	if err != nil {
		finish(ErrNoBackends)
		return nil, 0, ErrNoBackends
	}
	staleMs = rt.noteStaleness(slot)
	// Route counted the incoming ball against the key; every exit that
	// does NOT place it must release that ref, or a failed request
	// would leave the key looking busy forever (immune to idle
	// eviction, inflating live-ball balancing).
	var lastErr error
	var tried []int
	for len(tried) <= rt.ms.Size() {
		if err := ctx.Err(); err != nil {
			rt.km.Release(key, slot)
			finish(err)
			return nil, 0, err
		}
		fwdStart := time.Now()
		bins, samples, perr := placeKeyOn(ctx, rt.ms.Backend(slot), key)
		c.Stage("forward", fwdStart)
		if perr == nil {
			rt.ms.ReportSuccess(slot)
			rt.note(slot, 1)
			for i := range bins {
				bins[i] += slot * rt.n
			}
			el := int64(time.Since(t0))
			rt.placeLat.Record(el)
			rt.window.Record(el)
			finish(nil)
			return bins, samples, nil
		}
		// A dead caller is not evidence against the backend (see Place).
		if ctx.Err() != nil {
			rt.km.Release(key, slot)
			finish(ctx.Err())
			return nil, 0, ctx.Err()
		}
		lastErr = perr
		failovers++
		rt.failovers.Add(1)
		rt.ms.ReportFailure(slot)
		tried = append(tried, slot)
		next, merr := rt.km.MoveOff(key, slot, tried)
		if merr != nil {
			break // no healthy bin outside the tried set remains
		}
		slot = next
	}
	rt.km.Release(key, slot)
	if lastErr == nil {
		finish(ErrNoBackends)
		return nil, 0, ErrNoBackends
	}
	err = fmt.Errorf("cluster: keyed place failed on every candidate backend: %w", lastErr)
	finish(err)
	return nil, 0, err
}

// placeKeyOn forwards a keyed placement, passing the key through to
// backends that understand it (end-to-end affinity) and degrading to
// an anonymous single place otherwise.
func placeKeyOn(ctx context.Context, b Backend, key string) ([]int, int64, error) {
	if kb, ok := b.(KeyedBackend); ok {
		return kb.PlaceKey(ctx, key)
	}
	return b.Place(ctx, 1)
}

// without returns candidates minus slot, copying (the healthy snapshot
// is shared and must not be mutated).
func without(candidates []int, slot int) []int {
	out := make([]int, 0, len(candidates)-1)
	for _, c := range candidates {
		if c != slot {
			out = append(out, c)
		}
	}
	return out
}

// Remove takes one ball out of global bin. The owning backend is
// determined by the bin numbering — there is no failover: if that
// backend is evicted the ball is unreachable until it rejoins, and
// Remove returns ErrBackendDown.
func (rt *Router) Remove(ctx context.Context, bin int) error {
	return rt.RemoveKeyed(ctx, bin, "")
}

// RemoveKeyed is Remove with keyed bookkeeping: the key is forwarded
// to the owning backend (so its shard-level keyed tier releases the
// ball too) and a successful removal releases the ball from the
// router's own KeyMap. Departures of balls stranded on a dead
// backend still fail with ErrBackendDown — honest accounting, same
// as the anonymous path.
func (rt *Router) RemoveKeyed(ctx context.Context, bin int, key string) error {
	if rt.draining.Load() {
		return ErrDraining
	}
	if bin < 0 || bin >= rt.N() {
		return fmt.Errorf("cluster: bin %d outside [0,%d)", bin, rt.N())
	}
	slot, local := bin/rt.n, bin%rt.n
	if !rt.ms.IsUp(slot) {
		return ErrBackendDown
	}
	t0 := time.Now()
	upstream := obs.TraceFrom(ctx)
	c := rt.obs.BeginAt(upstream, "remove", t0)
	if id := c.Trace(); id != upstream {
		ctx = obs.WithTrace(ctx, id)
	}
	var err error
	if kb, ok := rt.ms.Backend(slot).(KeyedBackend); ok && key != "" {
		err = kb.RemoveKey(ctx, local, key)
	} else {
		err = rt.ms.Backend(slot).Remove(ctx, local)
	}
	c.Stage("forward", t0)
	defer c.End(err)
	switch {
	case err == nil:
		rt.ms.ReportSuccess(slot)
		rt.note(slot, -1)
		rt.removeLat.RecordSince(t0)
		if rt.km != nil && key != "" {
			rt.km.Release(key, slot)
		}
	case errors.Is(err, serve.ErrEmptyBin):
		// A well-formed answer from a healthy backend — the caller's
		// books are wrong, not the backend.
		rt.ms.ReportSuccess(slot)
	case ctx.Err() != nil:
		// The caller's own context died: not evidence (see Place).
	default:
		// Transport-level failure: removes count toward eviction just
		// like placements, so a dead backend serving only departures
		// still leaves rotation.
		rt.ms.ReportFailure(slot)
	}
	return err
}

// Obs returns the router's trace recorder.
func (rt *Router) Obs() *obs.Recorder { return rt.obs }

// BindDiag attaches the flight recorder (built late by the daemon,
// since its capture closures need the assembled stats surface) and
// wires it to the watchdog's violation hook.
func (rt *Router) BindDiag(rec *diag.Recorder) {
	if rec == nil {
		return
	}
	rt.diag.Store(rec)
	rt.watch.OnViolation(rec.OnViolation)
}

// Diag returns the bound flight recorder (nil when diagnostics are
// off).
func (rt *Router) Diag() *diag.Recorder { return rt.diag.Load() }

// PickStaleness returns the staleness-at-pick distribution snapshot
// (milliseconds of load-view age at each routing decision).
func (rt *Router) PickStaleness() hdrhist.Snapshot { return rt.pickStaleness.Snapshot() }

// PlaceLatency returns the cumulative place-latency snapshot.
func (rt *Router) PlaceLatency() hdrhist.Snapshot { return rt.placeLat.Snapshot() }

// RemoveLatency returns the cumulative remove-latency snapshot.
func (rt *Router) RemoveLatency() hdrhist.Snapshot { return rt.removeLat.Snapshot() }

// WindowLatency returns the last completed staleness window's place
// latency and the window length in seconds (zero before the first
// rotation).
func (rt *Router) WindowLatency() (hdrhist.Snapshot, float64) {
	if w := rt.lastWindow.Load(); w != nil {
		return w.snap, w.secs
	}
	return hdrhist.Snapshot{}, 0
}

// Close stops routing: subsequent Place/Remove return ErrDraining, the
// background loops exit, and in-flight requests run to completion
// against their backends. With a keyed store, the drained assignment
// table is sealed with a final compacting snapshot — a TERM/restart
// cycle loses zero assignments; a failed seal is recorded as a DRAIN
// event and logged at ERROR. It does not close the backends
// themselves (the proxy does not own the cluster's data). Idempotent.
func (rt *Router) Close() {
	if rt.draining.CompareAndSwap(false, true) {
		rt.watch.Record(watch.EventDrain, "router draining", nil)
	}
	rt.cancel()
	rt.loops.Wait()
	if rt.store != nil {
		if err := rt.store.Close(); err != nil {
			rt.watch.RecordError(watch.EventDrain, "keyed store seal failed", err)
		}
	}
	rt.watch.Close()
}

// Crash stops the router WITHOUT the final snapshot or log flush —
// the crash-simulation hook restart scenarios use as the in-proc
// analogue of kill -9: recovery from the data directory sees only
// what the fsync policy already made durable. Idempotent.
func (rt *Router) Crash() {
	rt.draining.Store(true)
	rt.cancel()
	rt.loops.Wait()
	rt.watch.Close()
	if rt.store != nil {
		rt.store.Crash()
	}
}
