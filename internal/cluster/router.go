package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hdrhist"
	"repro/internal/keyed"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/watch"
	"repro/internal/wire"
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
// for concurrent use. Admission, drain, the keyed map (nil unless
// Config.Keyed was set) and its store and the monitors are its
// Lifecycle's; Close and Crash also stop the health and load rounds
// and wait for them, but never close the backends themselves (the
// proxy does not own the cluster's data).
type Router struct {
	cfg    Config
	ms     *Membership
	view   *LoadView
	policy Policy
	n      int // bins per backend

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

	logger *slog.Logger
	// pickStaleness records, per pick, how old the chosen backend's
	// polled load was (milliseconds) — the routing tier's staleness-at-
	// decision distribution. Picks of never-polled backends are skipped.
	pickStaleness *hdrhist.Hist

	// window accumulates place latency for the current staleness
	// window; the poll loop rotates it into lastWindow.
	window      *hdrhist.Hist
	lastWindow  atomic.Pointer[windowSummary]
	windowBegan atomic.Int64 // unixnano

	// probeRetry and pollRetry are the health and load rounds' clocks;
	// cancel ends the rounds, and loops waits for them.
	probeRetry, pollRetry retryClock
	cancel                context.CancelFunc
	loops                 sync.WaitGroup
	*serve.Lifecycle
}

type windowSummary struct {
	snap hdrhist.Snapshot
	secs float64
}

// NewRouter validates cfg, takes a best-effort initial load poll of
// every backend, and starts the health and load rounds. It panics on
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
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	rt := &Router{
		cfg:           cfg,
		ms:            NewMembership(cfg.Backends, cfg.FailAfter, cfg.RiseAfter),
		view:          NewLoadView(len(cfg.Backends)),
		policy:        cfg.Policy,
		n:             cfg.BinsPerBackend,
		rnd:           rng.New(cfg.Seed),
		logger:        logger,
		pickStaleness: hdrhist.New(),
		window:        hdrhist.New(),
		probeRetry:    newRetryClock(len(cfg.Backends), cfg.HealthEvery, rng.Mix(cfg.Seed, 0x70726f6265)), // "probe"
		pollRetry:     newRetryClock(len(cfg.Backends), cfg.Staleness, rng.Mix(cfg.Seed, 0x6c6f616470)),   // "loadp"
	}
	rt.windowBegan.Store(time.Now().UnixNano())
	var kc *keyed.Config
	if cfg.Keyed != nil {
		c := *cfg.Keyed
		c.Bins = len(cfg.Backends)
		if c.Seed == 0 {
			c.Seed = rng.Mix(cfg.Seed, 0x6b657965642f636c)
		}
		kc = &c
	}
	lc, rec, err := serve.NewLifecycle(serve.LifecycleConfig{
		Hop: "proxy", Name: "router", ErrDraining: ErrDraining,
		Obs: cfg.Obs, Watch: cfg.Watch, Sample: rt.watchSample,
		Keyed: kc, KeyedStore: cfg.KeyedStore, Stop: func() { rt.cancel(); rt.loops.Wait() },
	})
	if err != nil {
		return nil, nil, err
	}
	rt.Lifecycle = lc
	if rec != nil {
		// The recovered map may remember bins as down, but this
		// process's membership starts every slot in rotation:
		// reconcile (SetUp is a no-op for already-up bins). A backend
		// that is genuinely still dead is re-evicted by probes/traffic,
		// which journals a fresh OpDown.
		for slot := range cfg.Backends {
			rt.Keyed().SetUp(slot)
		}
	}
	// The keyed tier follows membership synchronously: an eviction
	// rebalances exactly the keys resident on the dead slot (the KeyMap
	// has its own lock and never calls back into Membership, so nesting
	// under the membership lock is safe), a rejoin only reopens the slot
	// for future picks.
	km := rt.Keyed()
	rt.ms.onChange = func(slot int, up bool) {
		if km != nil && !up {
			t0 := time.Now()
			// resident (the dead slot's replica count) is read before
			// SetDown from the same KeyMap the rebalance mutates; the
			// paper's minimal-disruption claim is that a rebalance moves
			// only what was resident on the lost bin, so moved > resident
			// is a violation worth reporting the moment it happens rather
			// than on the next watchdog cadence.
			var resident int64
			if st := km.Stats(); slot < len(st.PerBinKeys) {
				resident = st.PerBinKeys[slot]
			}
			moved, shed := km.SetDown(slot)
			c := rt.Obs().BeginAt(0, "rebalance", t0)
			c.Attr("slot", int64(slot))
			c.Attr("keys_moved", moved)
			c.End(nil)
			rt.Watch().Record(watch.EventRebalance, fmt.Sprintf("slot %d down: %d key replicas moved", slot, moved),
				map[string]int64{"slot": int64(slot), "keys_moved": moved, "keys_shed": shed, "resident": resident})
			if moved > resident {
				rt.Watch().ReportViolation("keyed_rebalance_moved", moved, resident,
					map[string]int64{"slot": int64(slot)})
			}
		}
		if up {
			if km != nil {
				km.SetUp(slot)
			}
			rt.Watch().Record(watch.EventRejoin, fmt.Sprintf("backend %d rejoined", slot),
				map[string]int64{"slot": int64(slot)})
			rt.logger.Info("cluster: backend rejoined, forcing load re-poll", "slot", slot)
		} else {
			rt.Watch().Record(watch.EventEviction, fmt.Sprintf("backend %d evicted", slot),
				map[string]int64{"slot": int64(slot)})
			rt.logger.Warn("cluster: backend evicted", "slot", slot)
		}
	}

	// Seed the view so the first picks are informed (best-effort; a
	// backend that is down simply stays unpolled).
	initCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	rt.loadRound(initCtx, 2*time.Second)
	cancel()

	loopCtx, loopCancel := context.WithCancel(context.Background())
	rt.cancel = loopCancel
	rt.every(loopCtx, cfg.HealthEvery, rt.healthRound)
	rt.every(loopCtx, cfg.Staleness, func(ctx context.Context) {
		rt.loadRound(ctx, cfg.Staleness)
		rt.rotateWindow()
	})
	rt.Watch().Start()
	return rt, rec, nil
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

// View exposes the load view (read-side: Load, Delta).
func (rt *Router) View() *LoadView { return rt.view }

// N returns the cluster's total bin count (backends × bins each).
func (rt *Router) N() int { return len(rt.cfg.Backends) * rt.n }

// BinsPerBackend returns each backend's bin count.
func (rt *Router) BinsPerBackend() int { return rt.n }

// Policy returns the routing policy's name.
func (rt *Router) Policy() string { return rt.policy.Name() }

// pick runs one policy decision for a bulk of count balls under the
// RNG lock: protocol.Pick over uniform draws of the healthy slots,
// probing their loads in the view at the live total i (the bulk
// included). probes is the view probes consumed, the routing analogue
// of the paper's allocation time. A pick that took the least loaded
// slot although the policy would accept an empty one is a fallback:
// the chosen backend never passed the acceptance test, so load bounds
// derived from that test do not cover it. Greedy refuses even an empty
// backend, so its least-of-d is never a fallback. staleMs is how old
// the chosen slot's poll was at the op's begin t0 (-1 when the slot
// was never polled, i.e. the view ran on local accounting alone).
func (rt *Router) pick(healthy []int, count int, t0 time.Time) (slot int, probes int, staleMs int64) {
	k := len(healthy)
	rt.mu.Lock()
	i := rt.view.Total(healthy) + int64(count)
	slot, probes, accepted := protocol.Pick(rt.policy, k, i, rt.policy.MaxProbes(k), func() (int, int64, bool) {
		s := healthy[rt.rnd.Intn(k)]
		return s, rt.view.Load(s), true
	})
	rt.mu.Unlock()
	rt.picks.Add(1)
	rt.probes.Add(int64(probes))
	if !accepted && rt.policy.Accept(k, 0, i) {
		rt.fallbacks.Add(1)
	}
	for {
		cur := rt.maxBulk.Load()
		if int64(count) <= cur || rt.maxBulk.CompareAndSwap(cur, int64(count)) {
			break
		}
	}
	return slot, probes, rt.recordStaleness(slot, t0)
}

// recordStaleness records how old slot's polled load was at t0 into the
// pick-staleness histogram and returns it in milliseconds (-1 and no
// record when the slot has never been polled).
func (rt *Router) recordStaleness(slot int, t0 time.Time) int64 {
	age, ok := rt.view.age(slot, t0)
	if !ok {
		return -1
	}
	ms := age.Milliseconds()
	rt.pickStaleness.Record(ms)
	return ms
}

// badRequest is the answer to a malformed request, refused before
// admission.
func badRequest(format string, args ...any) error {
	return &wire.Error{Code: wire.CodeBadRequest, Msg: fmt.Sprintf(format, args...)}
}

// begin opens op's traced capture at t0. When this hop head-sampled
// the op, the minted trace id rides ctx downstream, so the backend
// records its spans under the same trace.
func (rt *Router) begin(ctx context.Context, op string, t0 time.Time) (context.Context, obs.Capture) {
	upstream := obs.TraceFrom(ctx)
	c := rt.Obs().BeginAt(upstream, op, t0)
	if id := c.Trace(); id != upstream {
		ctx = obs.WithTrace(ctx, id)
	}
	return ctx, c
}

// verdict reads backend slot's answer err for membership and reports
// whether a place should fail over. nil, and a healthy backend's
// refusal (full, empty bin), is a success: failing over would only
// evict healthy backends. A failure of the caller's own ctx
// (disconnect, deadline) is no evidence at all, or two client
// disconnects could evict a healthy backend. Anything else is a
// failure, which counts toward eviction.
func (rt *Router) verdict(ctx context.Context, slot int, err error) (failover bool) {
	switch {
	case err == nil, errors.Is(err, serve.ErrFull), errors.Is(err, serve.ErrEmptyBin):
		rt.ms.ReportSuccess(slot)
	case ctx.Err() == nil:
		rt.ms.ReportFailure(slot)
		return true
	}
	return false
}

// Place routes count balls to one policy-chosen backend and returns
// their global bins plus the backend-reported allocation samples. When
// the chosen backend fails the request fails over to another healthy
// backend (a dead backend is evicted by its own traffic); Place fails
// only when every healthy backend has been tried, or with the chosen
// backend's own refusal, such as serve.ErrFull. count is at most
// serve.MaxBulkPlace, the bound every front end keeps.
func (rt *Router) Place(ctx context.Context, count int) ([]int, int64, error) {
	if count < 1 || count > serve.MaxBulkPlace {
		return nil, 0, badRequest("cluster: Place count %d outside [1,%d]", count, serve.MaxBulkPlace)
	}
	return rt.place(ctx, count, "")
}

// PlaceKeyed routes one ball for key to the key's assigned backend —
// the keyed tier's dispatch path. First contact probes an assignment
// under the keyed policy's bounded-load rule; repeat traffic hits the
// same backend with zero probes; a hot key spreads over its replica
// set. When the assigned backend fails, the key's replica is moved
// (one deterministic re-probe of its own sequence, counted in
// moved_keys) and the placement retries there, so a backend death
// costs zero client-visible place errors. A key longer than
// wire.MaxKeyLen is refused. Without a keyed tier, or with key "",
// PlaceKeyed is Place of one ball.
func (rt *Router) PlaceKeyed(ctx context.Context, key string) ([]int, int64, error) {
	if len(key) > wire.MaxKeyLen {
		return nil, 0, badRequest("cluster: key of %d bytes exceeds %d", len(key), wire.MaxKeyLen)
	}
	if rt.Keyed() == nil || key == "" {
		return rt.Place(ctx, 1)
	}
	return rt.place(ctx, 1, key)
}

// place is the router's one failover loop, for anonymous places (key
// "") and keyed ones. They differ only in where each attempt's slot
// comes from: a fresh policy pick among the untried healthy slots, or
// the key's affinity (KeyMap.Route, then MoveOff after a failure).
func (rt *Router) place(ctx context.Context, count int, key string) (bins []int, samples int64, err error) {
	if err := rt.Admit(ctx); err != nil {
		return nil, 0, err
	}
	defer rt.Done()
	t0 := time.Now()
	ctx, c := rt.begin(ctx, "place", t0)
	km := rt.Keyed()
	slot := -1
	var candidates, tried []int
	var probes, failovers int
	staleMs := int64(-1)
	var lastErr error
	defer func() {
		// Route counted the key's ball against slot: an exit that placed
		// nothing releases that ref, or a failed request would leave the
		// key looking busy forever (immune to idle eviction, inflating
		// live-ball balancing).
		if err != nil && key != "" && slot >= 0 {
			km.Release(key, slot)
		}
		if key == "" {
			c.Attr("count", int64(count))
			c.Attr("probes", int64(probes))
		}
		c.Attr("failovers", int64(failovers))
		if staleMs >= 0 {
			c.Attr("staleness_ms_at_pick", staleMs)
		}
		c.End(err)
	}()
	if key == "" {
		candidates = rt.ms.Healthy()
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		switch {
		case key == "":
			// Keyed decisions and their probes are accounted in the keyed
			// stats block, not in picks/probes: probes_per_pick's
			// denominator is anonymous policy picks.
			if slot >= 0 {
				candidates = without(candidates, slot)
			}
			if len(candidates) == 0 {
				return nil, 0, exhausted(lastErr)
			}
			pickAt := c.Elapsed()
			var p int
			slot, p, staleMs = rt.pick(candidates, count, t0)
			c.StageElapsed("probe", pickAt, c.Elapsed())
			probes += p
		case slot < 0:
			s, keyProbes, hit, rerr := km.Route(key)
			c.StageElapsed("probe", 0, c.Elapsed())
			c.Attr("key_probes", int64(keyProbes))
			if hit {
				c.Attr("key_hit", 1)
			}
			if rerr != nil {
				return nil, 0, ErrNoBackends
			}
			slot, staleMs = s, rt.recordStaleness(s, t0)
		default:
			tried = append(tried, slot)
			next, merr := km.MoveOff(key, slot, tried)
			if merr != nil {
				return nil, 0, exhausted(lastErr) // no healthy slot outside tried
			}
			slot = next
		}
		fwdAt := c.Elapsed()
		b := rt.ms.Backend(slot)
		if key == "" {
			bins, samples, err = b.Place(ctx, count)
		} else {
			bins, samples, err = b.PlaceKey(ctx, key)
		}
		c.StageElapsed("forward", fwdAt, c.Elapsed())
		if !rt.verdict(ctx, slot, err) {
			if err != nil {
				return nil, 0, err
			}
			rt.view.Note(slot, int64(count))
			for i := range bins {
				bins[i] += slot * rt.n
			}
			rt.window.Record(int64(time.Since(t0)))
			return bins, samples, nil
		}
		lastErr = err
		failovers++
		rt.failovers.Add(1)
	}
}

// exhausted is a place's answer once no slot is left to try: the last
// backend's failure, or ErrNoBackends when no backend was tried.
func exhausted(lastErr error) error {
	if lastErr == nil {
		return ErrNoBackends
	}
	return fmt.Errorf("cluster: place failed on every healthy backend: %w", lastErr)
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
// as the anonymous path. A key longer than wire.MaxKeyLen is refused.
func (rt *Router) RemoveKeyed(ctx context.Context, bin int, key string) error {
	if bin < 0 || bin >= rt.N() {
		return badRequest("cluster: bin %d outside [0,%d)", bin, rt.N())
	}
	if len(key) > wire.MaxKeyLen {
		return badRequest("cluster: key of %d bytes exceeds %d", len(key), wire.MaxKeyLen)
	}
	if err := rt.Admit(ctx); err != nil {
		return err
	}
	defer rt.Done()
	slot, local := bin/rt.n, bin%rt.n
	if !rt.ms.IsUp(slot) {
		return ErrBackendDown
	}
	ctx, c := rt.begin(ctx, "remove", time.Now())
	err := rt.ms.Backend(slot).RemoveKey(ctx, local, key)
	c.StageElapsed("forward", 0, c.Elapsed())
	// A remove never fails over: the ball lives on slot alone. Its
	// failures still count toward eviction, so a dead backend serving
	// only departures leaves rotation.
	rt.verdict(ctx, slot, err)
	if err == nil {
		rt.view.Note(slot, -1)
		if km := rt.Keyed(); km != nil && key != "" {
			km.Release(key, slot)
		}
	}
	c.End(err)
	return err
}

// PickStaleness returns the staleness-at-pick distribution snapshot
// (milliseconds of load-view age at each routing decision).
func (rt *Router) PickStaleness() hdrhist.Snapshot { return rt.pickStaleness.Snapshot() }

// PlaceLatency returns the cumulative place latency: the recorder's
// "place" op total, so it counts failed places too and is empty when
// Config.Obs.Disabled.
func (rt *Router) PlaceLatency() hdrhist.Snapshot { return rt.Obs().UnionSnapshot("place") }

// WindowLatency returns the last completed staleness window's place
// latency and the window length in seconds (zero before the first
// rotation).
func (rt *Router) WindowLatency() (hdrhist.Snapshot, float64) {
	if w := rt.lastWindow.Load(); w != nil {
		return w.snap, w.secs
	}
	return hdrhist.Snapshot{}, 0
}
