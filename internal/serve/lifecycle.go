package serve

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/diag"
	"repro/internal/keyed"
	"repro/internal/obs"
	"repro/internal/watch"
)

// Lifecycle is what both serving tiers keep around their dispatch
// path: admission and drain, the keyed map and its durable store, the
// trace recorder, the invariant watchdog with its RECOVERY and DRAIN
// events, and the flight recorder. Dispatcher and cluster.Router embed
// it, so both admit, drain, recover and seal alike, and their Tier
// methods Obs, Watch, Diag, BindDiag, Durability, Draining and Close
// come from here. A tier brackets each of its own calls with Admit and
// Done; nothing outside the tier needs those two.
type Lifecycle struct {
	obs   *obs.Recorder                 // stage decomposition + slow-op ring (nilable)
	watch *watch.Monitor                // invariant watchdog + time series (nilable)
	diag  atomic.Pointer[diag.Recorder] // flight recorder, bound late (nilable)
	km    *keyed.KeyMap                 // nil when the tier routes no keys
	store *keyed.Store                  // nil unless the keyed map is durable

	name        string // the tier, in its DRAIN event
	errDraining error
	stop        func()

	// drainMu is held shared for the whole of every admitted call and
	// exclusively by Close once draining is set, so Close returns only
	// after every admitted call has. (A WaitGroup would not do: its
	// counter legally hits zero mid-drain while admitted callers keep
	// arriving, and Add-from-zero concurrent with Wait panics.)
	drainMu  sync.RWMutex
	draining atomic.Bool
}

// LifecycleConfig describes a tier's Lifecycle.
type LifecycleConfig struct {
	Hop         string // the watchdog's hop, and the recorder's unless Obs.Hop is set
	Name        string // the tier in its DRAIN event
	ErrDraining error  // what Admit returns once draining has begun
	Obs         obs.Options
	Watch       watch.Options
	Sample      func() watch.Sample // one watchdog sample of the tier
	// Keyed, when non-nil, builds the keyed map (the tier fills in its
	// Bins and Seed); KeyedStore makes it durable.
	Keyed      *keyed.Config
	KeyedStore *keyed.StoreOptions
	// Stop, when non-nil, stops the tier's own background work; Close
	// and Crash call it before sealing or abandoning the store.
	Stop func()
}

// NewLifecycle builds a tier's lifecycle. A durable keyed map is
// recovered from its WAL directory first, the one step that can fail;
// a RECOVERY event and the returned RecoveryInfo (nil without a store)
// say what was rebuilt. The watchdog is built but not started.
func NewLifecycle(c LifecycleConfig) (*Lifecycle, *keyed.RecoveryInfo, error) {
	l := &Lifecycle{name: c.Name, errDraining: c.ErrDraining, stop: c.Stop}
	var rec *keyed.RecoveryInfo
	if c.Keyed != nil && c.KeyedStore != nil {
		var err error
		if l.store, rec, err = keyed.OpenStore(*c.Keyed, *c.KeyedStore); err != nil {
			return nil, nil, err
		}
		l.km = l.store.M
	} else if c.Keyed != nil {
		l.km = keyed.New(*c.Keyed)
	}
	if c.Obs.Hop == "" {
		c.Obs.Hop = c.Hop
	}
	l.obs = obs.NewRecorder(c.Obs)
	l.watch = watch.New(c.Hop, c.Watch, c.Sample)
	if rec != nil {
		l.watch.Record(watch.EventRecovery, "keyed tier recovered from store", map[string]int64{
			"snapshot_keys":    rec.SnapshotKeys,
			"replayed_records": rec.ReplayedRecords,
			"replay_ms":        rec.ReplayMs,
		})
	}
	return l, rec, nil
}

// Admit takes the shared drain lock for the caller's whole call, which
// ends with Done, unless draining has begun (the tier's ErrDraining)
// or ctx is already done. Close sets draining before taking the lock
// exclusively, so either Admit sees the flag and backs out, or Close
// waits for the call. A call is admitted once: a nested Admit would
// wait behind a Close that waits for its caller.
func (l *Lifecycle) Admit(ctx context.Context) error {
	l.drainMu.RLock()
	if l.draining.Load() {
		l.drainMu.RUnlock()
		return l.errDraining
	}
	if err := ctx.Err(); err != nil {
		l.drainMu.RUnlock()
		return err
	}
	return nil
}

// Done ends a call Admit admitted.
func (l *Lifecycle) Done() { l.drainMu.RUnlock() }

// Draining reports whether Close (or Crash) has begun.
func (l *Lifecycle) Draining() bool { return l.draining.Load() }

// Close drains the tier: new calls are refused with its ErrDraining,
// and Close waits for every admitted call to return. It then stops the
// tier's background work and seals a keyed store with a final
// compacting snapshot, so a TERM/restart cycle loses zero assignments;
// a failed seal is recorded as a DRAIN event and logged at ERROR.
// Idempotent.
func (l *Lifecycle) Close() {
	if l.draining.CompareAndSwap(false, true) {
		l.watch.Record(watch.EventDrain, l.name+" draining", nil)
	}
	l.drainMu.Lock() // every admitted call has returned
	l.drainMu.Unlock()
	if l.stop != nil {
		l.stop()
	}
	if l.store != nil {
		if err := l.store.Close(); err != nil {
			l.watch.RecordError(watch.EventDrain, "keyed store seal failed", err)
		}
	}
	l.watch.Close()
}

// Crash stops the tier WITHOUT waiting for admitted calls, the final
// snapshot or a log flush: the in-process kill -9 of restart
// scenarios, after which recovery sees only what the fsync policy
// already made durable. Idempotent.
func (l *Lifecycle) Crash() {
	l.draining.Store(true)
	if l.stop != nil {
		l.stop()
	}
	l.watch.Close()
	if l.store != nil {
		l.store.Crash()
	}
}

// Keyed returns the keyed map, nil when the tier routes no keys.
func (l *Lifecycle) Keyed() *keyed.KeyMap { return l.km }

// Durability returns the keyed store's durability block, nil without
// a store.
func (l *Lifecycle) Durability() *keyed.DurabilityStats {
	if l.store == nil {
		return nil
	}
	ds := l.store.Durability()
	return &ds
}

// Obs returns the trace recorder (nil when recording is disabled).
func (l *Lifecycle) Obs() *obs.Recorder { return l.obs }

// Watch returns the invariant monitor (nil when it is disabled).
func (l *Lifecycle) Watch() *watch.Monitor { return l.watch }

// BindDiag attaches the flight recorder (built late by the daemon,
// since its capture closures need the assembled stats surface) and
// wires it to the watchdog's violation hook.
func (l *Lifecycle) BindDiag(rec *diag.Recorder) {
	if rec == nil {
		return
	}
	l.diag.Store(rec)
	l.watch.OnViolation(rec.OnViolation)
}

// Diag returns the bound flight recorder (nil when diagnostics are
// off).
func (l *Lifecycle) Diag() *diag.Recorder { return l.diag.Load() }

// AppendKeyedMaxCheck appends both tiers' keyed max-load check, named
// invariant with the live bin count under the field healthy, when ks
// is non-nil and its policy defends a bound. MaxKeyLoad and
// PolicyBound come from one KeyMap lock hold, so they describe one
// instant. One unit of slack covers churn residuals: a key assigned at
// a high replica count legitimately outlives the count's decline (the
// keyed churn tests allow the same).
func AppendKeyedMaxCheck(checks []watch.Check, invariant, healthy string, ks *keyed.Stats) []watch.Check {
	if ks == nil || ks.PolicyBound <= 0 {
		return checks
	}
	return append(checks, watch.Check{
		Invariant: invariant,
		Observed:  ks.MaxKeyLoad,
		Bound:     ks.PolicyBound + 1,
		Fields: map[string]int64{
			"keys": ks.Keys, "replicas": ks.Replicas, healthy: int64(ks.Healthy),
		},
	})
}
