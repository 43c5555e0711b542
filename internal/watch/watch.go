// Package watch is the invariant watchdog and time-series engine: the
// runtime face of the paper's guarantee. The allocator proves its
// bounds at test time; watch re-proves them continuously against the
// live system, on a configurable cadence, and keeps the history.
//
// A Monitor owns three bounded structures, all lock-free on the read
// side (the obs.Recorder atomic-pointer-ring idiom, so scrapers never
// block traffic):
//
//   - An event journal: a ring of typed events (BOUND_VIOLATION,
//     EVICTION, REJOIN, REBALANCE, RECOVERY, DRAIN) served as
//     GET /v1/events and counted in bb_event_total{type=}.
//
//   - A violation ledger: per-invariant counters behind
//     bb_invariant_violations_total{invariant=}. Violations are
//     edge-triggered — one event per transition into violation, not
//     one per tick — and every violation is slog-logged with the
//     offending snapshot.
//
//   - A time-series ring: per-tick Points (gap, max load, psi, ops/s,
//     affinity hit rate, pick staleness, per-stage p99s) served as
//     GET /v1/timeseries?window= and joined by bbload into the
//     gap_over_time result column.
//
// The tier under watch supplies a Probe closure returning one Sample:
// a Point plus the armed Checks, all read from that tier's own
// consistent stats paths (per-shard post-batch rows and lock-all
// Metrics on serve; the single-pass Stats aggregation on cluster; the
// mutex-consistent keyed block). A Check that appears violated is
// re-probed once before it fires, so a transient cross-read skew can
// never alarm — a real breach (or an injected test bound) persists
// and is reported within one cadence.
package watch

import (
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// EventType classifies journal entries.
type EventType string

// The journal's event vocabulary.
const (
	EventBoundViolation EventType = "BOUND_VIOLATION"
	EventEviction       EventType = "EVICTION"
	EventRejoin         EventType = "REJOIN"
	EventRebalance      EventType = "REBALANCE"
	EventRecovery       EventType = "RECOVERY"
	EventDrain          EventType = "DRAIN"
)

// EventTypes lists every event type in a fixed order (the metrics
// exposition order, so bb_event_total always carries all labels).
func EventTypes() []EventType {
	return []EventType{
		EventBoundViolation, EventEviction, EventRejoin,
		EventRebalance, EventRecovery, EventDrain,
	}
}

func typeIndex(t EventType) int {
	for i, k := range EventTypes() {
		if k == t {
			return i
		}
	}
	return -1
}

// Event is one journal entry. Fields carries the offending snapshot's
// integer facts (observed/bound for violations, slot/keys_moved for
// rebalances, ...).
type Event struct {
	Seq        int64            `json:"seq"`
	TimeUnixMs int64            `json:"t_ms"`
	Type       EventType        `json:"type"`
	Invariant  string           `json:"invariant,omitempty"`
	Detail     string           `json:"detail"`
	Fields     map[string]int64 `json:"fields,omitempty"`
}

// Check is one armed invariant evaluation: the predicate is
// Observed <= Bound. The tier arms only the checks whose bound its
// configuration actually guarantees (a greedy spec has no hard max-
// load bound, so its tier simply omits that check).
type Check struct {
	Invariant string `json:"invariant"`
	Observed  int64  `json:"observed"`
	Bound     int64  `json:"bound"`
	// Fields is the snapshot context attached to a violation event.
	Fields map[string]int64 `json:"fields,omitempty"`
}

// Sample is one probe result: the time-series Point plus the armed
// checks, read from one consistent pass over the tier's stats.
type Sample struct {
	Point  Point
	Checks []Check
}

// Defaults for Options zero values.
const (
	DefaultCadence     = time.Second
	DefaultEventRing   = 256
	DefaultSeriesSlots = 512
)

// Options configures a Monitor. Zero values take the defaults above.
type Options struct {
	// Cadence is the watchdog/collector tick period.
	Cadence time.Duration
	// EventRing bounds the event journal; SeriesSlots the time-series
	// ring.
	EventRing   int
	SeriesSlots int
	// Logger receives violation records (default slog.Default).
	Logger *slog.Logger
	// Disabled makes New return nil (all Monitor methods are nil-safe
	// no-ops).
	Disabled bool
}

// Monitor is one tier's watchdog. Construct with New, then Start to
// run the collector goroutine; Tick evaluates one pass synchronously
// (the deterministic path tests use). All methods are safe for
// concurrent use and safe on a nil receiver.
type Monitor struct {
	hop     string
	cadence time.Duration
	logger  *slog.Logger
	probe   func() Sample

	ring    []atomic.Pointer[Event]
	cursor  atomic.Uint64
	seq     atomic.Int64
	typeCnt [6]atomic.Int64
	violCnt atomic.Int64

	series *series

	// onViolation, when set, is invoked (in the reporting goroutine)
	// with every violation event just after it is booked — the flight
	// recorder's trigger hook.
	onViolation atomic.Pointer[func(Event)]

	// mu guards the violation ledger, the edge-trigger state, the
	// test-hook bound overrides and the last-checks snapshot.
	mu          sync.Mutex
	violations  map[string]int64
	inViolation map[string]bool
	overrides   map[string]int64
	lastChecks  []Check

	// tickMu serializes Tick (collector goroutine vs. a test's manual
	// ticks) and guards the ops/s derivation state.
	tickMu   sync.Mutex
	lastOps  int64
	lastTick time.Time

	startMu sync.Mutex
	stop    chan struct{}
	done    chan struct{}
}

// New builds a Monitor for the given hop ("serve", "proxy"), or nil
// when o.Disabled. probe may be nil for an events-only monitor.
func New(hop string, o Options, probe func() Sample) *Monitor {
	if o.Disabled {
		return nil
	}
	if o.Cadence <= 0 {
		o.Cadence = DefaultCadence
	}
	if o.EventRing <= 0 {
		o.EventRing = DefaultEventRing
	}
	if o.SeriesSlots <= 0 {
		o.SeriesSlots = DefaultSeriesSlots
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	return &Monitor{
		hop:         hop,
		cadence:     o.Cadence,
		logger:      o.Logger,
		probe:       probe,
		ring:        make([]atomic.Pointer[Event], o.EventRing),
		series:      newSeries(o.SeriesSlots),
		violations:  make(map[string]int64),
		inViolation: make(map[string]bool),
		overrides:   make(map[string]int64),
	}
}

// Hop returns the tier tag the monitor was built with.
func (m *Monitor) Hop() string {
	if m == nil {
		return ""
	}
	return m.hop
}

// Cadence returns the tick period (0 on nil).
func (m *Monitor) Cadence() time.Duration {
	if m == nil {
		return 0
	}
	return m.cadence
}

// Start launches the collector goroutine. Idempotent; a no-op without
// a probe.
func (m *Monitor) Start() {
	if m == nil || m.probe == nil {
		return
	}
	m.startMu.Lock()
	defer m.startMu.Unlock()
	if m.stop != nil {
		return
	}
	m.stop = make(chan struct{})
	m.done = make(chan struct{})
	go m.run(m.stop, m.done)
}

func (m *Monitor) run(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(m.cadence)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-t.C:
			m.Tick(now)
		}
	}
}

// Close stops the collector goroutine. The journal and series remain
// readable (handlers may serve during shutdown). Idempotent.
func (m *Monitor) Close() {
	if m == nil {
		return
	}
	m.startMu.Lock()
	defer m.startMu.Unlock()
	if m.stop == nil {
		return
	}
	close(m.stop)
	<-m.done
	m.stop, m.done = nil, nil
}

// Tick runs one sample-and-check pass: probe the tier, derive ops/s,
// evaluate the armed invariants edge-triggered, and record the Point.
// Exported so tests drive the watchdog deterministically without the
// collector goroutine.
func (m *Monitor) Tick(now time.Time) {
	if m == nil || m.probe == nil {
		return
	}
	m.tickMu.Lock()
	defer m.tickMu.Unlock()
	s := m.probe()
	p := s.Point
	p.TimeUnixMs = now.UnixMilli()
	ops := p.Placed + p.Removed
	if !m.lastTick.IsZero() {
		if dt := now.Sub(m.lastTick).Seconds(); dt > 0 && ops >= m.lastOps {
			p.OpsPerSec = float64(ops-m.lastOps) / dt
		}
	}
	m.lastOps, m.lastTick = ops, now
	m.rememberChecks(s.Checks)
	m.evaluate(now, s.Checks)
	p.Violations = m.violCnt.Load()
	m.series.add(&p)
}

// rememberChecks stores this tick's armed checks (with any override
// bounds applied) for LastChecks — the diagnostic-bundle view of how
// close each invariant sat to its bound at capture time.
func (m *Monitor) rememberChecks(checks []Check) {
	snap := make([]Check, len(checks))
	for i, ck := range checks {
		ck.Bound = m.boundFor(ck)
		snap[i] = ck
	}
	m.mu.Lock()
	m.lastChecks = snap
	m.mu.Unlock()
}

// LastChecks returns the most recent tick's armed checks, override
// bounds applied (nil before the first tick or on a nil monitor).
func (m *Monitor) LastChecks() []Check {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Check, len(m.lastChecks))
	copy(out, m.lastChecks)
	return out
}

// OnViolation installs fn as the violation hook: it runs synchronously
// after each violation is booked (journal, ledger, log), receiving the
// event just appended. One hook at a time; nil clears it. Nil-safe.
func (m *Monitor) OnViolation(fn func(Event)) {
	if m == nil {
		return
	}
	if fn == nil {
		m.onViolation.Store(nil)
		return
	}
	m.onViolation.Store(&fn)
}

// boundFor applies a test-hook override to a check's bound.
func (m *Monitor) boundFor(ck Check) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if b, ok := m.overrides[ck.Invariant]; ok {
		return b
	}
	return ck.Bound
}

// evaluate runs the edge-triggered violation detector over one tick's
// checks. A check entering violation is confirmed by one fresh
// re-probe before it fires (transient cross-read skew clears on the
// second read; a genuine breach persists), then emits exactly one
// BOUND_VIOLATION event, one counter increment, and one slog record —
// and nothing more until the invariant recovers and breaks again.
func (m *Monitor) evaluate(now time.Time, checks []Check) {
	for _, ck := range checks {
		bound := m.boundFor(ck)
		violated := ck.Observed > bound
		m.mu.Lock()
		was := m.inViolation[ck.Invariant]
		m.mu.Unlock()
		if violated && !was {
			if fresh, ok := m.reprobe(ck.Invariant); ok {
				ck = fresh
				bound = m.boundFor(ck)
				violated = ck.Observed > bound
			} else {
				violated = false // disarmed between reads: not a breach
			}
		}
		switch {
		case violated && !was:
			m.mu.Lock()
			m.inViolation[ck.Invariant] = true
			m.mu.Unlock()
			m.reportViolation(now, ck.Invariant, ck.Observed, bound, ck.Fields)
		case !violated && was:
			m.mu.Lock()
			delete(m.inViolation, ck.Invariant)
			m.mu.Unlock()
		}
	}
}

// reprobe re-reads the named invariant from a fresh sample.
func (m *Monitor) reprobe(invariant string) (Check, bool) {
	for _, ck := range m.probe().Checks {
		if ck.Invariant == invariant {
			return ck, true
		}
	}
	return Check{}, false
}

// reportViolation books one violation: ledger, journal, metrics, log.
func (m *Monitor) reportViolation(now time.Time, invariant string, observed, bound int64, fields map[string]int64) {
	m.mu.Lock()
	m.violations[invariant]++
	m.mu.Unlock()
	m.violCnt.Add(1)
	f := make(map[string]int64, len(fields)+2)
	for k, v := range fields {
		f[k] = v
	}
	f["observed"], f["bound"] = observed, bound
	detail := fmt.Sprintf("%s: observed %d > bound %d", invariant, observed, bound)
	ev := m.appendAt(now, EventBoundViolation, invariant, detail, f)
	attrs := []any{"hop", m.hop, "invariant", invariant, "observed", observed, "bound", bound}
	for k, v := range fields {
		attrs = append(attrs, k, v)
	}
	m.logger.Error("watch: invariant violated", attrs...)
	if fn := m.onViolation.Load(); fn != nil {
		(*fn)(*ev)
	}
}

// ReportViolation books a violation detected outside the tick loop —
// the rebalance-time moved<=resident check fires here, at the moment
// the rebalance runs, rather than waiting for a cadence.
func (m *Monitor) ReportViolation(invariant string, observed, bound int64, fields map[string]int64) {
	if m == nil {
		return
	}
	m.reportViolation(time.Now(), invariant, observed, bound, fields)
}

// OverrideBound is the violation-injection test hook: it replaces the
// named invariant's bound on every subsequent evaluation, so a bogus
// bound (say, -1) forces a deterministic BOUND_VIOLATION within one
// cadence without corrupting any real state.
func (m *Monitor) OverrideBound(invariant string, bound int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.overrides[invariant] = bound
}

// ClearOverride removes an injected bound.
func (m *Monitor) ClearOverride(invariant string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.overrides, invariant)
}

// Record appends an external lifecycle event (EVICTION, REJOIN,
// REBALANCE, RECOVERY, DRAIN) to the journal.
func (m *Monitor) Record(t EventType, detail string, fields map[string]int64) {
	if m == nil {
		return
	}
	m.appendAt(time.Now(), t, "", detail, fields)
}

// RecordError journals a lifecycle step that failed (say, a drain
// whose final snapshot could not be written) and mirrors it to the
// logger at ERROR: such a step runs where no caller is left to hand
// the error to. On a nil Monitor it still logs, to slog.Default().
func (m *Monitor) RecordError(t EventType, detail string, err error) {
	if m == nil {
		slog.Error("watch: "+detail, "type", string(t), "err", err)
		return
	}
	m.appendAt(time.Now(), t, "", detail+": "+err.Error(), nil)
	m.logger.Error("watch: "+detail, "hop", m.hop, "type", string(t), "err", err)
}

// appendAt publishes one event into the journal ring (the
// obs.Recorder idiom: claim a slot with the cursor, store the
// immutable entry behind an atomic pointer).
func (m *Monitor) appendAt(now time.Time, t EventType, invariant, detail string, fields map[string]int64) *Event {
	ev := &Event{
		Seq:        m.seq.Add(1),
		TimeUnixMs: now.UnixMilli(),
		Type:       t,
		Invariant:  invariant,
		Detail:     detail,
		Fields:     fields,
	}
	if i := typeIndex(t); i >= 0 {
		m.typeCnt[i].Add(1)
	}
	slot := (m.cursor.Add(1) - 1) % uint64(len(m.ring))
	m.ring[slot].Store(ev)
	return ev
}

// Events snapshots the journal: every retained event with Seq >
// since, oldest first. since=0 returns the whole ring.
func (m *Monitor) Events(since int64) []Event {
	if m == nil {
		return nil
	}
	out := make([]Event, 0, len(m.ring))
	for i := range m.ring {
		if ev := m.ring[i].Load(); ev != nil && ev.Seq > since {
			out = append(out, *ev)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// LastSeq returns the newest event's sequence number (0 when empty).
func (m *Monitor) LastSeq() int64 {
	if m == nil {
		return 0
	}
	return m.seq.Load()
}

// EventCounts returns cumulative appends per event type — every type
// is present, zero or not, so metric label sets are stable.
func (m *Monitor) EventCounts() map[EventType]int64 {
	if m == nil {
		return nil
	}
	out := make(map[EventType]int64, len(m.typeCnt))
	for i, t := range EventTypes() {
		out[t] = m.typeCnt[i].Load()
	}
	return out
}

// ViolationsTotal returns the cumulative violation count across all
// invariants.
func (m *Monitor) ViolationsTotal() int64 {
	if m == nil {
		return 0
	}
	return m.violCnt.Load()
}

// ViolationCounts returns the per-invariant violation ledger.
func (m *Monitor) ViolationCounts() map[string]int64 {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int64, len(m.violations))
	for k, v := range m.violations {
		out[k] = v
	}
	return out
}

// Series returns the last n time-series points, oldest first (n<=0
// returns everything retained).
func (m *Monitor) Series(n int) []Point {
	if m == nil {
		return nil
	}
	return m.series.last(n)
}
