package cluster

import (
	"sync"
	"sync/atomic"
)

// Membership is the backend registry: a fixed list of slots, each
// either in rotation (up) or evicted. Backends never change slots, so
// the global bin numbering slot·n + local is stable across eviction
// and rejoin — a ball placed on a backend that later flaps is
// reachable again at the same global bin once the backend returns.
//
// Eviction and rejoin are driven by consecutive evidence: FailAfter
// consecutive failures (health probes or live-traffic errors reported
// by the Router) evict a slot, RiseAfter consecutive successful health
// probes re-admit it. Counters reset on contrary evidence, so a flappy
// backend needs a genuine streak to change state.
type Membership struct {
	members []*member
	// mu guards the evidence counters and state transitions; the
	// healthy-set snapshot is read lock-free.
	mu      sync.Mutex
	healthy atomic.Pointer[[]int]

	failAfter int
	riseAfter int

	evictions atomic.Int64
	rejoins   atomic.Int64

	// onChange, when set (before the health loop starts), is invoked
	// after every state transition with the slot and its new state.
	onChange func(slot int, up bool)
}

type member struct {
	backend Backend
	up      atomic.Bool
	// suspect mirrors fails > 0, so the traffic hot path can skip the
	// lock when there is no streak to clear.
	suspect atomic.Bool
	// fails counts consecutive failures (probe or traffic) while up;
	// rises counts consecutive probe successes while down. Guarded by
	// Membership.mu.
	fails, rises int
}

// NewMembership registers the backends, all initially in rotation.
// failAfter and riseAfter default to 2 when ≤ 0.
func NewMembership(backends []Backend, failAfter, riseAfter int) *Membership {
	if failAfter <= 0 {
		failAfter = 2
	}
	if riseAfter <= 0 {
		riseAfter = 2
	}
	m := &Membership{failAfter: failAfter, riseAfter: riseAfter}
	for _, b := range backends {
		mem := &member{backend: b}
		mem.up.Store(true)
		m.members = append(m.members, mem)
	}
	m.rebuild()
	return m
}

// Size returns the number of slots.
func (m *Membership) Size() int { return len(m.members) }

// Backend returns the backend at slot.
func (m *Membership) Backend(slot int) Backend { return m.members[slot].backend }

// IsUp reports whether slot is currently in rotation.
func (m *Membership) IsUp(slot int) bool { return m.members[slot].up.Load() }

// Healthy returns the slots currently in rotation, ascending. The
// slice is a shared snapshot — callers must not modify it.
func (m *Membership) Healthy() []int { return *m.healthy.Load() }

// Evictions and Rejoins report cumulative state transitions.
func (m *Membership) Evictions() int64 { return m.evictions.Load() }

// Rejoins reports cumulative rejoin transitions.
func (m *Membership) Rejoins() int64 { return m.rejoins.Load() }

// rebuild recomputes the healthy snapshot. Callers hold mu (or are the
// constructor).
func (m *Membership) rebuild() {
	healthy := make([]int, 0, len(m.members))
	for slot, mem := range m.members {
		if mem.up.Load() {
			healthy = append(healthy, slot)
		}
	}
	m.healthy.Store(&healthy)
}

// ReportFailure records a live-traffic failure against slot — the
// Router calls it when a place or remove errors. Traffic errors count
// toward the same consecutive-failure threshold as probe failures, so
// a dead backend is evicted by its own traffic without waiting for the
// next health tick.
func (m *Membership) ReportFailure(slot int) {
	m.observe(slot, false, false)
}

// ReportSuccess records a live-traffic success against slot, clearing
// any partial failure streak — without it, a router running with no
// health loop (HealthEvery 0) would fold transient errors hours apart
// into one "consecutive" streak and evict a backend that served
// thousands of requests in between. Costs one atomic load when there
// is no streak to clear.
func (m *Membership) ReportSuccess(slot int) {
	if m.members[slot].suspect.Load() {
		m.observe(slot, true, false)
	}
}

// observe folds one piece of evidence (probe or traffic) into slot's
// state machine and reports whether it rejoined the slot.
func (m *Membership) observe(slot int, ok, probe bool) (rejoined bool) {
	mem := m.members[slot]
	m.mu.Lock()
	defer m.mu.Unlock()
	switch {
	case mem.up.Load() && !ok:
		mem.fails++
		mem.suspect.Store(true)
		if mem.fails >= m.failAfter {
			mem.up.Store(false)
			mem.fails, mem.rises = 0, 0
			mem.suspect.Store(false)
			m.evictions.Add(1)
			m.rebuild()
			if m.onChange != nil {
				m.onChange(slot, false)
			}
		}
	case mem.up.Load() && ok:
		mem.fails = 0
		mem.suspect.Store(false)
	case !mem.up.Load() && ok && probe:
		// Only health probes rejoin a backend: traffic is not routed to
		// a down slot (except Remove, whose success says little about
		// capacity), so probes are the recovery signal.
		mem.rises++
		if mem.rises >= m.riseAfter {
			mem.up.Store(true)
			mem.fails, mem.rises = 0, 0
			m.rejoins.Add(1)
			m.rebuild()
			if m.onChange != nil {
				m.onChange(slot, true)
			}
			return true
		}
	case !mem.up.Load() && !ok:
		mem.rises = 0
	}
	return false
}
