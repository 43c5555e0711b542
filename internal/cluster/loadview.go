package cluster

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// LoadView is the router's approximate, possibly stale knowledge of
// every backend's load — the quantity the routing policies probe — and
// the router's one book per backend slot. Each slot counts the balls
// this router placed on and removed from the backend, at operation
// completion, and holds its last successful poll as one immutable
// record: the backend's stats answer, the slot's net count when the
// poll was sent, and the answer's arrival time. Load(slot) = polled
// balls + net − net at send, so between polls the view tracks the
// router's own traffic exactly and drifts only by what it cannot see —
// other routers' traffic, and operations that landed during the poll
// round-trip itself. Every successful refresh snaps the view back to
// the backend's truth, and a reader sees one poll or the next, never a
// mix of two.
//
// The staleness window (how often Refresh runs) is the experiment
// knob: a long window with several routers reproduces the classical
// stale-information regime where greedy routing can herd; a short
// window approaches the ideal live view. A single router with local
// accounting is accurate even with no polling at all.
type LoadView struct {
	cells []loadCell
}

type loadCell struct {
	// placed and removed are monotone, so a reader that loads placed
	// before removed can only under-state the net count, never inflate
	// it.
	placed  atomic.Int64
	removed atomic.Int64
	poll    atomic.Pointer[poll]
	_       [8]byte
}

// poll is one successful stats poll of a slot, published whole.
type poll struct {
	st   serve.StatsView
	sent int64     // the slot's net count when the poll was sent
	at   time.Time // when the answer arrived
}

// NewLoadView returns a view over k backend slots, all unpolled.
func NewLoadView(k int) *LoadView {
	return &LoadView{cells: make([]loadCell, k)}
}

func (c *loadCell) net() int64 { return c.placed.Load() - c.removed.Load() }

// read returns slot's last poll (nil when never polled) with the load
// and the local delta derived from it.
func (v *LoadView) read(slot int) (p *poll, load, delta int64) {
	c := &v.cells[slot]
	p = c.poll.Load()
	delta = c.net()
	if p != nil {
		delta -= p.sent
		load = p.st.Balls
	}
	return p, load + delta, delta
}

// Load returns the estimated ball count on slot: last polled balls
// plus the local delta since.
func (v *LoadView) Load(slot int) int64 {
	_, load, _ := v.read(slot)
	return load
}

// Total returns the estimated total balls across the given slots (the
// policies' live ball count i).
func (v *LoadView) Total(slots []int) int64 {
	var t int64
	for _, s := range slots {
		t += v.Load(s)
	}
	return t
}

// Note records a completed operation on slot: +count balls placed, or
// −count removed.
func (v *LoadView) Note(slot int, count int64) {
	if c := &v.cells[slot]; count > 0 {
		c.placed.Add(count)
	} else {
		c.removed.Add(-count)
	}
}

// age returns how old slot's last poll was at now, clamped at 0, with
// ok=false when the slot has never been polled.
func (v *LoadView) age(slot int, now time.Time) (age time.Duration, ok bool) {
	p := v.cells[slot].poll.Load()
	if p == nil {
		return 0, false
	}
	return max(now.Sub(p.at), 0), true
}

// Delta returns slot's local delta since the last poll.
func (v *LoadView) Delta(slot int) int64 {
	_, _, delta := v.read(slot)
	return delta
}

// Refresh polls slot's stats from its backend and, on success,
// publishes the answer with the net count noted when the poll was
// sent, which the answer includes. Traffic noted while the poll is in
// flight stays in the delta, so a departure noted then is not lost;
// only an op the backend applied before answering but the router noted
// after sending the poll counts twice, until the next refresh — the
// view is approximate by design. Overlapping refreshes of one slot each
// publish a whole record, so neither corrects the other's count.
func (v *LoadView) Refresh(ctx context.Context, slot int, b Backend) error {
	c := &v.cells[slot]
	sent := c.net()
	st, err := b.Stats(ctx)
	if err != nil {
		return err
	}
	c.poll.Store(&poll{st: st, sent: sent, at: time.Now()})
	return nil
}
