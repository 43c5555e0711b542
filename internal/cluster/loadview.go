package cluster

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/rng"
	"repro/internal/serve"
)

// LoadView is the router's approximate, possibly stale knowledge of
// every backend's load — the quantity the routing policies probe. Each
// slot holds the backend's last polled stats view plus a local delta:
// the net balls this router has placed on (or removed from) the
// backend since that poll. Load(slot) = polled balls + local delta, so
// between polls the view tracks the router's own traffic exactly and
// drifts only by what it cannot see — other routers' traffic, and
// operations that landed during the poll round-trip itself. Every
// successful refresh snaps the view back to the backend's truth.
//
// The staleness window (how often Refresh runs) is the experiment
// knob: a long window with several routers reproduces the classical
// stale-information regime where greedy routing can herd; a short
// window approaches the ideal live view. A single router with local
// accounting is accurate even with no polling at all.
type LoadView struct {
	cells []loadCell
	// pollSeed drives the per-slot poll-retry backoff jitter (set by
	// the Router before the refresh loop starts; same package).
	pollSeed uint64
}

type loadCell struct {
	stats    atomic.Pointer[serve.StatsView]
	delta    atomic.Int64
	polledAt atomic.Int64 // unixnano of last successful poll; 0 = never
	_        [8]byte
	// bo / nextPoll implement jittered exponential backoff for
	// re-polling a slot whose stats endpoint is failing, so a
	// recovering backend is not hammered by every refresh window.
	// Touched only inside refreshAll rounds, which never overlap.
	bo       *backoff.Backoff
	nextPoll time.Time
}

// NewLoadView returns a view over k backend slots, all unpolled.
func NewLoadView(k int) *LoadView {
	return &LoadView{cells: make([]loadCell, k)}
}

// Load returns the estimated ball count on slot: last polled balls
// plus the local delta since.
func (v *LoadView) Load(slot int) int64 {
	c := &v.cells[slot]
	var polled int64
	if st := c.stats.Load(); st != nil {
		polled = st.Balls
	}
	return polled + c.delta.Load()
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

// Note records local traffic against slot: +count for placements,
// negative for removals.
func (v *LoadView) Note(slot int, count int64) {
	v.cells[slot].delta.Add(count)
}

// Polled returns slot's last polled stats view and its age, with
// ok=false when the slot has never been polled.
func (v *LoadView) Polled(slot int) (st serve.StatsView, age time.Duration, ok bool) {
	c := &v.cells[slot]
	p := c.stats.Load()
	if p == nil {
		return serve.StatsView{}, 0, false
	}
	return *p, time.Duration(time.Now().UnixNano() - c.polledAt.Load()), true
}

// Delta returns slot's local delta since the last poll.
func (v *LoadView) Delta(slot int) int64 { return v.cells[slot].delta.Load() }

// Refresh polls slot's stats from its backend and, on success, snaps
// the view to the backend's truth: it drops from the local delta what
// had been noted when the poll was sent, which the answer includes.
// Traffic noted while the poll is in flight stays in the delta, so a
// departure noted then is not lost; only an op the backend applied
// before answering but the router noted after sending the poll counts
// twice, until the next refresh — the view is approximate by design.
func (v *LoadView) Refresh(ctx context.Context, slot int, b Backend) error {
	c := &v.cells[slot]
	sent := c.delta.Load()
	st, err := b.Stats(ctx)
	if err != nil {
		return err
	}
	c.stats.Store(&st)
	c.delta.Add(-sent)
	c.polledAt.Store(time.Now().UnixNano())
	return nil
}

// refreshAll refreshes the due slots concurrently, each poll bounded
// by timeout; failures leave the slot's previous view in place and
// push its next poll out by jittered exponential backoff (capped at
// 16 windows, reset by any successful poll), so a struggling stats
// endpoint is not hammered every window.
func (v *LoadView) refreshAll(ctx context.Context, slots []int, backend func(int) Backend, timeout time.Duration) {
	now := time.Now()
	var wg sync.WaitGroup
	for _, s := range slots {
		c := &v.cells[s]
		if now.Before(c.nextPoll) {
			continue // backing off a failing slot
		}
		wg.Add(1)
		go func(s int, c *loadCell) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, timeout)
			defer cancel()
			err := v.Refresh(pctx, s, backend(s))
			if ctx.Err() != nil {
				return // shutdown, not a poll verdict
			}
			if c.bo == nil {
				c.bo = backoff.New(timeout, 16*timeout, rng.Mix(v.pollSeed, uint64(s)))
			}
			if err == nil {
				c.bo.Reset()
				c.nextPoll = time.Time{}
			} else {
				c.nextPoll = time.Now().Add(c.bo.Next())
			}
		}(s, c)
	}
	wg.Wait()
}
