package cluster

import (
	"context"
	"sync"
	"time"

	"repro/internal/backoff"
	"repro/internal/rng"
)

// fanout calls call on every slot of slots concurrently, each call
// under its own timeout off ctx, and returns once every call has: the
// router's one way to call its backends all at once.
func fanout(ctx context.Context, slots []int, timeout time.Duration, call func(ctx context.Context, slot int)) {
	var wg sync.WaitGroup
	for _, s := range slots {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cctx, cancel := context.WithTimeout(ctx, timeout)
			defer cancel()
			call(cctx, s)
		}()
	}
	wg.Wait()
}

// retryClock is one periodic call's per-slot retry schedule: a failed
// call makes its slot wait, by jittered exponential backoff from one
// period up to 16, before it is due again. Rounds of one call never
// overlap, and in a round each slot's call settles only its own slot.
type retryClock struct {
	next []time.Time
	bo   []*backoff.Backoff
}

// newRetryClock returns a clock over k slots, all due.
func newRetryClock(k int, period time.Duration, seed uint64) retryClock {
	c := retryClock{next: make([]time.Time, k), bo: make([]*backoff.Backoff, k)}
	for s := range c.bo {
		c.bo[s] = backoff.New(period, 16*period, rng.Mix(seed, uint64(s)))
	}
	return c
}

// due returns the slots want admits (nil: every slot) whose wait has passed.
func (c *retryClock) due(want func(slot int) bool) []int {
	now := time.Now()
	var slots []int
	for s, next := range c.next {
		if (want == nil || want(s)) && !now.Before(next) {
			slots = append(slots, s)
		}
	}
	return slots
}

// settle folds slot's call into its schedule: a success clears the
// wait and restarts the backoff, a failure backs off when backOff.
func (c *retryClock) settle(slot int, ok, backOff bool) {
	if ok {
		c.bo[slot].Reset()
		c.next[slot] = time.Time{}
	} else if backOff {
		c.next[slot] = time.Now().Add(c.bo[slot].Next())
	}
}

// every runs round each period (never when period ≤ 0) until ctx
// ends, on one goroutine that Close waits for, so rounds of one kind
// never overlap.
func (rt *Router) every(ctx context.Context, period time.Duration, round func(context.Context)) {
	if period <= 0 {
		return
	}
	rt.loops.Add(1)
	go func() {
		defer rt.loops.Done()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				round(ctx)
			}
		}
	}()
}

// healthRound probes every due slot under max(HealthEvery, 100 ms):
// each up slot (only a failed probe that leaves its slot down sets a
// wait, and the good probe that brings it back clears it) and each
// down slot whose wait has passed. A rejoined backend may have lost or
// served balls this router never saw, so the probe that rejoins it
// re-polls its load within the round, where Close stops it.
func (rt *Router) healthRound(ctx context.Context) {
	fanout(ctx, rt.probeRetry.due(nil), max(rt.cfg.HealthEvery, 100*time.Millisecond), func(pctx context.Context, s int) {
		err := rt.ms.Backend(s).Health(pctx)
		if ctx.Err() != nil {
			return // shutdown, not evidence
		}
		if rt.ms.observe(s, err == nil, true) {
			rctx, cancel := context.WithTimeout(ctx, 2*time.Second)
			defer cancel()
			_ = rt.view.Refresh(rctx, s, rt.ms.Backend(s)) // a failure keeps the last poll until the next load round
		}
		rt.probeRetry.settle(s, err == nil, !rt.ms.IsUp(s))
	})
}

// loadRound polls every healthy slot whose wait has passed, each poll
// under timeout. A failed poll keeps the slot's last poll and backs
// off; a poll cut off by ctx's end (shutdown, or the startup poll's
// bound) is no verdict.
func (rt *Router) loadRound(ctx context.Context, timeout time.Duration) {
	fanout(ctx, rt.pollRetry.due(rt.ms.IsUp), timeout, func(pctx context.Context, s int) {
		err := rt.view.Refresh(pctx, s, rt.ms.Backend(s))
		if ctx.Err() == nil {
			rt.pollRetry.settle(s, err == nil, true)
		}
	})
}
