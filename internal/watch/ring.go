package watch

import (
	"sort"
	"sync/atomic"
)

// Ring is a fixed-size lock-free ring of immutable entries: the event
// journal, the time series and obs's trace ring. A writer claims a
// slot with one atomic add, whose count is also the entry's sequence
// number (1, 2, ...), and publishes the entry behind an atomic
// pointer; readers snapshot the slots without locks.
type Ring[T any] struct {
	slots []atomic.Pointer[T]
	next  atomic.Uint64
}

// NewRing returns a ring that retains the newest n entries.
func NewRing[T any](n int) *Ring[T] {
	return &Ring[T]{slots: make([]atomic.Pointer[T], n)}
}

// Claim reserves the next slot and returns its sequence number.
func (r *Ring[T]) Claim() int64 { return int64(r.next.Add(1)) }

// Put publishes p into the slot claimed as seq.
func (r *Ring[T]) Put(seq int64, p *T) {
	r.slots[uint64(seq-1)%uint64(len(r.slots))].Store(p)
}

// Last returns the newest claimed sequence number (0 when none).
func (r *Ring[T]) Last() int64 { return int64(r.next.Load()) }

// Snapshot returns the retained entries that keep accepts (nil keeps
// all), in ascending order of key.
func (r *Ring[T]) Snapshot(keep func(*T) bool, key func(*T) int64) []*T {
	out := make([]*T, 0, len(r.slots))
	for i := range r.slots {
		if p := r.slots[i].Load(); p != nil && (keep == nil || keep(p)) {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return key(out[i]) < key(out[j]) })
	return out
}
