package cluster

import (
	"context"
	"testing"

	"repro/internal/serve"
)

// racingBackend notes one op of the router's on the view while its
// stats poll is in flight, then answers with a ball count that
// excludes that op: the backend computed its stats first. Refresh
// calls only Stats; the nil Backend leaves the rest unimplemented.
type racingBackend struct {
	Backend
	view  *LoadView
	slot  int
	op    int64
	balls int64
}

func (b *racingBackend) Stats(context.Context) (serve.StatsView, error) {
	b.view.Note(b.slot, b.op)
	return serve.StatsView{Balls: b.balls}, nil
}

// TestRefreshKeepsOpsNotedDuringPoll pins what a refresh keeps of the
// local delta: what was noted before the poll went out is in the
// backend's answer and is dropped; a departure noted while the poll was
// in flight is not in it and stays.
func TestRefreshKeepsOpsNotedDuringPoll(t *testing.T) {
	const slot, before, polled = 1, 5, 40
	v := NewLoadView(2)
	v.Note(slot, before)
	b := &racingBackend{view: v, slot: slot, op: -1, balls: polled}
	if err := v.Refresh(context.Background(), slot, b); err != nil {
		t.Fatal(err)
	}
	if got, want := v.Load(slot), int64(polled-1); got != want {
		t.Fatalf("Load after refresh = %d, want the polled %d plus the departure noted during the poll = %d", got, polled, want)
	}
	if got := v.Delta(slot); got != -1 {
		t.Fatalf("Delta after refresh = %d, want -1", got)
	}
}
