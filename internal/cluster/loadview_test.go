package cluster

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	ballsbins "repro"
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

// gatedStats answers every stats poll with balls, each poll
// announcing itself on arrived and waiting for release to close.
type gatedStats struct {
	Backend
	balls   int64
	arrived chan struct{}
	release chan struct{}
}

func (b *gatedStats) Stats(context.Context) (serve.StatsView, error) {
	b.arrived <- struct{}{}
	<-b.release
	return serve.StatsView{Balls: b.balls}, nil
}

// TestRefreshOverlap sends two polls of one slot before either answers,
// as the rejoin hook's re-poll and a refresh round can: each answer
// already holds the balls noted before it was sent, and neither may
// take them out of the view a second time.
func TestRefreshOverlap(t *testing.T) {
	const slot, balls = 0, 7
	v := NewLoadView(1)
	v.Note(slot, balls)
	b := &gatedStats{balls: balls, arrived: make(chan struct{}), release: make(chan struct{})}
	errs := make(chan error, 2)
	for range 2 {
		go func() { errs <- v.Refresh(context.Background(), slot, b) }()
	}
	<-b.arrived
	<-b.arrived
	close(b.release)
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got, delta := v.Load(slot), v.Delta(slot); got != balls || delta != 0 {
		t.Fatalf("after two overlapping refreshes Load = %d, Delta = %d; want %d and 0", got, delta, balls)
	}
}

// fixedStats answers every stats poll with the same ball count.
type fixedStats struct {
	Backend
	balls int64
}

func (b fixedStats) Stats(context.Context) (serve.StatsView, error) {
	return serve.StatsView{Balls: b.balls}, nil
}

// TestRefreshConcurrentReads refreshes one slot from several goroutines
// while several others read it, with the router's count fixed: every
// Load must read the backend's count, never one poll's answer with
// another poll's correction or none.
func TestRefreshConcurrentReads(t *testing.T) {
	const slot, balls, refreshers, readers, rounds = 0, 7, 4, 4, 500
	v := NewLoadView(1)
	v.Note(slot, balls)
	b := fixedStats{balls: balls}
	var refreshing, reading sync.WaitGroup
	done := make(chan struct{})
	for range readers {
		reading.Add(1)
		go func() {
			defer reading.Done()
			for {
				if got := v.Load(slot); got != balls {
					t.Errorf("Load = %d during refreshes, want %d", got, balls)
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	for range refreshers {
		refreshing.Add(1)
		go func() {
			defer refreshing.Done()
			for range rounds {
				if err := v.Refresh(context.Background(), slot, b); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	refreshing.Wait()
	close(done)
	reading.Wait()
}

// failingStats is a backend whose stats endpoint always fails; it
// counts the polls.
type failingStats struct {
	Backend
	polls atomic.Int64
}

func (b *failingStats) Stats(context.Context) (serve.StatsView, error) {
	b.polls.Add(1)
	return serve.StatsView{}, errors.New("stats down")
}

// TestLoadPollBackoffStartsAtWindow pins the poll-retry backoff to the
// staleness window: after the startup poll fails, the next polls come
// within a few windows. A backoff built from the startup poll's 2 s
// timeout would wait at least 1 s first.
func TestLoadPollBackoffStartsAtWindow(t *testing.T) {
	const window, within = 10 * time.Millisecond, 800 * time.Millisecond
	d := serve.NewDispatcher(serve.Config{Spec: ballsbins.Adaptive(), N: 16, Shards: 1, Seed: 1})
	t.Cleanup(d.Close)
	b := &failingStats{Backend: &InprocBackend{D: d}}
	rt := NewRouter(Config{Backends: []Backend{b}, BinsPerBackend: 16, Policy: policyNamed("adaptive"),
		Seed: 1, Staleness: window})
	t.Cleanup(rt.Close)
	deadline := time.Now().Add(within)
	for b.polls.Load() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("%d stats polls in %v with a %v staleness window, want >= 3", b.polls.Load(), within, window)
		}
		time.Sleep(time.Millisecond)
	}
}
