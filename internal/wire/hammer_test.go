package wire

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// hammerHandler is testHandler answering every traced PLACE with the
// caller's trace id as its samples, and keeping each one's bins, so a
// caller can check that the reply it got is its own. A PLACE whose
// caller registered a cancel func under its trace id has that ctx
// cancelled once its balls are placed, before the reply is written:
// the caller gives up while its reply is in flight. Each PLACE reads
// its trace id again once it has placed, and counts in retagged any
// change: a serving goroutine's scope must not be re-tagged during a
// call.
type hammerHandler struct {
	*testHandler
	mu       sync.Mutex
	bins     map[uint64][]int
	cancels  map[uint64]context.CancelFunc
	retagged atomic.Int64
}

func newHammerHandler(n int) *hammerHandler {
	return &hammerHandler{
		testHandler: newTestHandler(n),
		bins:        make(map[uint64][]int),
		cancels:     make(map[uint64]context.CancelFunc),
	}
}

func (h *hammerHandler) Place(ctx context.Context, count int) ([]int, int64, error) {
	id := obs.TraceFrom(ctx)
	bins, samples, err := h.testHandler.Place(ctx, count)
	if obs.TraceFrom(ctx) != id {
		h.retagged.Add(1)
	}
	if err != nil || id == 0 {
		return bins, samples, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.bins[id] = bins
	if cancel, ok := h.cancels[id]; ok {
		cancel()
	}
	return bins, int64(id), nil
}

// cancelOnPlace has the handler cancel the caller of trace id.
func (h *hammerHandler) cancelOnPlace(id uint64, cancel context.CancelFunc) {
	h.mu.Lock()
	h.cancels[id] = cancel
	h.mu.Unlock()
}

// placed returns the bins the handler placed for trace id.
func (h *hammerHandler) placed(id uint64) []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.bins[id]
}

// TestPipeliningHammer is the -race workout for the coalescing client:
// many concurrent callers pipeline varied-size placements (and removes)
// over a small connection pool while the server's connections are
// repeatedly force-killed mid-stream, and some callers give up while
// their reply is in flight, so their pooled calls are reused while a
// late reply for them may still arrive. It asserts
//
//   - per-request reply matching: every successful Place gets exactly
//     its own bins and samples (a demux or pool mix-up would hand a
//     caller some other request's reply);
//   - book bounds under ambiguity: every ball the client saw confirmed
//     is on the server, and the server holds at most confirmed +
//     ambiguous (calls that errored or were cancelled after possibly
//     reaching the wire);
//   - exact accounting once the faults stop: a quiesced sequential
//     phase must move the server's books by precisely its op count.
func TestPipeliningHammer(t *testing.T) {
	h := newHammerHandler(256)
	srv, addr := startServer(t, h, ServerOptions{})
	c, err := Dial(addr, ClientOptions{Conns: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const (
		workers    = 16
		cancellers = 4 // of the workers, these give up on every place in flight
		iters      = 200
	)
	var (
		okBalls     atomic.Int64 // balls confirmed placed
		lostBalls   atomic.Int64 // balls from errored placements (ambiguous)
		okRemoves   atomic.Int64
		lostRemoves atomic.Int64
		cancelled   atomic.Int64 // places that returned their cancelled ctx's error
		wg          sync.WaitGroup
		stopKills   = make(chan struct{})
		killsDone   = make(chan struct{})
	)

	// Fault injector: kill every live server connection a few times
	// while the workers run.
	go func() {
		defer close(killsDone)
		for i := 0; i < 8; i++ {
			select {
			case <-stopKills:
				return
			case <-time.After(30 * time.Millisecond):
				srv.CloseConns()
			}
		}
	}()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				count := (w+i)%3 + 1
				id := uint64(w+1)<<32 | uint64(i+1)
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				if w < cancellers {
					h.cancelOnPlace(id, cancel)
				}
				bins, samples, err := c.Place(obs.WithTrace(ctx, id), count)
				cancel()
				if err != nil {
					// errConnDead / redial races, or a cancel while the
					// reply was in flight: the outcome is ambiguous, the
					// server may hold these balls.
					if errors.Is(err, context.Canceled) {
						cancelled.Add(1)
					}
					lostBalls.Add(int64(count))
					continue
				}
				if len(bins) != count || samples != int64(id) {
					t.Errorf("worker %d iter %d: asked for %d bins under trace %#x, got %d bins and samples %#x — reply mix-up",
						w, i, count, id, len(bins), samples)
					return
				}
				if want := h.placed(id); !slices.Equal(bins, want) {
					t.Errorf("worker %d iter %d: got bins %v, the server placed %v", w, i, bins, want)
					return
				}
				okBalls.Add(int64(count))
				// Give roughly a third of the balls back so removes race
				// the kills too.
				if i%3 == 0 {
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					err := c.Remove(ctx, bins[0], "")
					cancel()
					switch {
					case err == nil:
						okRemoves.Add(1)
					case ErrCode(err) == CodeEmptyBin:
						// Another worker drained the bin first — a real
						// reply, not an ambiguous loss.
					default:
						lostRemoves.Add(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stopKills)
	<-killsDone

	if n := h.retagged.Load(); n != 0 {
		t.Fatalf("%d PLACEs saw their trace id change during the call", n)
	}
	placed, removed, balls := h.books()
	if placed < okBalls.Load() {
		t.Fatalf("server placed %d balls, client confirmed %d — confirmed work vanished", placed, okBalls.Load())
	}
	if max := okBalls.Load() + lostBalls.Load(); placed > max {
		t.Fatalf("server placed %d balls, client sent at most %d", placed, max)
	}
	if removed < okRemoves.Load() {
		t.Fatalf("server removed %d, client confirmed %d", removed, okRemoves.Load())
	}
	if max := okRemoves.Load() + lostRemoves.Load(); removed > max {
		t.Fatalf("server removed %d, client sent at most %d", removed, max)
	}
	if int64(balls) != placed-removed {
		t.Fatalf("book imbalance: %d balls in bins, placed-removed = %d", balls, placed-removed)
	}

	// Quiesced phase: no faults, sequential ops, exact deltas.
	ctx := context.Background()
	p0, r0, _ := h.books()
	const quiet = 100
	for i := 0; i < quiet; i++ {
		count := i%3 + 1
		bins, _, err := c.Place(ctx, count)
		if err != nil {
			t.Fatalf("quiesced place %d: %v", i, err)
		}
		if len(bins) != count {
			t.Fatalf("quiesced place %d: got %d bins, want %d", i, len(bins), count)
		}
		if err := c.Remove(ctx, bins[0], ""); err != nil {
			t.Fatalf("quiesced remove %d: %v", i, err)
		}
	}
	p1, r1, _ := h.books()
	wantPlaced := int64(0)
	for i := 0; i < quiet; i++ {
		wantPlaced += int64(i%3 + 1)
	}
	if p1-p0 != wantPlaced || r1-r0 != quiet {
		t.Fatalf("quiesced deltas: placed %d (want %d), removed %d (want %d)",
			p1-p0, wantPlaced, r1-r0, quiet)
	}
	if c.Stats().Redials == 0 {
		t.Fatal("hammer never exercised a redial — fault injection did not land")
	}
	if cancelled.Load() == 0 {
		t.Fatal("no place was cancelled while its reply was in flight")
	}
}

// TestPipeliningConcurrency proves a single connection really pipelines:
// with a handler that sleeps per placement, W concurrent callers must
// finish in far less than W sequential sleeps.
func TestPipeliningConcurrency(t *testing.T) {
	h := newTestHandler(64)
	h.slow = 20 * time.Millisecond
	_, addr := startServer(t, h, ServerOptions{})
	c, err := Dial(addr, ClientOptions{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const callers = 16
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := c.Place(context.Background(), 1)
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	if sequential := time.Duration(callers) * h.slow; elapsed > sequential/2 {
		t.Fatalf("16 pipelined calls took %v — not concurrent (sequential would be %v)", elapsed, sequential)
	}
	if f := c.Stats().CoalescingFactor; f <= 1 {
		t.Logf("coalescing factor %.2f (timing-dependent; >1 expected under load)", f)
	}
}
