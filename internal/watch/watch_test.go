package watch

import (
	"context"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// staticProbe builds a probe returning a fixed point and checks.
func staticProbe(p Point, checks ...Check) func() Sample {
	return func() Sample {
		cs := make([]Check, len(checks))
		copy(cs, checks)
		return Sample{Point: p, Checks: cs}
	}
}

// capturingHandler counts slog records at Error level and keeps the
// last message's attributes, so the injection test can assert the
// violation was logged with its snapshot.
type capturingHandler struct {
	mu     sync.Mutex
	errors int
	attrs  map[string]string
}

func (h *capturingHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h *capturingHandler) Handle(_ context.Context, r slog.Record) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if r.Level >= slog.LevelError {
		h.errors++
		h.attrs = map[string]string{"msg": r.Message}
		r.Attrs(func(a slog.Attr) bool {
			h.attrs[a.Key] = a.Value.String()
			return true
		})
	}
	return nil
}
func (h *capturingHandler) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h *capturingHandler) WithGroup(string) slog.Handler      { return h }

func TestDisabledReturnsNilAndNilIsSafe(t *testing.T) {
	var m *Monitor = New("serve", Options{Disabled: true}, nil)
	if m != nil {
		t.Fatal("Disabled option did not yield nil monitor")
	}
	// Every read and write path must be a no-op, not a panic.
	m.Start()
	m.Tick(time.Now())
	m.Record(EventDrain, "x", nil)
	m.ReportViolation("inv", 1, 0, nil)
	m.OverrideBound("inv", -1)
	m.ClearOverride("inv")
	m.Close()
	if m.Hop() != "" || m.Cadence() != 0 || m.LastSeq() != 0 || m.ViolationsTotal() != 0 {
		t.Fatal("nil monitor returned nonzero state")
	}
	if m.Events(0) != nil || m.Series(0) != nil || m.EventCounts() != nil || m.ViolationCounts() != nil {
		t.Fatal("nil monitor returned non-nil collections")
	}
	if m.StatsBlockDoc() != nil {
		t.Fatal("nil monitor returned a stats block")
	}
	if doc := m.EventsDoc(0, ""); len(doc.Events) != 0 {
		t.Fatal("nil monitor returned events")
	}
	if doc := m.SeriesDoc(0); len(doc.Points) != 0 {
		t.Fatal("nil monitor returned points")
	}
}

// TestEventRingHammer drives concurrent writers through the journal
// ring while readers snapshot it — the -race proof for the
// atomic-pointer publish/load protocol.
func TestEventRingHammer(t *testing.T) {
	const writers, perWriter = 8, 500
	m := New("serve", Options{EventRing: 64}, nil)
	var wg sync.WaitGroup
	stopRead := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopRead:
					return
				default:
				}
				evs := m.Events(0)
				for i := 1; i < len(evs); i++ {
					if evs[i].Seq <= evs[i-1].Seq {
						t.Error("Events not strictly ordered by seq")
						return
					}
				}
				m.EventCounts()
				m.LastSeq()
			}
		}()
	}
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			types := EventTypes()
			for i := 0; i < perWriter; i++ {
				m.Record(types[(w+i)%len(types)], "hammer", map[string]int64{"w": int64(w)})
			}
		}(w)
	}
	ww.Wait()
	close(stopRead)
	wg.Wait()

	if got := m.LastSeq(); got != writers*perWriter {
		t.Fatalf("LastSeq = %d, want %d", got, writers*perWriter)
	}
	var total int64
	for _, n := range m.EventCounts() {
		total += n
	}
	if total != writers*perWriter {
		t.Fatalf("EventCounts sum = %d, want %d", total, writers*perWriter)
	}
	evs := m.Events(0)
	if len(evs) == 0 || len(evs) > 64 {
		t.Fatalf("ring snapshot has %d events, want 1..64", len(evs))
	}
}

// TestSeriesRingHammer races Tick against Series reads.
func TestSeriesRingHammer(t *testing.T) {
	var placed atomic.Int64
	m := New("serve", Options{SeriesSlots: 32}, func() Sample {
		return Sample{Point: Point{Balls: placed.Load(), Placed: placed.Load()}}
	})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				pts := m.Series(0)
				for i := 1; i < len(pts); i++ {
					if pts[i].Seq <= pts[i-1].Seq {
						t.Error("Series not ordered by seq")
						return
					}
				}
				m.Series(5)
			}
		}()
	}
	base := time.Now()
	var tw sync.WaitGroup
	for w := 0; w < 4; w++ {
		tw.Add(1)
		go func() {
			defer tw.Done()
			for i := 0; i < 200; i++ {
				placed.Add(7)
				m.Tick(base.Add(time.Duration(i) * time.Millisecond))
			}
		}()
	}
	tw.Wait()
	close(stop)
	wg.Wait()
	if pts := m.Series(0); len(pts) != 32 {
		t.Fatalf("series retained %d points, want full ring of 32", len(pts))
	}
	if pts := m.Series(3); len(pts) != 3 {
		t.Fatalf("Series(3) returned %d points", len(pts))
	}
}

// TestViolationInjection is the deterministic detection proof: inject
// a bogus bound via the test hook and the next tick must produce
// exactly one BOUND_VIOLATION event, one counter increment, and one
// slog error carrying the snapshot — then stay quiet (edge-triggered)
// until the invariant recovers and breaks again.
func TestViolationInjection(t *testing.T) {
	h := &capturingHandler{}
	m := New("serve", Options{Logger: slog.New(h)},
		staticProbe(Point{Balls: 100},
			Check{Invariant: "serve_shard_max", Observed: 5, Bound: 10,
				Fields: map[string]int64{"shard": 2}}))

	m.Tick(time.Now())
	if m.ViolationsTotal() != 0 {
		t.Fatal("violation before injection")
	}

	m.OverrideBound("serve_shard_max", -1)
	m.Tick(time.Now())
	if got := m.ViolationsTotal(); got != 1 {
		t.Fatalf("ViolationsTotal = %d after injection, want 1", got)
	}
	if got := m.ViolationCounts()["serve_shard_max"]; got != 1 {
		t.Fatalf("ledger[serve_shard_max] = %d, want 1", got)
	}
	evs := m.Events(0)
	var viol []Event
	for _, ev := range evs {
		if ev.Type == EventBoundViolation {
			viol = append(viol, ev)
		}
	}
	if len(viol) != 1 {
		t.Fatalf("journal has %d BOUND_VIOLATION events, want 1", len(viol))
	}
	ev := viol[0]
	if ev.Invariant != "serve_shard_max" || ev.Fields["observed"] != 5 || ev.Fields["bound"] != -1 || ev.Fields["shard"] != 2 {
		t.Fatalf("violation event = %+v", ev)
	}
	h.mu.Lock()
	if h.errors != 1 || h.attrs["invariant"] != "serve_shard_max" || h.attrs["hop"] != "serve" {
		t.Fatalf("slog capture = errors %d attrs %v", h.errors, h.attrs)
	}
	h.mu.Unlock()

	// Still violated on later ticks: edge-triggered, no re-fire.
	m.Tick(time.Now())
	m.Tick(time.Now())
	if got := m.ViolationsTotal(); got != 1 {
		t.Fatalf("ViolationsTotal = %d after repeat ticks, want 1 (edge-triggered)", got)
	}

	// Recover, then break again: exactly one more.
	m.ClearOverride("serve_shard_max")
	m.Tick(time.Now())
	m.OverrideBound("serve_shard_max", 0)
	m.Tick(time.Now())
	if got := m.ViolationsTotal(); got != 2 {
		t.Fatalf("ViolationsTotal = %d after recover+rebreak, want 2", got)
	}

	// The time series carries the running violation count.
	pts := m.Series(1)
	if len(pts) != 1 || pts[0].Violations != 2 {
		t.Fatalf("last point violations = %+v, want 2", pts)
	}
}

// TestReprobeSuppressesTransient feeds a probe whose first read shows
// a bound breach that a fresh re-read contradicts — the cross-read
// skew case — and asserts no violation fires.
func TestReprobeSuppressesTransient(t *testing.T) {
	var calls atomic.Int64
	m := New("serve", Options{}, func() Sample {
		// First probe: observed 20 > bound 10. Every re-probe: clean.
		if calls.Add(1) == 1 {
			return Sample{Checks: []Check{{Invariant: "serve_global_max", Observed: 20, Bound: 10}}}
		}
		return Sample{Checks: []Check{{Invariant: "serve_global_max", Observed: 5, Bound: 10}}}
	})
	m.Tick(time.Now())
	if got := m.ViolationsTotal(); got != 0 {
		t.Fatalf("transient skew fired %d violations, want 0", got)
	}
	if calls.Load() < 2 {
		t.Fatal("violated check was not re-probed")
	}
}

// TestReprobeConfirmsPersistent: a breach that survives the re-probe
// fires within that same tick.
func TestReprobeConfirmsPersistent(t *testing.T) {
	m := New("serve", Options{},
		staticProbe(Point{}, Check{Invariant: "x", Observed: 20, Bound: 10}))
	m.Tick(time.Now())
	if got := m.ViolationsTotal(); got != 1 {
		t.Fatalf("persistent breach fired %d violations, want 1", got)
	}
}

// TestCheckDisarmedBetweenReads: the re-probe no longer carries the
// invariant (e.g. keyed tier went idle) — not a breach.
func TestCheckDisarmedBetweenReads(t *testing.T) {
	var calls atomic.Int64
	m := New("serve", Options{}, func() Sample {
		if calls.Add(1) == 1 {
			return Sample{Checks: []Check{{Invariant: "serve_keyed_max", Observed: 9, Bound: 1}}}
		}
		return Sample{}
	})
	m.Tick(time.Now())
	if got := m.ViolationsTotal(); got != 0 {
		t.Fatalf("disarmed check fired %d violations, want 0", got)
	}
}

func TestTickDerivesOpsPerSec(t *testing.T) {
	var placed atomic.Int64
	m := New("serve", Options{}, func() Sample {
		return Sample{Point: Point{Placed: placed.Load()}}
	})
	base := time.Now()
	m.Tick(base)
	placed.Store(2000)
	m.Tick(base.Add(2 * time.Second))
	pts := m.Series(1)
	if len(pts) != 1 {
		t.Fatal("no points")
	}
	if got := pts[0].OpsPerSec; got < 999 || got > 1001 {
		t.Fatalf("OpsPerSec = %v, want ~1000", got)
	}
}

func TestStartCloseIdempotent(t *testing.T) {
	m := New("serve", Options{Cadence: time.Millisecond}, staticProbe(Point{Balls: 1}))
	m.Start()
	m.Start()
	deadline := time.Now().Add(2 * time.Second)
	for len(m.Series(0)) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if len(m.Series(0)) == 0 {
		t.Fatal("collector never ticked")
	}
	m.Close()
	m.Close()
	// Journal stays readable after Close.
	m.Record(EventDrain, "post-close", nil)
	if m.LastSeq() == 0 {
		t.Fatal("journal not writable after Close")
	}
}

func TestEventsSinceAndTypeFilter(t *testing.T) {
	m := New("proxy", Options{}, nil)
	m.Record(EventEviction, "backend 1 evicted", nil)
	m.Record(EventRebalance, "moved keys", nil)
	m.Record(EventRejoin, "backend 1 rejoined", nil)

	if got := len(m.Events(1)); got != 2 {
		t.Fatalf("Events(since=1) = %d events, want 2", got)
	}
	doc := m.EventsDoc(0, EventRebalance)
	if len(doc.Events) != 1 || doc.Events[0].Type != EventRebalance {
		t.Fatalf("type filter returned %+v", doc.Events)
	}
	if doc.Hop != "proxy" || doc.EventCounts[string(EventEviction)] != 1 {
		t.Fatalf("doc = %+v", doc)
	}
}

func TestWriteMetrics(t *testing.T) {
	m := New("serve", Options{},
		staticProbe(Point{}, Check{Invariant: "serve_books", Observed: 1, Bound: 0}))
	m.Tick(time.Now())
	m.Record(EventDrain, "bye", nil)

	var b strings.Builder
	m.WriteMetrics(&b)
	out := b.String()
	for _, want := range []string{
		`bb_invariant_violations_total{invariant="serve_books"} 1`,
		`bb_event_total{type="BOUND_VIOLATION"} 1`,
		`bb_event_total{type="DRAIN"} 1`,
		`bb_event_total{type="REJOIN"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, out)
		}
	}
	// Nil monitor writes nothing.
	var nb strings.Builder
	(*Monitor)(nil).WriteMetrics(&nb)
	if nb.Len() != 0 {
		t.Fatalf("nil monitor wrote metrics: %q", nb.String())
	}
}

func TestStatsBlockDoc(t *testing.T) {
	m := New("serve", Options{Cadence: 250 * time.Millisecond}, nil)
	m.Record(EventEviction, "x", nil)
	m.ReportViolation("inv", 2, 1, nil)
	sb := m.StatsBlockDoc()
	if sb == nil || sb.ViolationsTotal != 1 || sb.EventsTotal != 2 || sb.LastEventSeq != 2 || sb.CadenceMs != 250 {
		t.Fatalf("stats block = %+v", sb)
	}
}

func TestRingWrapsOldestOut(t *testing.T) {
	m := New("serve", Options{EventRing: 4}, nil)
	for i := 0; i < 10; i++ {
		m.Record(EventRebalance, fmt.Sprintf("ev %d", i), nil)
	}
	evs := m.Events(0)
	if len(evs) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(evs))
	}
	if evs[0].Seq != 7 || evs[3].Seq != 10 {
		t.Fatalf("ring kept seqs %d..%d, want 7..10", evs[0].Seq, evs[3].Seq)
	}
}
