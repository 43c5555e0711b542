package obs

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceIDFormatParse(t *testing.T) {
	for _, id := range []uint64{1, 0xdeadbeef, ^uint64(0), NewTraceID()} {
		s := FormatTrace(id)
		if len(s) != 16 {
			t.Fatalf("FormatTrace(%x) = %q, want 16 hex digits", id, s)
		}
		if got := ParseTrace(s); got != id {
			t.Fatalf("ParseTrace(FormatTrace(%x)) = %x", id, got)
		}
	}
	for _, bad := range []string{"", "zz", "12345678901234567", "0x12"} {
		if got := ParseTrace(bad); got != 0 {
			t.Fatalf("ParseTrace(%q) = %x, want 0", bad, got)
		}
	}
	if NewTraceID() == NewTraceID() {
		t.Fatal("NewTraceID returned the same id twice")
	}
}

func TestContextRoundTrip(t *testing.T) {
	ctx := context.Background()
	if TraceFrom(ctx) != 0 {
		t.Fatal("untagged context has a trace id")
	}
	if WithTrace(ctx, 0) != ctx {
		t.Fatal("WithTrace(ctx, 0) should return ctx unchanged")
	}
	ctx2 := WithTrace(ctx, 42)
	if TraceFrom(ctx2) != 42 {
		t.Fatalf("TraceFrom = %d, want 42", TraceFrom(ctx2))
	}
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	c := r.Begin(7, "place")
	c.Stage("queue", time.Now())
	c.Attr("batch", 3)
	c.End(nil)
	if r.Ops(0) != nil || r.StageSummaries() != nil || r.Hop() != "" {
		t.Fatal("nil recorder leaked state")
	}
	if NewRecorder(Options{Disabled: true}) != nil {
		t.Fatal("Disabled should yield a nil recorder")
	}
	var sb strings.Builder
	r.WriteStageMetrics(&sb) // must not panic
}

func TestTailCapture(t *testing.T) {
	r := NewRecorder(Options{Hop: "serve", SlowThreshold: time.Millisecond, SampleEvery: -1})
	// Fast op: histograms record, ring stays empty.
	t0 := time.Now()
	c := r.BeginAt(0, "place", t0)
	c.StageAt("queue", t0, t0.Add(10*time.Microsecond))
	c.EndAt(t0.Add(50*time.Microsecond), nil)
	if got := len(r.Ops(0)); got != 0 {
		t.Fatalf("fast op retained: %d ops in ring", got)
	}
	sum := r.StageSummaries()
	if sum["place"].Count != 1 || sum["queue"].Count != 1 {
		t.Fatalf("stage summaries missing fast op: %+v", sum)
	}
	// Slow op: retained, minted id, error string, attrs carried.
	c = r.BeginAt(0, "remove", t0)
	c.StageAt("apply", t0, t0.Add(2*time.Millisecond))
	c.Attr("batch", 5)
	c.EndAt(t0.Add(2*time.Millisecond), errors.New("boom"))
	ops := r.Ops(0)
	if len(ops) != 1 {
		t.Fatalf("slow op not retained: %d ops", len(ops))
	}
	op := ops[0]
	if op.Trace == "" || ParseTrace(op.Trace) == 0 {
		t.Fatalf("slow op got no minted trace id: %+v", op)
	}
	if op.Hop != "serve" || op.Op != "remove" || op.Err != "boom" || op.Attrs["batch"] != 5 {
		t.Fatalf("op fields wrong: %+v", op)
	}
	if len(op.Spans) != 1 || op.Spans[0].Stage != "apply" || op.Spans[0].DurationNs != int64(2*time.Millisecond) {
		t.Fatalf("span wrong: %+v", op.Spans)
	}
	// min-duration filter.
	if got := len(r.Ops(3 * time.Millisecond)); got != 0 {
		t.Fatalf("min-duration filter kept %d ops", got)
	}
}

func TestHeadSamplingMintsAndForwards(t *testing.T) {
	r := NewRecorder(Options{Hop: "proxy", SlowThreshold: -1, SampleEvery: 1})
	c := r.Begin(0, "place")
	if c.Trace() == 0 {
		t.Fatal("sampled capture did not mint a trace id for downstream propagation")
	}
	c.End(nil)
	if len(r.Ops(0)) != 1 {
		t.Fatal("sampled op not retained")
	}
	// Upstream id is preserved, not replaced.
	c = r.Begin(99, "place")
	if c.Trace() != 99 {
		t.Fatalf("upstream id replaced: %x", c.Trace())
	}
	c.End(nil)
	ops := r.Ops(0)
	if ops[len(ops)-1].Trace != FormatTrace(99) {
		t.Fatalf("retained op lost the upstream id: %+v", ops[len(ops)-1])
	}
}

func TestSpanAndAttrOverflowDropped(t *testing.T) {
	r := NewRecorder(Options{SampleEvery: 1, SlowThreshold: -1})
	c := r.Begin(0, "place")
	now := time.Now()
	for i := 0; i < maxSpans+4; i++ {
		c.StageAt("s", now, now.Add(time.Microsecond))
	}
	for i := 0; i < maxAttrs+4; i++ {
		c.Attr("k", int64(i))
	}
	c.End(nil)
	op := r.Ops(0)[0]
	if len(op.Spans) != maxSpans {
		t.Fatalf("spans = %d, want capped at %d", len(op.Spans), maxSpans)
	}
	if len(op.Attrs) != 1 || op.Attrs["k"] != int64(maxAttrs-1) {
		t.Fatalf("attr overflow not dropped past the cap: %+v", op.Attrs)
	}
}

func TestTraceHandler(t *testing.T) {
	r := NewRecorder(Options{Hop: "serve", SampleEvery: 1, SlowThreshold: -1})
	t0 := time.Now()
	c := r.BeginAt(5, "place", t0)
	c.StageAt("queue", t0, t0.Add(time.Millisecond))
	c.EndAt(t0.Add(4*time.Millisecond), nil)
	c = r.BeginAt(6, "place", t0)
	c.EndAt(t0.Add(100*time.Microsecond), nil)

	get := func(url string) TraceResponse {
		t.Helper()
		rec := httptest.NewRecorder()
		r.TraceHandler()(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s = %d: %s", url, rec.Code, rec.Body)
		}
		var resp TraceResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("bad trace JSON: %v", err)
		}
		return resp
	}
	resp := get("/v1/trace")
	if resp.Hop != "serve" || len(resp.Ops) != 2 {
		t.Fatalf("got %+v", resp)
	}
	if resp := get("/v1/trace?min_ms=1"); len(resp.Ops) != 1 || resp.Ops[0].Trace != FormatTrace(5) {
		t.Fatalf("min_ms filter: %+v", resp.Ops)
	}
	if resp := get("/v1/trace?min_ns=3000000"); len(resp.Ops) != 1 {
		t.Fatalf("min_ns filter: %+v", resp.Ops)
	}
	rec := httptest.NewRecorder()
	r.TraceHandler()(rec, httptest.NewRequest("GET", "/v1/trace?min_ns=bogus", nil))
	if rec.Code != 400 {
		t.Fatalf("bogus min_ns = %d, want 400", rec.Code)
	}
	// Nil recorder serves an empty document, not a panic.
	var nr *Recorder
	rec = httptest.NewRecorder()
	nr.TraceHandler()(rec, httptest.NewRequest("GET", "/v1/trace", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"ops": []`) {
		t.Fatalf("nil recorder: %d %s", rec.Code, rec.Body)
	}
}

func TestStageMetricsExposition(t *testing.T) {
	r := NewRecorder(Options{Hop: "serve"})
	c := r.Begin(0, "place")
	c.Stage("queue", time.Now())
	c.End(nil)
	var sb strings.Builder
	r.WriteStageMetrics(&sb)
	out := sb.String()
	for _, want := range []string{
		`bb_stage_latency_seconds{stage="place",quantile="0.99"}`,
		`bb_stage_latency_seconds{stage="queue",quantile="0.5"}`,
		`bb_stage_latency_seconds_count{stage="queue"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
	sb.Reset()
	WriteRuntimeMetrics(&sb)
	out = sb.String()
	for _, want := range []string{"bb_go_goroutines", "bb_go_heap_alloc_bytes", "bb_go_gc_pause_seconds_total"} {
		if !strings.Contains(out, want) {
			t.Fatalf("runtime metrics missing %q:\n%s", want, out)
		}
	}
}

// TestRingHammer is the -race hammer from the issue: concurrent
// recording and snapshotting of one small ring. Correctness here is
// (a) the race detector stays quiet, (b) no snapshot ever observes a
// torn op — every op's spans and attrs are internally consistent with
// the writer that published it — and (c) memory stays bounded by the
// ring size.
func TestRingHammer(t *testing.T) {
	const (
		writers = 8
		perW    = 2000
		readers = 4
	)
	r := NewRecorder(Options{Hop: "serve", SampleEvery: 1, SlowThreshold: -1, RingSize: 64})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, op := range r.Ops(0) {
					// A torn op would mix one writer's id with
					// another's payload: every field is derived from
					// the op's attr "w", so they must agree.
					w, ok := op.Attrs["w"]
					if !ok {
						t.Errorf("op missing writer attr: %+v", op)
						return
					}
					if op.DurationNs != w*1000 {
						t.Errorf("torn op: writer %d with duration %d", w, op.DurationNs)
						return
					}
					if len(op.Spans) != 1 || op.Spans[0].DurationNs != w*500 {
						t.Errorf("torn span: writer %d spans %+v", w, op.Spans)
						return
					}
				}
				_ = r.StageSummaries()
			}
		}()
	}
	var ww sync.WaitGroup
	for g := 0; g < writers; g++ {
		ww.Add(1)
		go func(id int64) {
			defer ww.Done()
			for i := 0; i < perW; i++ {
				t0 := time.Now()
				c := r.BeginAt(0, "place", t0)
				c.StageAt("queue", t0, t0.Add(time.Duration(id*500)))
				c.Attr("w", id)
				c.EndAt(t0.Add(time.Duration(id*1000)), nil)
			}
		}(int64(g + 1))
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	if got := len(r.Ops(0)); got > 64 {
		t.Fatalf("ring grew past its bound: %d ops", got)
	}
	// The ring holds pointers to at most RingSize ops no matter how
	// many were recorded — a second full pass must not grow it.
	runtime.GC()
	for i := 0; i < 1000; i++ {
		c := r.Begin(0, "place")
		c.End(nil)
	}
	if got := len(r.Ops(0)); got > 64 {
		t.Fatalf("ring unbounded after refill: %d", got)
	}
}

func TestLogger(t *testing.T) {
	var sb strings.Builder
	lg, err := NewLogger(&sb, "info", "json")
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("hello", "k", 1)
	lg.Debug("dropped")
	if !strings.Contains(sb.String(), `"msg":"hello"`) || strings.Contains(sb.String(), "dropped") {
		t.Fatalf("unexpected log output: %s", sb.String())
	}
	if _, err := NewLogger(&sb, "bogus", "text"); err == nil {
		t.Fatal("bad level accepted")
	}
	if _, err := NewLogger(&sb, "info", "yaml"); err == nil {
		t.Fatal("bad format accepted")
	}
}

// TestHeadSamplingRate checks the per-op sampling draw: with
// SampleEvery N each op is head-sampled with probability 1/N on its
// own, so over 64k ops at N = 64 the sampled count is Binomial(65536,
// 1/64) and lands within 6σ of its mean of 1024. N = 1 samples every
// op, and a negative N none (with tail capture off, nothing is
// retained at all).
func TestHeadSamplingRate(t *testing.T) {
	const ops = 1 << 16
	sampled := func(every int) int {
		r := NewRecorder(Options{SampleEvery: every, SlowThreshold: -1})
		n := 0
		for i := 0; i < ops; i++ {
			c := r.Begin(0, "place")
			if c.forced {
				n++
			}
			c.End(nil)
		}
		if n > 0 && len(r.Ops(0)) == 0 {
			t.Errorf("SampleEvery %d: %d ops sampled, none retained", every, n)
		}
		if n == 0 && len(r.Ops(0)) != 0 {
			t.Errorf("SampleEvery %d: nothing sampled, %d ops retained", every, len(r.Ops(0)))
		}
		return n
	}
	const p = 1.0 / 64
	mean, sigma := ops*p, math.Sqrt(ops*p*(1-p))
	if got := sampled(64); math.Abs(float64(got)-mean) > 6*sigma {
		t.Errorf("SampleEvery 64: %d of %d ops sampled, want %.0f ± %.0f (6σ)", got, ops, mean, 6*sigma)
	}
	if got := sampled(1); got != ops {
		t.Errorf("SampleEvery 1: %d of %d ops sampled, want all", got, ops)
	}
	if got := sampled(-1); got != 0 {
		t.Errorf("SampleEvery -1: %d ops sampled, want none", got)
	}
}

// TestUnionSnapshot checks the recorder's one-pass union of stage
// histograms: it counts exactly the named stages' records, ignores a
// stage never recorded, and is empty on a nil recorder.
func TestUnionSnapshot(t *testing.T) {
	r := NewRecorder(Options{SampleEvery: -1, SlowThreshold: -1})
	t0 := time.Now()
	for i, op := range []string{"place", "remove", "place"} {
		c := r.BeginAt(0, op, t0)
		c.StageElapsed("queue", 0, int64(i+1))
		c.EndElapsed(int64(10*(i+1)), nil)
	}
	u := r.UnionSnapshot("place", "remove", "never")
	if u.Count != 3 || u.Sum != 60 || u.Min != 10 || u.Max != 30 {
		t.Fatalf("union of place and remove = %+v, want count 3, sum 60, min 10, max 30", u)
	}
	if q := r.UnionSnapshot("queue"); q.Count != 3 || q.Sum != 6 {
		t.Fatalf("queue = %+v, want count 3, sum 6", q)
	}
	var nr *Recorder
	if s := nr.UnionSnapshot("place"); s.Count != 0 {
		t.Fatalf("nil recorder union = %+v", s)
	}
}
