// Package obs is the serving stack's observability layer: request-
// scoped tracing, per-stage latency decomposition, slow-op capture,
// and the shared logging/metrics plumbing the daemons hang off it.
//
// The design goal is near-zero cost on the untraced path. Every
// operation carries a Capture — a plain value with fixed-size span
// and attr arrays, kept on the caller's stack. An op reads the wall
// clock once, when it begins; every later stamp is a monotonic offset
// from that begin time (Capture.Elapsed, one cheaper clock read), so
// recording a stage is one such read and a couple of stores. Finishing
// an op is one atomic histogram record per stage, each histogram found
// by a short scan of the recorder's stage table, not by hashing its
// name. Nothing allocates unless the op is actually retained:
// head-sampled (a 1-in-SampleEvery draw per op from the runtime's
// per-thread generator, so no counter is shared between cores), or
// slower than the tail threshold. Retained ops are materialized once
// and published into a bounded ring of atomic pointers; readers
// snapshot the ring without locks, so a torn span is structurally
// impossible (an Op is immutable after publication).
//
// Trace identity is a uint64, rendered as 16 hex digits. It
// propagates bbload → bbproxy → bbserved over HTTP in the X-BB-Trace
// header and over the wire protocol as the optional trailing trace
// field negotiated by the HELLO version bump (internal/wire). A tier
// that decides to capture an op mints an id if the caller didn't send
// one, so every retained op is joinable.
package obs

import (
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hdrhist"
	"repro/internal/rng"
)

// Defaults for Options zero values.
const (
	DefaultSlowThreshold = 10 * time.Millisecond
	DefaultSampleEvery   = 1024
	DefaultRingSize      = 256
)

// Capture capacity. Ops that record more spans/attrs than fit drop
// the extras silently — the arrays are sized for the deepest real
// path (queue+apply on serve; probe plus a few failover forwards on
// the proxy) and kept small because every request carries them.
const (
	maxSpans = 6
	maxAttrs = 6
)

// Options configures a Recorder. Zero values take the defaults above.
type Options struct {
	// Hop tags every captured op with the component that recorded it
	// ("serve", "proxy").
	Hop string
	// SlowThreshold is the tail-capture bound: ops at least this slow
	// are retained regardless of sampling. 0 means
	// DefaultSlowThreshold; negative disables tail capture.
	SlowThreshold time.Duration
	// SampleEvery head-samples one op in N, drawn independently per
	// op (its whole downstream path is captured too, because the
	// minted id propagates). 0 means DefaultSampleEvery; 1 captures
	// every op; negative disables head sampling.
	SampleEvery int
	// RingSize bounds the retained-op ring. 0 means DefaultRingSize.
	RingSize int
	// Disabled makes NewRecorder return nil (all Recorder and Capture
	// methods are nil-safe no-ops) — the benchmark baseline.
	Disabled bool
}

// Recorder owns one component's observability state: the per-stage
// histograms behind the bb_stage_* series and the bounded ring of
// retained ops behind /v1/trace. All methods are safe for concurrent
// use and safe on a nil receiver.
type Recorder struct {
	hop     string
	slowNs  int64  // 0 = tail capture off
	sampleN uint64 // 0 = head sampling off

	ring   []atomic.Pointer[Op]
	cursor atomic.Uint64

	mu     sync.Mutex // guards copy-on-write of stages
	stages atomic.Pointer[[]stageHist]
}

// stageHist is one entry of a Recorder's stage table. A tier records
// a handful of stage names, so finding one is a scan of a few string
// compares, cheaper than hashing it.
type stageHist struct {
	name string
	h    *hdrhist.Hist
}

// NewRecorder builds a Recorder, or nil when o.Disabled.
func NewRecorder(o Options) *Recorder {
	if o.Disabled {
		return nil
	}
	r := &Recorder{hop: o.Hop}
	switch {
	case o.SlowThreshold == 0:
		r.slowNs = int64(DefaultSlowThreshold)
	case o.SlowThreshold > 0:
		r.slowNs = int64(o.SlowThreshold)
	}
	switch {
	case o.SampleEvery == 0:
		r.sampleN = DefaultSampleEvery
	case o.SampleEvery > 0:
		r.sampleN = uint64(o.SampleEvery)
	}
	size := o.RingSize
	if size <= 0 {
		size = DefaultRingSize
	}
	r.ring = make([]atomic.Pointer[Op], size)
	r.stages.Store(new([]stageHist))
	return r
}

// Hop returns the recorder's component tag ("" on nil).
func (r *Recorder) Hop() string {
	if r == nil {
		return ""
	}
	return r.hop
}

// Op is one retained operation: immutable after publication.
type Op struct {
	Trace      string           `json:"trace"`
	Hop        string           `json:"hop"`
	Op         string           `json:"op"`
	Start      int64            `json:"start_unix_nano"`
	DurationNs int64            `json:"duration_ns"`
	Err        string           `json:"err,omitempty"`
	Spans      []Span           `json:"spans"`
	Attrs      map[string]int64 `json:"attrs,omitempty"`
}

// Span is one stage of an Op.
type Span struct {
	Stage      string `json:"stage"`
	Start      int64  `json:"start_unix_nano"`
	DurationNs int64  `json:"duration_ns"`
}

// spanRec holds a stage in flight. start is the monotonic offset from
// the op's begin time, not a wall timestamp: wall nanos are minted once
// at the op's end from its base clock, so a span's [start, start+dur)
// can never drift outside its parent by wall/monotonic rounding.
type spanRec struct {
	stage      string
	start, dur int64
}

type attrRec struct {
	key string
	val int64
}

// Capture accumulates one in-flight operation's spans and attrs. It
// is a plain value — embed it in the request struct or keep it on the
// stack; the zero Capture (nil recorder) is a no-op on every method.
type Capture struct {
	rec    *Recorder
	trace  uint64
	op     string
	start  time.Time
	forced bool
	nspans uint8
	nattrs uint8
	spans  [maxSpans]spanRec
	attrs  [maxAttrs]attrRec
}

// BeginAt opens a Capture for op starting at t0. trace is the
// caller-propagated id (0 = none). A head-sampled op with no upstream
// id gets one minted here, so the decision to trace is made at the
// first hop and the id can propagate downstream. The sampling draw
// comes from the runtime's per-thread generator: no state is shared
// between the cores beginning ops.
func (r *Recorder) BeginAt(trace uint64, op string, t0 time.Time) Capture {
	if r == nil {
		return Capture{}
	}
	c := Capture{rec: r, trace: trace, op: op, start: t0}
	if r.sampleN > 0 && rand.Uint64N(r.sampleN) == 0 {
		c.forced = true
		if c.trace == 0 {
			c.trace = NewTraceID()
		}
	}
	return c
}

// Begin is BeginAt starting now: the op's one wall-clock read (none on
// a nil Recorder).
func (r *Recorder) Begin(trace uint64, op string) Capture {
	if r == nil {
		return Capture{}
	}
	return r.BeginAt(trace, op, time.Now())
}

// Trace returns the capture's trace id (0 when untraced) — forward it
// downstream so the hops share one id.
func (c *Capture) Trace() uint64 { return c.trace }

// Active reports whether the capture records anything at all.
func (c *Capture) Active() bool { return c.rec != nil }

// Elapsed returns the nanoseconds from the op's begin time until now,
// read from the monotonic clock alone (time.Since), which costs less
// than the wall-and-monotonic pair time.Now reads. Offsets from one
// begin time taken this way never run backwards, so spans built from
// them tile the op exactly. A zero Capture reads no clock and returns 0.
func (c *Capture) Elapsed() int64 {
	if c.rec == nil {
		return 0
	}
	return int64(time.Since(c.start))
}

// StageElapsed records one span for stage over [from, to), both
// offsets from the op's begin time as Elapsed returns them.
func (c *Capture) StageElapsed(stage string, from, to int64) {
	if c.rec == nil || c.nspans >= maxSpans {
		return
	}
	c.spans[c.nspans] = spanRec{stage: stage, start: max(from, 0), dur: max(to-from, 0)}
	c.nspans++
}

// StageAt records one [start, end) span for stage.
func (c *Capture) StageAt(stage string, start, end time.Time) {
	c.StageElapsed(stage, start.Sub(c.start).Nanoseconds(), end.Sub(c.start).Nanoseconds())
}

// Stage records a span for stage from start until now.
func (c *Capture) Stage(stage string, start time.Time) {
	if c.rec == nil {
		return
	}
	c.StageElapsed(stage, start.Sub(c.start).Nanoseconds(), c.Elapsed())
}

// Attr attaches an integer attribute (probes, failovers, bulk size,
// staleness_ms_at_pick, ...).
func (c *Capture) Attr(key string, val int64) {
	if c.rec == nil || c.nattrs >= maxAttrs {
		return
	}
	c.attrs[c.nattrs] = attrRec{key: key, val: val}
	c.nattrs++
}

// EndElapsed closes the op total nanoseconds after its begin time (an
// offset as Elapsed returns it): every span plus the op total is
// recorded into the per-stage histograms (the op total under the op
// name itself), and the op is materialized into the ring when it was
// head-sampled, carries an upstream trace id and crossed the tail
// threshold, or is simply slow enough.
func (c *Capture) EndElapsed(total int64, err error) {
	r := c.rec
	if r == nil {
		return
	}
	total = max(total, 0)
	r.stageHist(c.op).Record(total)
	for i := 0; i < int(c.nspans); i++ {
		r.stageHist(c.spans[i].stage).Record(c.spans[i].dur)
	}
	if !c.forced && (r.slowNs == 0 || total < r.slowNs) {
		return
	}
	if c.trace == 0 {
		c.trace = NewTraceID() // tail-captured with no upstream id
	}
	base := c.start.UnixNano()
	op := &Op{
		Trace:      FormatTrace(c.trace),
		Hop:        r.hop,
		Op:         c.op,
		Start:      base,
		DurationNs: total,
		Spans:      make([]Span, c.nspans),
	}
	if err != nil {
		op.Err = err.Error()
	}
	for i := 0; i < int(c.nspans); i++ {
		op.Spans[i] = Span{Stage: c.spans[i].stage, Start: base + c.spans[i].start, DurationNs: c.spans[i].dur}
	}
	if c.nattrs > 0 {
		op.Attrs = make(map[string]int64, c.nattrs)
		for i := 0; i < int(c.nattrs); i++ {
			op.Attrs[c.attrs[i].key] = c.attrs[i].val
		}
	}
	i := (r.cursor.Add(1) - 1) % uint64(len(r.ring))
	r.ring[i].Store(op)
}

// EndAt closes the op at end (see EndElapsed).
func (c *Capture) EndAt(end time.Time, err error) {
	c.EndElapsed(end.Sub(c.start).Nanoseconds(), err)
}

// End closes the op now (see EndElapsed).
func (c *Capture) End(err error) {
	c.EndElapsed(c.Elapsed(), err)
}

// Ops snapshots the retained ring: every op at least minDur slow,
// oldest first. Lock-free; safe on nil (returns nil).
func (r *Recorder) Ops(minDur time.Duration) []*Op {
	if r == nil {
		return nil
	}
	out := make([]*Op, 0, len(r.ring))
	for i := range r.ring {
		if op := r.ring[i].Load(); op != nil && op.DurationNs >= minDur.Nanoseconds() {
			out = append(out, op)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// OpsByTrace snapshots the retained ring filtered to one trace id
// (the 16-hex-digit rendering), oldest first. Lock-free; safe on nil.
func (r *Recorder) OpsByTrace(trace string) []*Op {
	if r == nil {
		return nil
	}
	var out []*Op
	for i := range r.ring {
		if op := r.ring[i].Load(); op != nil && op.Trace == trace {
			out = append(out, op)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// stageHist returns (creating on first use) the histogram for stage.
// The stage set is tiny and fixed per component, so the copy-on-write
// table settles after the first few requests and the hot path is one
// atomic load plus a scan of a few entries.
func (r *Recorder) stageHist(stage string) *hdrhist.Hist {
	if h := lookupStage(*r.stages.Load(), stage); h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old := *r.stages.Load()
	if h := lookupStage(old, stage); h != nil {
		return h
	}
	h := hdrhist.New()
	next := append(old[:len(old):len(old)], stageHist{name: stage, h: h})
	r.stages.Store(&next)
	return h
}

func lookupStage(table []stageHist, stage string) *hdrhist.Hist {
	for _, s := range table {
		if s.name == stage {
			return s.h
		}
	}
	return nil
}

// StageSnapshots returns a consistent-enough snapshot of every
// per-stage histogram (nil-safe).
func (r *Recorder) StageSnapshots() map[string]hdrhist.Snapshot {
	if r == nil {
		return nil
	}
	table := *r.stages.Load()
	out := make(map[string]hdrhist.Snapshot, len(table))
	for _, s := range table {
		out[s.name] = s.h.Snapshot()
	}
	return out
}

// UnionSnapshot returns one snapshot over the named stages'
// histograms together, built in one pass (hdrhist.SnapshotOf), as if
// they had been recorded into one. A stage never recorded contributes
// nothing; a nil Recorder returns an empty snapshot.
func (r *Recorder) UnionSnapshot(stages ...string) hdrhist.Snapshot {
	if r == nil {
		return hdrhist.Snapshot{}
	}
	table := *r.stages.Load()
	var buf [4]*hdrhist.Hist
	hs := buf[:0]
	for _, stage := range stages {
		if h := lookupStage(table, stage); h != nil {
			hs = append(hs, h)
		}
	}
	return hdrhist.SnapshotOf(hs...)
}

// StageSummary is the JSON-facing digest of one stage histogram — the
// obs block in both daemons' /v1/stats.
type StageSummary struct {
	Count  int64 `json:"count"`
	P50Ns  int64 `json:"p50_ns"`
	P99Ns  int64 `json:"p99_ns"`
	P999Ns int64 `json:"p999_ns"`
	MaxNs  int64 `json:"max_ns"`
}

// StageSummaries digests every stage histogram (nil map on nil).
func (r *Recorder) StageSummaries() map[string]StageSummary {
	if r == nil {
		return nil
	}
	snaps := r.StageSnapshots()
	out := make(map[string]StageSummary, len(snaps))
	for k, s := range snaps {
		if s.Count == 0 {
			continue
		}
		out[k] = StageSummary{
			Count:  s.Count,
			P50Ns:  s.Quantile(0.50),
			P99Ns:  s.Quantile(0.99),
			P999Ns: s.Quantile(0.999),
			MaxNs:  s.Max,
		}
	}
	return out
}

// Trace id minting: a process-unique base mixed with a counter, so
// ids are unique across restarts without coordination and never 0.
var (
	traceBase = rng.Mix(uint64(time.Now().UnixNano()), 0x6f62732f7472) // "obs/tr"
	traceSeq  atomic.Uint64
)

// NewTraceID mints a fresh nonzero trace id.
func NewTraceID() uint64 {
	id := rng.Mix(traceBase, traceSeq.Add(1))
	if id == 0 {
		id = 1
	}
	return id
}
