package bench

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/wire"
)

// Span levels along a request's blocking path, outermost first. Each
// level's spans are children of the level above.
const (
	lvClient      = iota // the benchmark's own client call
	lvFront              // the proxy's wire.Handler or http.Handler
	lvBackendCall        // the router's call into a cluster.Backend
	lvBackend            // the backend's wire.Handler
	nLevels
)

var levelNames = [nLevels]string{"client", "proxy", "backend_call", "backend"}

type span struct {
	trace      uint64
	level      int
	start, end int64 // ns since the tracer's base
}

// Tracer keeps every span in memory until the run ends. A nil *Tracer
// is the untraced path: every method is a no-op and the shims are not
// installed.
type Tracer struct {
	base time.Time
	// every keeps the spans of one request in every: a workload issuing
	// hundreds of thousands of requests a second keeps a sample, chosen
	// by trace id so all of a request's spans are kept or none.
	every uint64
	mu    sync.Mutex
	spans []span
}

func newTracer(every uint64) *Tracer { return &Tracer{base: time.Now(), every: every} }

func (t *Tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.base))
}

// record closes a span of trace at level that began at start. Spans
// without a trace id (stats polls, health checks) are not requests.
func (t *Tracer) record(trace uint64, level int, start int64) {
	if t == nil || trace == 0 || (trace>>1)%t.every != 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{trace: trace, level: level, start: start, end: end})
	t.mu.Unlock()
}

// wireShim times a wire.Handler's operations at one span level.
type wireShim struct {
	wire.Handler
	tr    *Tracer
	level int
}

func (t *Tracer) wrapWire(h wire.Handler, level int) wire.Handler {
	if t == nil {
		return h
	}
	return &wireShim{Handler: h, tr: t, level: level}
}

func (s *wireShim) Place(ctx context.Context, count int) ([]int, int64, error) {
	t0 := s.tr.now()
	defer s.tr.record(obs.TraceFrom(ctx), s.level, t0)
	return s.Handler.Place(ctx, count)
}

func (s *wireShim) PlaceKeyed(ctx context.Context, key string) ([]int, int64, error) {
	t0 := s.tr.now()
	defer s.tr.record(obs.TraceFrom(ctx), s.level, t0)
	return s.Handler.PlaceKeyed(ctx, key)
}

func (s *wireShim) Remove(ctx context.Context, bin int, key string) error {
	t0 := s.tr.now()
	defer s.tr.record(obs.TraceFrom(ctx), s.level, t0)
	return s.Handler.Remove(ctx, bin, key)
}

// wrapHTTP times an http.Handler at one span level, reading the trace
// id from the same header the handler itself reads.
func (t *Tracer) wrapHTTP(h http.Handler, level int) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := t.now()
		h.ServeHTTP(w, r)
		t.record(obs.ParseTrace(r.Header.Get(obs.Header)), level, t0)
	})
}

// backendShim times the router's calls into a cluster.Backend. It also
// implements KeyedBackend and TraceBackend, forwarding to the wrapped
// backend or, when that backend lacks the capability, doing exactly
// what the router does for such a backend, so wrapping changes nothing.
type backendShim struct {
	inner cluster.Backend
	tr    *Tracer
}

func (t *Tracer) wrapBackend(b cluster.Backend) cluster.Backend {
	if t == nil {
		return b
	}
	return &backendShim{inner: b, tr: t}
}

func (s *backendShim) Name() string { return s.inner.Name() }

func (s *backendShim) Place(ctx context.Context, count int) ([]int, int64, error) {
	t0 := s.tr.now()
	defer s.tr.record(obs.TraceFrom(ctx), lvBackendCall, t0)
	return s.inner.Place(ctx, count)
}

func (s *backendShim) Remove(ctx context.Context, bin int) error {
	t0 := s.tr.now()
	defer s.tr.record(obs.TraceFrom(ctx), lvBackendCall, t0)
	return s.inner.Remove(ctx, bin)
}

func (s *backendShim) PlaceKey(ctx context.Context, key string) ([]int, int64, error) {
	t0 := s.tr.now()
	defer s.tr.record(obs.TraceFrom(ctx), lvBackendCall, t0)
	if kb, ok := s.inner.(cluster.KeyedBackend); ok {
		return kb.PlaceKey(ctx, key)
	}
	return s.inner.Place(ctx, 1)
}

func (s *backendShim) RemoveKey(ctx context.Context, bin int, key string) error {
	t0 := s.tr.now()
	defer s.tr.record(obs.TraceFrom(ctx), lvBackendCall, t0)
	if kb, ok := s.inner.(cluster.KeyedBackend); ok {
		return kb.RemoveKey(ctx, bin, key)
	}
	return s.inner.Remove(ctx, bin)
}

func (s *backendShim) Stats(ctx context.Context) (serve.StatsView, error) { return s.inner.Stats(ctx) }

func (s *backendShim) Health(ctx context.Context) error { return s.inner.Health(ctx) }

func (s *backendShim) ReadTrace(ctx context.Context, id string) ([]*obs.Op, error) {
	if tb, ok := s.inner.(cluster.TraceBackend); ok {
		return tb.ReadTrace(ctx, id)
	}
	return nil, errNoTraceBackend
}

// errNoTraceBackend makes GatherTrace skip a backend without the trace
// capability, as it would skip the unwrapped backend.
var errNoTraceBackend = errors.New("bench: backend has no trace ring")

// selfTimes splits each traced request's client time into per-level
// self times: a level's spans minus the part its child level covers.
// Requests are returned sorted by client time.
func (t *Tracer) selfTimes() (client []float64, self [][nLevels]float64) {
	sums := make(map[uint64]*[nLevels]int64)
	for _, s := range t.spans {
		p := sums[s.trace]
		if p == nil {
			p = new([nLevels]int64)
			sums[s.trace] = p
		}
		p[s.level] += s.end - s.start
	}
	type req struct {
		client float64
		self   [nLevels]float64
	}
	reqs := make([]req, 0, len(sums))
	for _, p := range sums {
		if p[lvClient] == 0 {
			continue // client span missing: not a measured request
		}
		var r req
		r.client = float64(p[lvClient])
		for lv := 0; lv < nLevels; lv++ {
			d := p[lv]
			if lv+1 < nLevels {
				d -= p[lv+1]
			}
			r.self[lv] = float64(max(d, 0))
		}
		reqs = append(reqs, r)
	}
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].client < reqs[j].client })
	client = make([]float64, len(reqs))
	self = make([][nLevels]float64, len(reqs))
	for i, r := range reqs {
		client[i], self[i] = r.client, r.self
	}
	return client, self
}

// band returns the index range of requests around quantile q of a
// sorted sample: one percent of it, at least one request.
func band(n int, q float64) (lo, hi int) {
	lo = max(int((q-0.005)*float64(n)), 0)
	hi = min(int((q+0.005)*float64(n))+1, n)
	if lo >= hi {
		lo = max(hi-1, 0)
	}
	return lo, hi
}

// analyze reports the span metrics and the self-time table. layerOf
// names the layer each level's self time belongs to in this workload
// ("" for levels the workload does not have). A layer's share at p50
// (p99) is its self time over the client time, summed across the
// requests in a one-percent band around the client's p50 (p99), so
// the shares say where the requests at that percentile spent their
// time. span.p50_sum_ratio compares the summed per-layer self times of
// the p50 band with the client's p50: it is 1 when every span nests
// inside its parent and the levels account for the whole client call.
func (t *Tracer) analyze(layerOf [nLevels]string, m map[string]float64) map[string][2]float64 {
	client, self := t.selfTimes()
	for _, l := range spanLayers {
		m["span."+l+".p50_frac"] = 0
		m["span."+l+".p99_frac"] = 0
	}
	m["span.client_p50_us"] = quantile(client, 0.5) / 1e3
	m["span.client_p99_us"] = quantile(client, 0.99) / 1e3
	table := make(map[string][2]float64)
	var sumP50 float64
	for lv, layer := range layerOf {
		if layer == "" {
			continue
		}
		var row [2]float64
		for qi, q := range []float64{0.5, 0.99} {
			lo, hi := band(len(client), q)
			var s, c float64
			for i := lo; i < hi; i++ {
				s += self[i][lv]
				c += client[i]
			}
			suffix := [2]string{".p50_frac", ".p99_frac"}[qi]
			m["span."+layer+suffix] = ratio(s, c)
			row[qi] = ratio(s, float64(hi-lo)) / 1e3
		}
		table[layer] = row
		sumP50 += row[0]
	}
	m["span.p50_sum_ratio"] = ratio(sumP50*1e3, quantile(client, 0.5))
	return table
}

// chromeEvent is one complete event of the Chrome trace format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans of the first maxTraces requests as a
// Chrome trace (open it in Perfetto or chrome://tracing). Each span
// carries its trace id, its own id and its parent's id.
func (t *Tracer) writeChrome(path string, maxTraces int) error {
	byTrace := make(map[uint64][]span)
	var order []uint64
	for _, s := range t.spans {
		if _, ok := byTrace[s.trace]; !ok {
			if len(order) == maxTraces {
				continue
			}
			order = append(order, s.trace)
		}
		byTrace[s.trace] = append(byTrace[s.trace], s)
	}
	var events []chromeEvent
	for _, id := range order {
		ss := byTrace[id]
		sort.Slice(ss, func(i, j int) bool {
			if ss[i].start != ss[j].start {
				return ss[i].start < ss[j].start
			}
			return ss[i].level < ss[j].level
		})
		first := len(events)
		for i, s := range ss {
			parent := -1
			for j := i - 1; j >= 0; j-- {
				if ss[j].level < s.level && ss[j].start <= s.start && ss[j].end >= s.end {
					parent = first + j
					break
				}
			}
			events = append(events, chromeEvent{
				Name: levelNames[s.level], Ph: "X",
				Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
				Pid: 1, Tid: s.level,
				Args: map[string]any{"trace": obs.FormatTrace(id), "id": first + i, "parent": parent},
			})
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
