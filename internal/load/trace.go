package load

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// SlowOp is one row of a run's slow_ops section: a top-10 slowest
// operation as timed by the client, joined (by trace id) against the
// server's trace ring when the server retained it. ServerNs and the
// stage fields stay empty when the op was fast enough server-side to
// escape tail capture — the gap between ClientNs and ServerNs is then
// itself diagnostic (time spent in transit or queueing off-server).
type SlowOp struct {
	Trace    string           `json:"trace"`
	Op       string           `json:"op"`
	ClientNs int64            `json:"client_ns"`
	ServerNs int64            `json:"server_ns,omitempty"`
	Hop      string           `json:"hop,omitempty"`
	Stages   []obs.Span       `json:"stages,omitempty"`
	Attrs    map[string]int64 `json:"attrs,omitempty"`
}

// slowTrackerSize is the slow_ops table depth.
const slowTrackerSize = 10

// slowTracker keeps the top-N slowest client-timed operations of a
// run. The floor fast path keeps the common case (an op faster than
// everything already tabled) lock-free.
type slowTracker struct {
	floor atomic.Int64 // min ns in a full table; ops at or below skip the lock
	mu    sync.Mutex
	ops   []clientOp
}

type clientOp struct {
	trace uint64
	op    string
	ns    int64
}

func (st *slowTracker) note(trace uint64, op string, ns int64) {
	if trace == 0 || ns <= st.floor.Load() {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.ops) < slowTrackerSize {
		st.ops = append(st.ops, clientOp{trace, op, ns})
		if len(st.ops) == slowTrackerSize {
			st.refloor()
		}
		return
	}
	mi := 0
	for i, o := range st.ops {
		if o.ns < st.ops[mi].ns {
			mi = i
		}
	}
	if ns > st.ops[mi].ns {
		st.ops[mi] = clientOp{trace, op, ns}
		st.refloor()
	}
}

func (st *slowTracker) refloor() {
	min := st.ops[0].ns
	for _, o := range st.ops[1:] {
		if o.ns < min {
			min = o.ns
		}
	}
	st.floor.Store(min)
}

// join renders the table slowest-first, resolving each op's
// server-side record with an exact-id lookup — the table holds at most
// slowTrackerSize ids, so ten filtered reads replace shipping the
// server's whole ring, and a miss on one id cannot be confused with a
// snapshot race on another.
func (st *slowTracker) join(ctx context.Context, tb cluster.TraceBackend) []SlowOp {
	st.mu.Lock()
	ops := append([]clientOp(nil), st.ops...)
	st.mu.Unlock()
	if len(ops) == 0 {
		return nil
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].ns > ops[j].ns })
	out := make([]SlowOp, 0, len(ops))
	for _, o := range ops {
		so := SlowOp{Trace: obs.FormatTrace(o.trace), Op: o.op, ClientNs: o.ns}
		if got, err := tb.ReadTrace(ctx, so.Trace); err == nil {
			for _, sv := range got {
				if sv.Trace == so.Trace {
					so.ServerNs = sv.DurationNs
					so.Hop = sv.Hop
					so.Stages = sv.Spans
					so.Attrs = sv.Attrs
					break
				}
			}
		}
		out = append(out, so)
	}
	return out
}

// stageP99 projects the stage decomposition to its p99 column.
func stageP99(m map[string]obs.StageSummary) map[string]int64 {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]int64, len(m))
	for stage, s := range m {
		out[stage] = s.P99Ns
	}
	return out
}
