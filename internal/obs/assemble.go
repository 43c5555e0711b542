package obs

import "sort"

// TraceNode is one op in an assembled trace tree. Children are the
// downstream ops whose wall-clock window nests inside this op's —
// a proxy forward parents the serve dispatch it triggered.
type TraceNode struct {
	*Op
	Children []*TraceNode `json:"children,omitempty"`
}

// AssembledTrace is one trace id's complete cross-tier picture: every
// matching op from every contributing ring, merged into a forest by
// time containment.
type AssembledTrace struct {
	Trace         string       `json:"trace"`
	Hops          []string     `json:"hops"`
	StartUnixNano int64        `json:"start_unix_nano"`
	DurationNs    int64        `json:"duration_ns"`
	Ops           int          `json:"ops"`
	Roots         []*TraceNode `json:"roots"`
}

// containSlackNs absorbs cross-host clock skew and the gap between a
// parent recording its end and a child stamping its start: a child
// whose window pokes out by at most this much still nests.
const containSlackNs = int64(2e6) // 2ms

// Assemble merges ops (any order, any mix of hops, possibly several
// trace ids) into per-trace trees. Parenting is by time containment:
// each op hangs under the tightest earlier-starting op whose
// [start, end) covers it within containSlackNs; ops nothing covers
// become roots. Traces are returned sorted by start time.
func Assemble(ops []*Op) []AssembledTrace {
	byTrace := make(map[string][]*Op)
	for _, op := range ops {
		if op != nil {
			byTrace[op.Trace] = append(byTrace[op.Trace], op)
		}
	}
	out := make([]AssembledTrace, 0, len(byTrace))
	for trace, group := range byTrace {
		out = append(out, assembleOne(trace, group))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StartUnixNano < out[j].StartUnixNano })
	return out
}

func assembleOne(trace string, ops []*Op) AssembledTrace {
	// Start ascending; ties break longest-first so a container sorts
	// before the ops it contains.
	sort.Slice(ops, func(i, j int) bool {
		if ops[i].Start != ops[j].Start {
			return ops[i].Start < ops[j].Start
		}
		return ops[i].DurationNs > ops[j].DurationNs
	})
	nodes := make([]*TraceNode, len(ops))
	for i, op := range ops {
		nodes[i] = &TraceNode{Op: op}
	}
	at := AssembledTrace{Trace: trace, Ops: len(ops)}
	hops := make(map[string]bool)
	var end int64
	for i, n := range nodes {
		hops[n.Hop] = true
		if e := n.Start + n.DurationNs; e > end {
			end = e
		}
		// The tightest container is the latest-starting earlier node
		// that still covers this one — scan backwards, first hit wins.
		var parent *TraceNode
		for j := i - 1; j >= 0; j-- {
			c := nodes[j]
			if n.Start >= c.Start-containSlackNs &&
				n.Start+n.DurationNs <= c.Start+c.DurationNs+containSlackNs {
				parent = c
				break
			}
		}
		if parent != nil {
			parent.Children = append(parent.Children, n)
		} else {
			at.Roots = append(at.Roots, n)
		}
	}
	if len(ops) > 0 {
		at.StartUnixNano = ops[0].Start
		at.DurationNs = end - ops[0].Start
	}
	for h := range hops {
		at.Hops = append(at.Hops, h)
	}
	sort.Strings(at.Hops)
	return at
}

// TraceResponse is the body of GET /v1/trace: the component's
// retained-op ring, oldest first.
type TraceResponse struct {
	Hop string `json:"hop"`
	Ops []*Op  `json:"ops"`
}

// AssembledTraceResponse is the body of GET /v1/trace/{id}: the ops
// gathered for one trace id (cross-tier on the proxy, the local ring
// on serve) plus their assembled tree.
type AssembledTraceResponse struct {
	Trace     string          `json:"trace"`
	Sources   []string        `json:"sources"`
	Ops       []*Op           `json:"ops"`
	Assembled *AssembledTrace `json:"assembled"`
}

// NewAssembledTraceResponse builds the /v1/trace/{id} document from
// gathered ops. sources names the rings consulted (for debugging a
// partial assembly when a backend was down).
func NewAssembledTraceResponse(id uint64, sources []string, ops []*Op) AssembledTraceResponse {
	resp := AssembledTraceResponse{Trace: FormatTrace(id), Sources: sources, Ops: ops}
	if resp.Ops == nil {
		resp.Ops = []*Op{}
	}
	if ts := Assemble(ops); len(ts) > 0 {
		resp.Assembled = &ts[0]
	}
	return resp
}
