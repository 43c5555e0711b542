package diag

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/watch"
)

// Report is bbdoctor's analysis of one bundle: the decoded sections
// plus the anomalies flagged over them. It is built offline from the
// bundle alone — no live daemon needed.
type Report struct {
	Path      string `json:"path"`
	Complete  bool   `json:"complete"`
	TornBytes int64  `json:"torn_bytes"`
	Meta      Meta   `json:"meta"`
	// Violations are the BOUND_VIOLATION entries of the journal.
	Violations []watch.Event `json:"violations"`
	Events     []watch.Event `json:"events"`
	Checks     []watch.Check `json:"checks,omitempty"`
	// Traces are the assembled cross-tier trees from the trace section.
	Traces    []obs.AssembledTrace `json:"traces"`
	Anomalies []Anomaly            `json:"anomalies"`
}

// Anomaly is one flagged oddity. Severity is "warn" or "critical";
// violations are always critical.
type Anomaly struct {
	Kind     string `json:"kind"`
	Severity string `json:"severity"`
	Detail   string `json:"detail"`
}

// ExitCode maps a report onto bbdoctor's CI contract: 1 when the
// bundle holds violations or critical anomalies, 0 otherwise.
func (r *Report) ExitCode() int {
	if len(r.Violations) > 0 {
		return 1
	}
	for _, a := range r.Anomalies {
		if a.Severity == "critical" {
			return 1
		}
	}
	return 0
}

// NewestBundle returns the lexically-last *.bbdiag in dir (filenames
// embed a millisecond timestamp, so lexical order is temporal).
func NewestBundle(dir string) (string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.bbdiag"))
	if err != nil {
		return "", err
	}
	if len(matches) == 0 {
		return "", fmt.Errorf("diag: no bundles in %s", dir)
	}
	sort.Strings(matches)
	return matches[len(matches)-1], nil
}

// Analyze decodes a bundle's sections and runs every anomaly check
// over them. Missing or undecodable sections degrade to absent data,
// never to failure — a torn bundle from a dying process must still
// analyze as far as it goes.
func Analyze(b *Bundle) *Report {
	r := &Report{Path: b.Path, Complete: b.Complete, TornBytes: b.TornBytes}
	if data := b.Section("meta"); data != nil {
		json.Unmarshal(data, &r.Meta)
	}
	var events watch.EventsResponse
	if data := b.Section("events"); data != nil {
		json.Unmarshal(data, &events)
	}
	r.Events = events.Events
	for _, ev := range r.Events {
		if ev.Type == watch.EventBoundViolation {
			r.Violations = append(r.Violations, ev)
		}
	}
	if data := b.Section("checks"); data != nil {
		json.Unmarshal(data, &r.Checks)
	}
	var trace TraceSection
	if data := b.Section("trace"); data != nil {
		json.Unmarshal(data, &trace)
	}
	r.Traces = trace.Assembled
	if r.Traces == nil && len(trace.Ops) > 0 {
		r.Traces = obs.Assemble(trace.Ops)
	}

	var series watch.SeriesResponse
	if data := b.Section("timeseries"); data != nil {
		json.Unmarshal(data, &series)
	}
	// The stats document's shape differs per tier; decode just the
	// blocks the checks need with a tolerant anonymous struct. A
	// bbserved serves its WAL block at the top level, a bbproxy under
	// cluster (this package sits below internal/cluster, so it cannot
	// use cluster.StatsResponse's resolver).
	type walBlock struct {
		RecoveryTornBytes int64 `json:"recovery_torn_bytes"`
		AppendErrors      int64 `json:"append_errors"`
	}
	var stats struct {
		Obs        map[string]obs.StageSummary `json:"obs"`
		Durability *walBlock                   `json:"durability"`
		Cluster    struct {
			Durability *walBlock `json:"durability"`
		} `json:"cluster"`
	}
	if data := b.Section("stats"); data != nil {
		json.Unmarshal(data, &stats)
	}
	if stats.Cluster.Durability != nil {
		stats.Durability = stats.Cluster.Durability
	}

	r.Anomalies = append(r.Anomalies, flagIntegrity(b)...)
	r.Anomalies = append(r.Anomalies, flagBoundProximity(r.Checks)...)
	r.Anomalies = append(r.Anomalies, flagQueueApplySkew(stats.Obs)...)
	r.Anomalies = append(r.Anomalies, flagStalenessSpike(series.Points)...)
	if d := stats.Durability; d != nil {
		if d.RecoveryTornBytes > 0 {
			r.Anomalies = append(r.Anomalies, Anomaly{
				Kind: "wal-torn-tail", Severity: "warn",
				Detail: fmt.Sprintf("WAL recovery dropped %d torn tail bytes (a prior process died mid-append)", d.RecoveryTornBytes),
			})
		}
		if d.AppendErrors > 0 {
			r.Anomalies = append(r.Anomalies, Anomaly{
				Kind: "wal-append-errors", Severity: "critical",
				Detail: fmt.Sprintf("%d WAL append errors: recent placements may not be durable", d.AppendErrors),
			})
		}
	}
	return r
}

func flagIntegrity(b *Bundle) []Anomaly {
	var out []Anomaly
	if b.TornBytes > 0 {
		out = append(out, Anomaly{
			Kind: "torn-bundle", Severity: "warn",
			Detail: fmt.Sprintf("bundle has %d torn tail bytes — the dumping process died mid-capture; sections up to the tear are intact", b.TornBytes),
		})
	} else if !b.Complete {
		out = append(out, Anomaly{
			Kind: "incomplete-bundle", Severity: "warn",
			Detail: "bundle has no end marker — the dump was interrupted at a section boundary",
		})
	}
	return out
}

// flagBoundProximity warns when an armed invariant sat at ≥80% of its
// bound at capture time: not a breach, but the regime the paper's
// w.h.p. analysis says should be vanishingly rare under the configured
// policy, so sustained proximity usually means a misconfigured bound.
func flagBoundProximity(checks []watch.Check) []Anomaly {
	var out []Anomaly
	for _, ck := range checks {
		switch {
		case ck.Observed > ck.Bound:
			// Any bound, including 0 (the exact-equality checks) and an
			// injected override: an exceedance at capture is critical.
			out = append(out, Anomaly{
				Kind: "bound-exceeded", Severity: "critical",
				Detail: fmt.Sprintf("%s: observed %d > bound %d at capture", ck.Invariant, ck.Observed, ck.Bound),
			})
		case ck.Bound > 0 && ck.Observed*5 >= ck.Bound*4:
			// Proximity is only meaningful against a real positive bound.
			out = append(out, Anomaly{
				Kind: "bound-proximity", Severity: "warn",
				Detail: fmt.Sprintf("%s: observed %d is within 20%% of bound %d", ck.Invariant, ck.Observed, ck.Bound),
			})
		}
	}
	return out
}

// flagQueueApplySkew flags a queue-dominated latency profile: queue
// p99 over 10× apply p99 and above 1ms means requests spent their time
// waiting for the shard, not placing — an arrival-rate or shard-count
// problem, not an allocator one.
func flagQueueApplySkew(stages map[string]obs.StageSummary) []Anomaly {
	q, qok := stages["queue"]
	a, aok := stages["apply"]
	if !qok || !aok || a.P99Ns == 0 {
		return nil
	}
	if q.P99Ns > 10*a.P99Ns && q.P99Ns > int64(time.Millisecond) {
		return []Anomaly{{
			Kind: "queue-apply-skew", Severity: "warn",
			Detail: fmt.Sprintf("queue p99 %.2fms is %.0f× apply p99 %.3fms — latency is contention, not placement",
				float64(q.P99Ns)/1e6, float64(q.P99Ns)/float64(a.P99Ns), float64(a.P99Ns)/1e6),
		}}
	}
	return nil
}

// flagStalenessSpike flags a pick-staleness excursion in the series:
// max p99 over 5× the median and past 250ms means the proxy was
// routing on a badly outdated view for part of the window (the paper's
// bound degrades with view staleness).
func flagStalenessSpike(points []watch.Point) []Anomaly {
	var vals []float64
	for _, p := range points {
		if p.PickStalenessP99Ms > 0 {
			vals = append(vals, float64(p.PickStalenessP99Ms))
		}
	}
	if len(vals) < 4 {
		return nil
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	med := sorted[len(sorted)/2]
	max := sorted[len(sorted)-1]
	if med > 0 && max > 5*med && max > 250 {
		return []Anomaly{{
			Kind: "staleness-spike", Severity: "warn",
			Detail: fmt.Sprintf("pick staleness p99 spiked to %.0fms (median %.0fms) — the load view lagged badly for part of the window", max, med),
		}}
	}
	return nil
}

// WriteText renders the report for a terminal: meta header, violation
// and gap timeline, assembled trace trees, anomaly list.
func WriteText(w io.Writer, r *Report) {
	fmt.Fprintf(w, "bundle   %s\n", r.Path)
	status := "complete"
	if r.TornBytes > 0 {
		status = fmt.Sprintf("TORN (%d trailing bytes lost)", r.TornBytes)
	} else if !r.Complete {
		status = "INCOMPLETE (no end marker)"
	}
	fmt.Fprintf(w, "status   %s\n", status)
	fmt.Fprintf(w, "hop      %s\n", r.Meta.Hop)
	fmt.Fprintf(w, "trigger  %s: %s\n", r.Meta.Trigger, r.Meta.Reason)
	if r.Meta.TimeUnixMs > 0 {
		fmt.Fprintf(w, "time     %s\n", time.UnixMilli(r.Meta.TimeUnixMs).UTC().Format(time.RFC3339Nano))
	}
	fmt.Fprintf(w, "build    %s go=%s wire=v%d dirty=%t\n",
		short(r.Meta.Build.Commit), r.Meta.Build.GoVersion, r.Meta.Build.WireVersion, r.Meta.Build.Dirty)
	if r.Meta.ArmedCrashPoint != "" {
		fmt.Fprintf(w, "armed    crash point %s\n", r.Meta.ArmedCrashPoint)
	}

	fmt.Fprintf(w, "\n== events (%d, %d violations) ==\n", len(r.Events), len(r.Violations))
	for _, ev := range r.Events {
		mark := "  "
		if ev.Type == watch.EventBoundViolation {
			mark = "!!"
		}
		fmt.Fprintf(w, "%s %s seq=%d %s %s\n", mark,
			time.UnixMilli(ev.TimeUnixMs).UTC().Format("15:04:05.000"), ev.Seq, ev.Type, ev.Detail)
	}

	if len(r.Checks) > 0 {
		fmt.Fprintf(w, "\n== invariants at capture ==\n")
		for _, ck := range r.Checks {
			state := "ok"
			if ck.Observed > ck.Bound {
				state = "VIOLATED"
			}
			fmt.Fprintf(w, "   %-20s observed %d / bound %d  %s\n", ck.Invariant, ck.Observed, ck.Bound, state)
		}
	}

	fmt.Fprintf(w, "\n== traces (%d assembled) ==\n", len(r.Traces))
	for i := range r.Traces {
		writeTraceTree(w, &r.Traces[i])
	}

	fmt.Fprintf(w, "\n== anomalies (%d) ==\n", len(r.Anomalies))
	for _, a := range r.Anomalies {
		fmt.Fprintf(w, "   [%s] %s: %s\n", a.Severity, a.Kind, a.Detail)
	}
	if len(r.Anomalies) == 0 {
		fmt.Fprintf(w, "   none\n")
	}
}

// writeTraceTree renders one assembled trace: ops as an indented tree,
// spans as leaves under their op, offsets relative to the trace start.
func writeTraceTree(w io.Writer, at *obs.AssembledTrace) {
	fmt.Fprintf(w, "-- trace %s  hops=%s  ops=%d  %.3fms\n",
		at.Trace, strings.Join(at.Hops, ","), at.Ops, float64(at.DurationNs)/1e6)
	for _, root := range at.Roots {
		writeTraceNode(w, root, at.StartUnixNano, 1)
	}
}

func writeTraceNode(w io.Writer, n *obs.TraceNode, base int64, depth int) {
	indent := strings.Repeat("  ", depth)
	errTag := ""
	if n.Err != "" {
		errTag = "  err=" + n.Err
	}
	fmt.Fprintf(w, "%s%s/%s  +%.3fms  %.3fms%s\n", indent, n.Hop, n.Op.Op,
		float64(n.Start-base)/1e6, float64(n.DurationNs)/1e6, errTag)
	for _, sp := range n.Spans {
		fmt.Fprintf(w, "%s  · %-12s +%.3fms  %.3fms\n", indent, sp.Stage,
			float64(sp.Start-base)/1e6, float64(sp.DurationNs)/1e6)
	}
	for _, c := range n.Children {
		writeTraceNode(w, c, base, depth+1)
	}
}

func short(commit string) string {
	if len(commit) > 12 {
		return commit[:12]
	}
	return commit
}
