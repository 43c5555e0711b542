package obs

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"

	"repro/internal/hdrhist"
)

// WriteGauge writes one Prometheus gauge with its HELP and TYPE lines.
func WriteGauge(w io.Writer, name, help string, value any) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, value)
}

// WriteCounter writes one Prometheus counter with its HELP and TYPE
// lines.
func WriteCounter(w io.Writer, name, help string, value int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, value)
}

// WriteStageMetrics renders the per-stage latency decomposition as
// bb_stage_latency_seconds{stage=...} Prometheus summaries. Shared by
// bbserved and bbproxy so the stage series cannot drift between
// tiers; a nil recorder writes nothing.
func (r *Recorder) WriteStageMetrics(w io.Writer) {
	if r == nil {
		return
	}
	snaps := r.StageSnapshots()
	if len(snaps) == 0 {
		return
	}
	stages := make([]string, 0, len(snaps))
	for k := range snaps {
		stages = append(stages, k)
	}
	sort.Strings(stages)
	fmt.Fprintf(w, "# HELP bb_stage_latency_seconds Per-stage request latency decomposition (op totals under the op name).\n")
	fmt.Fprintf(w, "# TYPE bb_stage_latency_seconds summary\n")
	for _, stage := range stages {
		s := snaps[stage]
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
			fmt.Fprintf(w, "bb_stage_latency_seconds{stage=%q,quantile=%q} %g\n",
				stage, strconv.FormatFloat(q, 'g', -1, 64), float64(s.Quantile(q))/1e9)
		}
		fmt.Fprintf(w, "bb_stage_latency_seconds_sum{stage=%q} %g\n", stage, float64(s.Sum)/1e9)
		fmt.Fprintf(w, "bb_stage_latency_seconds_count{stage=%q} %d\n", stage, s.Count)
	}
}

// WritePickStaleness renders a staleness-at-pick histogram snapshot
// (recorded in milliseconds, exported as bb_pick_staleness_ms) — the
// per-decision visibility of how old the load view was when the
// routing policy used it.
func WritePickStaleness(w io.Writer, s hdrhist.Snapshot) {
	if s.Count == 0 {
		return
	}
	fmt.Fprintf(w, "# HELP bb_pick_staleness_ms Load-view age at the moment of each routing pick.\n")
	fmt.Fprintf(w, "# TYPE bb_pick_staleness_ms summary\n")
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		fmt.Fprintf(w, "bb_pick_staleness_ms{quantile=%q} %d\n",
			strconv.FormatFloat(q, 'g', -1, 64), s.Quantile(q))
	}
	fmt.Fprintf(w, "bb_pick_staleness_ms_sum %d\n", s.Sum)
	fmt.Fprintf(w, "bb_pick_staleness_ms_count %d\n", s.Count)
}

// WriteRuntimeMetrics renders Go runtime health as bb_go_* series:
// goroutine count, heap, and GC activity. ReadMemStats stops the
// world briefly, which is fine at metrics-scrape cadence.
func WriteRuntimeMetrics(w io.Writer) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	WriteGauge(w, "bb_go_goroutines", "Live goroutines.", runtime.NumGoroutine())
	WriteGauge(w, "bb_go_heap_alloc_bytes", "Heap bytes allocated and in use.", ms.HeapAlloc)
	WriteGauge(w, "bb_go_heap_objects", "Live heap objects.", ms.HeapObjects)
	WriteGauge(w, "bb_go_sys_bytes", "Bytes obtained from the OS.", ms.Sys)
	WriteCounter(w, "bb_go_gc_cycles_total", "Completed GC cycles.", int64(ms.NumGC))
	fmt.Fprintf(w, "# HELP bb_go_gc_pause_seconds_total Cumulative stop-the-world GC pause.\n")
	fmt.Fprintf(w, "# TYPE bb_go_gc_pause_seconds_total counter\n")
	fmt.Fprintf(w, "bb_go_gc_pause_seconds_total %g\n", float64(ms.PauseTotalNs)/1e9)
}
