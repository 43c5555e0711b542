package bench

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Options configures one bbmark invocation.
type Options struct {
	Seed    uint64
	Seconds float64 // measured window per workload
	// Trace selects the traced run: an untraced half-window (the
	// baseline the tracing overhead is measured against), a traced
	// half-window with the span shims installed, and the cost ladder.
	// It reports the per-layer metrics.
	Trace  bool
	OutDir string // results.json and traces; "" writes nothing

	tiny    bool  // smoke-test scale
	tighten int64 // subtracted from every max-load bound (tests)
}

func (o Options) scale() scale {
	if o.tiny {
		return tiny
	}
	return full
}

// RunWorkload runs one workload on fresh stacks and returns its
// metrics and checks. The untraced run sets the stack up seven times
// (setup_s is the median) and measures the last.
func RunWorkload(name string, o Options) (*Result, error) {
	w, ok := workloadTable[name]
	if !ok {
		return nil, fmt.Errorf("bench: unknown workload %q (want one of %s)", name, strings.Join(Workloads, ", "))
	}
	sc := o.scale()
	res := &Result{Workload: name, Seed: o.Seed, Trace: o.Trace, Metrics: map[string]float64{}}
	for _, c := range counterMetrics {
		res.Metrics[c.Name] = 0
	}
	window := time.Duration(o.Seconds * float64(time.Second))
	newPhase := func(win time.Duration, setups int, tr *Tracer, m map[string]float64) *phase {
		return &phase{o: o, sc: sc, seed: o.Seed, window: win, setups: setups, tr: tr, res: res, m: m}
	}
	if !o.Trace {
		setups := 7
		if o.tiny {
			setups = 1
		}
		return res, w.run(newPhase(window, setups, nil, res.Metrics))
	}
	if err := w.run(newPhase(window/2, 1, nil, res.Metrics)); err != nil {
		return nil, err
	}
	tr := newTracer(w.traceEvery)
	traced := map[string]float64{}
	if err := w.run(newPhase(window/2, 1, tr, traced)); err != nil {
		return nil, err
	}
	res.SelfTime = tr.analyze(w.layers, res.Metrics)
	res.Metrics["trace.overhead_frac"] = ratio(traced["req_p50_us"], res.Metrics["req_p50_us"]) - 1
	p := rungParams{n: w.rungN(sc), keyedBins: w.keyedBins, seed: o.Seed}
	if err := runLadder(p, sc.rungBudget, res.Metrics); err != nil {
		return nil, err
	}
	if o.OutDir != "" {
		if err := tr.writeChrome(filepath.Join(o.OutDir, "trace_"+name+".json"), 2000); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Main is the bbmark command: run workloads, or compare result files
// ("compare ..."). It returns the process exit code.
func Main(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bbmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 1, "seed of every generated input")
	list := fs.String("workload", strings.Join(Workloads, ","), "workload to run, or a comma-separated list")
	seconds := fs.Float64("seconds", 24, "measured window per workload, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass: per-layer metrics, spans and the cost ladder")
	out := fs.String("out", "bbmark-out", "directory for results.json, trace_<workload>.json and selftime_<workload>.txt")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := strings.Split(*list, ",")
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bbmark: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	o := Options{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, OutDir: *out}
	return execute(names, o, stdout, stderr)
}

// execute runs names in order, prints every metric and check, writes
// results.json, and prints the summary JSON as the last line. It
// returns 1 when a workload fails to run or a check fails.
func execute(names []string, o Options, stdout, stderr io.Writer) int {
	if o.OutDir != "" {
		if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
			fmt.Fprintln(stderr, "bbmark:", err)
			return 1
		}
	}
	table := EndToEnd
	if o.Trace {
		table = PerLayer
	}
	var results []*Result
	summary := struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: true, Metrics: map[string]map[string]any{}}
	for _, name := range names {
		res, err := RunWorkload(name, o)
		if err != nil {
			fmt.Fprintln(stderr, "bbmark:", err)
			return 1
		}
		results = append(results, res)
		for _, m := range table {
			v := res.Metrics[m.Name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				res.check("finite_"+m.Name, false, "metric is not finite")
				v = 0
			}
			fmt.Fprintf(stdout, "%s %s %s %s\n", name, m.Name, strconv.FormatFloat(v, 'g', -1, 64), m.Unit)
			key := m.Name
			if len(names) > 1 {
				key = name + "/" + m.Name
			}
			summary.Metrics[key] = map[string]any{"value": v, "unit": m.Unit}
		}
		for _, c := range res.Checks {
			status := "ok"
			if !c.OK {
				status = "FAIL"
			}
			fmt.Fprintf(stdout, "%s check %s %s: %s\n", name, c.Name, status, c.Detail)
		}
		if res.SelfTime != nil {
			writeSelfTime(stdout, name, res.SelfTime)
			if o.OutDir != "" {
				f, err := os.Create(filepath.Join(o.OutDir, "selftime_"+name+".txt"))
				if err == nil {
					writeSelfTime(f, name, res.SelfTime)
					err = f.Close()
				}
				if err != nil {
					fmt.Fprintln(stderr, "bbmark:", err)
					return 1
				}
			}
		}
		summary.Correct = summary.Correct && res.Correct()
		summary.Attempted += res.Attempted
		summary.Failed += res.Failed
	}
	if o.OutDir != "" {
		b, err := json.MarshalIndent(map[string]any{"results": results}, "", "  ")
		if err == nil {
			err = os.WriteFile(filepath.Join(o.OutDir, "results.json"), b, 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bbmark:", err)
			return 1
		}
	}
	b, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintln(stderr, "bbmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !summary.Correct {
		return 1
	}
	return 0
}

// writeSelfTime prints the traced run's self-time table: each layer's
// mean self time over the requests at the client's p50 and p99 bands.
func writeSelfTime(w io.Writer, name string, table map[string][2]float64) {
	layers := make([]string, 0, len(table))
	for l := range table {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Fprintf(w, "%s selftime layer p50_band_us p99_band_us\n", name)
	for _, l := range layers {
		fmt.Fprintf(w, "%s selftime %s %.3f %.3f\n", name, l, table[l][0], table[l][1])
	}
}
