package bench

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// quartiles returns the first and third quartiles of xs by the
// "exclusive" method (Python's statistics.quantiles(xs, n=4)).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) < 2 {
		if len(s) == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	q := func(i int) float64 {
		ld, m, n := len(s), len(s)+1, 4
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return q(1), q(3)
}

// better reports whether a reads better than b for m.
func better(m Metric, a, b float64) bool {
	if m.Better == "higher" {
		return a > b
	}
	return a < b
}

// ClaimTest applies the small-sandbox rule to a claimed gain: at least
// ten parent/change pairs, the change winning at least nine tenths of
// them (ties count for neither), and the medians differing in the
// claimed direction by more than the parent's interquartile range.
// Pair i is parent[i] against change[i].
func ClaimTest(m Metric, parent, change []float64) (met bool, wins, pairs int) {
	pairs = min(len(parent), len(change))
	for i := 0; i < pairs; i++ {
		if better(m, change[i], parent[i]) {
			wins++
		}
	}
	q1, q3 := quartiles(parent)
	pm, cm := median(parent), median(change)
	met = pairs >= 10 && 10*wins >= 9*pairs && better(m, cm, pm) && math.Abs(cm-pm) > q3-q1
	return met, wins, pairs
}

// Verdict classifies one metric × workload row: "improved" when the
// claim test passes or every change run reads better than every parent
// run; otherwise "unresolved" when the parent's run-to-run spread (its
// interquartile range over its median) is wider than the bound, "worse"
// when the change's median is worse than the parent's by more than the
// bound, and "no worse" otherwise.
func Verdict(m Metric, parent, change []float64) string {
	if met, _, _ := ClaimTest(m, parent, change); met {
		return "improved"
	}
	allBetter := len(parent) > 0 && len(change) > 0
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(m, c, p)
		}
	}
	if allBetter {
		return "improved"
	}
	pm, cm := median(parent), median(change)
	q1, q3 := quartiles(parent)
	if (q3-q1)/math.Abs(pm) > m.Bound {
		return "unresolved"
	}
	worse := (cm - pm) / math.Abs(pm)
	if m.Better == "higher" {
		worse = -worse
	}
	if worse > m.Bound {
		return "worse"
	}
	return "no worse"
}

// loadRuns reads results.json files into workload → metric → one value
// per file.
func loadRuns(paths []string) (map[string]map[string][]float64, error) {
	runs := map[string]map[string][]float64{}
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var doc struct{ Results []Result }
		if err := json.Unmarshal(b, &doc); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, r := range doc.Results {
			if runs[r.Workload] == nil {
				runs[r.Workload] = map[string][]float64{}
			}
			for k, v := range r.Metrics {
				runs[r.Workload][k] = append(runs[r.Workload][k], v)
			}
		}
	}
	return runs, nil
}

// compareMain is "bbmark compare [-claim workload:metric] PARENT... --
// CHANGE...": each argument is a results.json from one untraced run,
// listed in the order the pairs alternated. It prints one row per
// end-to-end metric × workload and exits 1 when a row is worse or the
// claim is not met.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bbmark compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	claim := fs.String("claim", "", "workload:metric the change claims to improve")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rest := fs.Args()
	sep := -1
	for i, a := range rest {
		if a == "--" {
			sep = i
		}
	}
	if sep <= 0 || sep == len(rest)-1 {
		fmt.Fprintln(stderr, "usage: bbmark compare [-claim workload:metric] PARENT.json... -- CHANGE.json...")
		return 2
	}
	parent, err := loadRuns(rest[:sep])
	if err == nil {
		var change map[string]map[string][]float64
		if change, err = loadRuns(rest[sep+1:]); err == nil {
			return printComparison(stdout, stderr, *claim, parent, change)
		}
	}
	fmt.Fprintln(stderr, "bbmark compare:", err)
	return 1
}

func printComparison(stdout, stderr io.Writer, claim string, parent, change map[string]map[string][]float64) int {
	code := 0
	if claim != "" {
		w, name, _ := strings.Cut(claim, ":")
		m, ok := metricByName(name)
		if !ok || parent[w][name] == nil || change[w][name] == nil {
			fmt.Fprintf(stderr, "bbmark compare: no runs of %q\n", claim)
			return 2
		}
		met, wins, pairs := ClaimTest(m, parent[w][name], change[w][name])
		q1, q3 := quartiles(parent[w][name])
		verdict := "claim met"
		if !met {
			verdict, code = "claim not met", 1
		}
		fmt.Fprintf(stdout, "claim %s %s: %d/%d pairs won, median %g -> %g, parent IQR %g\n",
			claim, verdict, wins, pairs, median(parent[w][name]), median(change[w][name]), q3-q1)
	}
	for _, w := range Workloads {
		for _, m := range EndToEnd {
			p, c := parent[w][m.Name], change[w][m.Name]
			if p == nil || c == nil {
				continue
			}
			v := Verdict(m, p, c)
			if v == "worse" {
				code = 1
			}
			pm, cm := median(p), median(c)
			fmt.Fprintf(stdout, "%s %s parent %g change %g (%+.1f%%, bound %.0f%%) %s\n",
				w, m.Name, pm, cm, 100*(cm-pm)/math.Abs(pm), 100*m.Bound, v)
		}
	}
	return code
}
