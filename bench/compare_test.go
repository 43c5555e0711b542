package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestVerdicts(t *testing.T) {
	lat := Metric{Name: "req_p50_us", Better: "lower", Bound: 0.05}
	tight := []float64{100, 101, 99, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3}
	// ±15% run-to-run noise, as on a shared 2-vCPU VM.
	noisy := []float64{100, 115, 88, 110, 92, 105, 86, 113, 97, 103}
	for _, tc := range []struct {
		name           string
		m              Metric
		parent, change []float64
		want           string
	}{
		{"clear gain", lat, tight, scaled(tight, 0.9), "improved"},
		{"same", lat, tight, scaled(tight, 1.01), "no worse"},
		{"regression", lat, tight, scaled(tight, 1.2), "worse"},
		{"higher is better", Metric{Better: "higher", Bound: 0.05}, tight, scaled(tight, 0.8), "worse"},
		// BENCH_diag: a -15.9% "gain" inside ±15% noise against a 2%
		// gate is not a result.
		{"BENCH_diag", Metric{Better: "lower", Bound: 0.02}, noisy,
			[]float64{95, 80, 97, 79, 90, 74, 92, 80, 94, 84}, "unresolved"},
	} {
		if got := Verdict(tc.m, tc.parent, tc.change); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
	if met, wins, pairs := ClaimTest(lat, tight, scaled(tight, 0.9)); !met || wins != 10 || pairs != 10 {
		t.Errorf("clear gain: claim met=%v %d/%d", met, wins, pairs)
	}
	if met, _, _ := ClaimTest(lat, tight[:9], scaled(tight[:9], 0.9)); met {
		t.Error("a claim on 9 pairs was met; the rule needs at least 10")
	}
}

func writeResults(t *testing.T, dir, name string, v float64) string {
	t.Helper()
	path := filepath.Join(dir, name)
	b, err := json.Marshal(map[string]any{"results": []Result{{
		Workload: "serve-churn", Metrics: map[string]float64{"req_p50_us": v, "allocs_per_op": 4.75},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareCommand(t *testing.T) {
	dir := t.TempDir()
	args := []string{"compare", "-claim", "serve-churn:req_p50_us"}
	var parent, change []string
	for i := 0; i < 10; i++ {
		parent = append(parent, writeResults(t, dir, "p"+string(rune('a'+i))+".json", 100+float64(i%3)))
		change = append(change, writeResults(t, dir, "c"+string(rune('a'+i))+".json", 80+float64(i%3)))
	}
	args = append(append(append(args, parent...), "--"), change...)
	var out, errOut bytes.Buffer
	if code := Main(args, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s%s", code, out.String(), errOut.String())
	}
	for _, want := range []string{"claim met", "serve-churn req_p50_us", "improved", "serve-churn allocs_per_op", "no worse"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	swapped := append(append(append([]string{"compare", "-claim", "serve-churn:req_p50_us"}, change...), "--"), parent...)
	if code := Main(swapped, &out, &errOut); code == 0 || !strings.Contains(out.String(), "worse") {
		t.Errorf("a 25%% regression exited %d:\n%s", code, out.String())
	}
}
