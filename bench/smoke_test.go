package bench

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"
)

// benchmarkJSON is the part of the repository's BENCHMARK.json the
// code must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metric
// tables the code reports from drifting apart.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	doc := readBenchmarkJSON(t)
	if len(doc.Workloads) != len(Workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(doc.Workloads), len(Workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != Workloads[i] {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in code", i, w.Name, Workloads[i])
		}
	}
	if len(doc.EndToEnd) != len(EndToEnd) || len(doc.PerLayer) != len(PerLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, code %d+%d",
			len(doc.EndToEnd), len(doc.PerLayer), len(EndToEnd), len(PerLayer))
	}
	for i, m := range doc.EndToEnd {
		if c := EndToEnd[i]; m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better || m.Bound != c.Bound {
			t.Errorf("end_to_end %d: %+v in BENCHMARK.json, %+v in code", i, m, c)
		}
	}
	for i, m := range doc.PerLayer {
		if c := PerLayer[i]; m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better {
			t.Errorf("per_layer %d: %+v in BENCHMARK.json, %+v in code", i, m, c)
		}
	}
}

// TestSmokeAllWorkloads runs every workload's traced pass at tiny
// scale: it reports every metric BENCHMARK.json names, finite, and
// passes every correctness check.
func TestSmokeAllWorkloads(t *testing.T) {
	doc := readBenchmarkJSON(t)
	for _, name := range Workloads {
		res, err := RunWorkload(name, Options{Seed: 1, Seconds: 0.4, Trace: true, tiny: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, c := range res.Checks {
			if !c.OK {
				t.Errorf("%s: check %s failed: %s", name, c.Name, c.Detail)
			}
		}
		if res.Attempted < 1 {
			t.Errorf("%s: no request attempted", name)
		}
		names := map[string]string{}
		for _, m := range doc.EndToEnd {
			names[m.Name] = m.Unit
		}
		for _, m := range doc.PerLayer {
			names[m.Name] = m.Unit
		}
		for n, unit := range names {
			v, ok := res.Metrics[n]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: metric %s missing or not finite (%v)", name, n, v)
			}
			if m, _ := metricByName(n); m.Unit != unit {
				t.Errorf("%s: metric %s reported in %q, declared %q", name, n, m.Unit, unit)
			}
		}
		for _, m := range doc.EndToEnd {
			if res.Metrics[m.Name] == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", name, m.Name)
			}
		}
	}
}

// TestFailedCheckExitsNonZero tightens the max-load bound the checks
// use and expects the command to fail.
func TestFailedCheckExitsNonZero(t *testing.T) {
	o := Options{Seed: 1, Seconds: 0.05, tiny: true}
	if code := execute([]string{"sim"}, o, io.Discard, io.Discard); code != 0 {
		t.Fatalf("untightened run exited %d", code)
	}
	o.tighten = 1000
	if code := execute([]string{"sim"}, o, io.Discard, io.Discard); code == 0 {
		t.Fatal("run with an impossible bound exited 0")
	}
}
