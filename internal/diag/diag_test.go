package diag

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/watch"
)

// testSources builds a live monitor + recorder pair with one retained
// traced op and one armed check, the minimum a bundle needs to hold
// every section.
func testSources(t *testing.T, observed, bound int64) (*watch.Monitor, *obs.Recorder) {
	t.Helper()
	rec := obs.NewRecorder(obs.Options{Hop: "serve", SampleEvery: 1})
	c := rec.Begin(0, "place")
	c.Stage("queue", time.Now().Add(-time.Millisecond))
	c.End(nil)

	mon := watch.New("serve", watch.Options{}, func() watch.Sample {
		return watch.Sample{
			Checks: []watch.Check{{Invariant: "test_max_load", Observed: observed, Bound: bound}},
		}
	})
	mon.Tick(time.Now())
	return mon, rec
}

func newTestRecorder(t *testing.T, o Options, src Sources) *Recorder {
	t.Helper()
	if o.Dir == "" {
		o.Dir = t.TempDir()
	}
	r, err := New(o, src)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return r
}

func TestDumpWritesEverySection(t *testing.T) {
	mon, orec := testSources(t, 5, 10)
	r := newTestRecorder(t, Options{
		Hop:   "serve",
		Build: obs.BuildInfo{Module: "repro", GoVersion: "go-test", Commit: "abc123", WireVersion: 3},
	}, Sources{
		Monitor:    mon,
		Obs:        orec,
		StatsJSON:  func(context.Context) ([]byte, error) { return []byte(`{"balls":1}`), nil },
		Durability: func() any { return map[string]int64{"log_bytes": 42} },
	})

	path, err := r.Dump(context.Background(), TriggerManual, "test dump")
	if err != nil {
		t.Fatalf("Dump: %v", err)
	}
	b, err := ReadBundle(path)
	if err != nil {
		t.Fatalf("ReadBundle: %v", err)
	}
	if !b.Complete {
		t.Fatal("dumped bundle not complete")
	}
	for _, name := range []string{
		"meta", "stats", "events", "timeseries", "checks",
		"trace", "durability", "goroutines", "heap", "buildinfo",
	} {
		if b.Section(name) == nil {
			t.Errorf("bundle missing section %q", name)
		}
	}

	var meta Meta
	if err := json.Unmarshal(b.Section("meta"), &meta); err != nil {
		t.Fatalf("meta decode: %v", err)
	}
	if meta.Schema != Schema || meta.Hop != "serve" || meta.Trigger != TriggerManual {
		t.Fatalf("meta = %+v", meta)
	}
	if meta.Build.Commit != "abc123" || meta.Build.WireVersion != 3 {
		t.Fatalf("meta build = %+v, want the stamped identity", meta.Build)
	}

	var ts TraceSection
	if err := json.Unmarshal(b.Section("trace"), &ts); err != nil {
		t.Fatalf("trace decode: %v", err)
	}
	if len(ts.Ops) != 1 || ts.Ops[0].Op != "place" {
		t.Fatalf("trace ops = %+v, want the one captured place", ts.Ops)
	}
	if len(ts.Assembled) != 1 {
		t.Fatalf("assembled %d traces, want 1", len(ts.Assembled))
	}

	var checks []watch.Check
	if err := json.Unmarshal(b.Section("checks"), &checks); err != nil {
		t.Fatalf("checks decode: %v", err)
	}
	if len(checks) != 1 || checks[0].Invariant != "test_max_load" {
		t.Fatalf("checks = %+v", checks)
	}

	st := r.StatsDoc()
	if st.BundlesWritten != 1 || st.LastTrigger != TriggerManual || st.LastPath != path {
		t.Fatalf("StatsDoc = %+v", st)
	}
}

func TestViolationHookTriggersBundle(t *testing.T) {
	mon, orec := testSources(t, 5, 10)
	dir := t.TempDir()
	r := newTestRecorder(t, Options{Dir: dir, Hop: "serve"}, Sources{Monitor: mon, Obs: orec})
	mon.OnViolation(r.OnViolation)

	// Force the breach through the real watchdog machinery, exactly
	// like the CI smoke test does out of process.
	mon.OverrideBound("test_max_load", -1)
	mon.Tick(time.Now())

	path := waitForBundle(t, dir)
	b, err := ReadBundle(path)
	if err != nil {
		t.Fatalf("ReadBundle: %v", err)
	}
	var meta Meta
	json.Unmarshal(b.Section("meta"), &meta)
	if meta.Trigger != TriggerViolation {
		t.Fatalf("trigger = %q, want %q", meta.Trigger, TriggerViolation)
	}
	var events watch.EventsResponse
	json.Unmarshal(b.Section("events"), &events)
	found := false
	for _, ev := range events.Events {
		if ev.Type == watch.EventBoundViolation {
			found = true
		}
	}
	if !found {
		t.Fatal("violation bundle's journal holds no BOUND_VIOLATION event")
	}
}

// waitForBundle polls for the async trigger path's bundle and returns
// it once it is written in full: the writer creates the final file and
// then appends to it, so a bundle seen mid-write does not yet read
// back complete.
func waitForBundle(t *testing.T, dir string) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if path, err := NewestBundle(dir); err == nil {
			if b, err := ReadBundle(path); err == nil && b.Complete {
				return path
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("no complete bundle appeared within 5s")
	return ""
}

func TestTriggerRateLimit(t *testing.T) {
	mon, orec := testSources(t, 5, 10)
	dir := t.TempDir()
	r := newTestRecorder(t, Options{Dir: dir, Hop: "serve", MinInterval: time.Hour},
		Sources{Monitor: mon, Obs: orec})

	r.Trigger(TriggerViolation, "first", nil)
	waitForBundle(t, dir)
	for i := 0; i < 3; i++ {
		r.Trigger(TriggerViolation, "flap", nil)
	}
	st := r.StatsDoc()
	if st.DroppedRateLimited != 3 {
		t.Fatalf("dropped = %d, want 3", st.DroppedRateLimited)
	}
	// The synchronous path must bypass the window: SIGQUIT always dumps.
	if _, err := r.Dump(context.Background(), TriggerSignal, "operator"); err != nil {
		t.Fatalf("Dump inside rate window: %v", err)
	}
	if got := r.StatsDoc().BundlesWritten; got != 2 {
		t.Fatalf("bundles written = %d, want 2", got)
	}
}

func TestRetentionPrune(t *testing.T) {
	mon, orec := testSources(t, 5, 10)
	dir := t.TempDir()
	r := newTestRecorder(t, Options{Dir: dir, Hop: "serve", MaxBundles: 2},
		Sources{Monitor: mon, Obs: orec})
	var last string
	for i := 0; i < 5; i++ {
		p, err := r.Dump(context.Background(), TriggerManual, "fill")
		if err != nil {
			t.Fatalf("Dump %d: %v", i, err)
		}
		last = p
		time.Sleep(2 * time.Millisecond) // distinct unix-ms filenames
	}
	newest, err := NewestBundle(dir)
	if err != nil {
		t.Fatal(err)
	}
	if newest != last {
		t.Fatalf("newest = %s, want the last dump %s", newest, last)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.bbdiag"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("retained %d bundles, want 2", len(entries))
	}
}

func TestCheckStartupRecovery(t *testing.T) {
	mon, orec := testSources(t, 5, 10)
	dir := t.TempDir()
	r := newTestRecorder(t, Options{Dir: dir, Hop: "serve"}, Sources{Monitor: mon, Obs: orec})
	r.CheckStartup(context.Background(), 37)
	path := waitForBundle(t, dir)
	b, _ := ReadBundle(path)
	var meta Meta
	json.Unmarshal(b.Section("meta"), &meta)
	if meta.Trigger != TriggerRecovery || meta.Fields["recovery_torn_bytes"] != 37 {
		t.Fatalf("meta = %+v, want recovery trigger with 37 torn bytes", meta)
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	if r.StatsDoc() != nil {
		t.Fatal("nil recorder returns a stats block")
	}
	r.Trigger(TriggerManual, "x", nil)
	r.OnViolation(watch.Event{})
	r.CheckStartup(context.Background(), 99)
	if path, err := r.Dump(context.Background(), TriggerManual, "x"); path != "" || err != nil {
		t.Fatalf("nil Dump = %q, %v", path, err)
	}
	if rec, err := New(Options{Dir: ""}, Sources{}); rec != nil || err != nil {
		t.Fatalf("New with empty dir = %v, %v; want nil, nil", rec, err)
	}
}

func TestDoctorAnalyzeViolationBundle(t *testing.T) {
	mon, orec := testSources(t, 5, 10)
	dir := t.TempDir()
	r := newTestRecorder(t, Options{Dir: dir, Hop: "serve"}, Sources{
		Monitor:   mon,
		Obs:       orec,
		StatsJSON: func(context.Context) ([]byte, error) { return []byte(`{"obs":{}}`), nil },
	})
	mon.OnViolation(r.OnViolation)
	mon.OverrideBound("test_max_load", -1)
	mon.Tick(time.Now())
	path := waitForBundle(t, dir)

	b, err := ReadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	rep := Analyze(b)
	if len(rep.Violations) == 0 {
		t.Fatal("report holds no violations")
	}
	if rep.ExitCode() != 1 {
		t.Fatalf("ExitCode = %d, want 1 (the CI gate)", rep.ExitCode())
	}
	hasExceeded := false
	for _, a := range rep.Anomalies {
		if a.Kind == "bound-exceeded" && a.Severity == "critical" {
			hasExceeded = true
		}
	}
	if !hasExceeded {
		t.Fatalf("anomalies %+v missing critical bound-exceeded", rep.Anomalies)
	}
	if len(rep.Traces) == 0 {
		t.Fatal("report holds no assembled traces")
	}

	var out bytes.Buffer
	WriteText(&out, rep)
	for _, want := range []string{"trigger  violation", "!!", "test_max_load", "VIOLATED", "serve/place"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, out.String())
		}
	}
}

func TestDoctorCleanBundleExitsZero(t *testing.T) {
	mon, orec := testSources(t, 5, 10)
	r := newTestRecorder(t, Options{Hop: "serve"}, Sources{Monitor: mon, Obs: orec})
	path, err := r.Dump(context.Background(), TriggerSignal, "operator SIGQUIT")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := ReadBundle(path)
	rep := Analyze(b)
	if rep.ExitCode() != 0 {
		t.Fatalf("clean bundle ExitCode = %d (violations %v, anomalies %+v)",
			rep.ExitCode(), rep.Violations, rep.Anomalies)
	}
}

func TestDoctorFlagsTornBundle(t *testing.T) {
	mon, orec := testSources(t, 5, 10)
	dir := t.TempDir()
	r := newTestRecorder(t, Options{Dir: dir, Hop: "serve"}, Sources{Monitor: mon, Obs: orec})
	path, err := r.Dump(context.Background(), TriggerManual, "to be torn")
	if err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-30); err != nil {
		t.Fatal(err)
	}
	b, err := ReadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	rep := Analyze(b)
	found := false
	for _, a := range rep.Anomalies {
		if a.Kind == "torn-bundle" || a.Kind == "incomplete-bundle" {
			found = true
		}
	}
	if !found {
		t.Fatalf("anomalies %+v missing integrity flag for a torn bundle", rep.Anomalies)
	}
}

// TestDoctorFlagsWALOnBothTiers: the WAL checks read the durability
// block wherever the tier puts it — top level on a bbserved, under
// cluster on a bbproxy.
func TestDoctorFlagsWALOnBothTiers(t *testing.T) {
	wal := `{"recovery_torn_bytes": 12, "append_errors": 3}`
	for tier, stats := range map[string]string{
		"serve": `{"durability": ` + wal + `}`,
		"proxy": `{"cluster": {"policy": "adaptive", "durability": ` + wal + `}}`,
	} {
		b := &Bundle{Path: tier, Complete: true, Sections: []Section{{Name: "stats", Data: []byte(stats)}}}
		rep := Analyze(b)
		kinds := map[string]bool{}
		for _, a := range rep.Anomalies {
			kinds[a.Kind] = true
		}
		if !kinds["wal-torn-tail"] || !kinds["wal-append-errors"] || rep.ExitCode() != 1 {
			t.Errorf("%s stats: anomalies %+v (exit %d), want wal-torn-tail and wal-append-errors",
				tier, rep.Anomalies, rep.ExitCode())
		}
	}
}

// TestDumpWithReentrantStatsSource reproduces the daemons' real
// wiring: their StatsJSON closure builds the full stats document,
// which embeds the recorder's own StatsDoc. A dump holding its
// serialization lock while calling back into the recorder must not
// deadlock (it did: StatsDoc once shared the dump mutex, and every
// violation dump hung itself and /v1/stats behind it forever).
func TestDumpWithReentrantStatsSource(t *testing.T) {
	mon, orec := testSources(t, 5, 10)
	var r *Recorder
	r = newTestRecorder(t, Options{Hop: "serve"}, Sources{
		Monitor: mon,
		Obs:     orec,
		StatsJSON: func(context.Context) ([]byte, error) {
			return json.Marshal(map[string]any{"diag": r.StatsDoc()})
		},
	})

	done := make(chan error, 1)
	go func() {
		_, err := r.Dump(context.Background(), TriggerManual, "reentrant stats")
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Dump: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("dump deadlocked calling back into StatsDoc")
	}
	if st := r.StatsDoc(); st.BundlesWritten != 1 {
		t.Fatalf("stats after dump = %+v, want one bundle written", st)
	}
}
