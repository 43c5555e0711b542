package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"os/exec"
	"strings"
	"testing"

	ballsbins "repro"
	"repro/internal/faultinject"
	"repro/internal/keyed"
	"repro/internal/watch"
)

// TestMain lets the test binary double as a drain victim: re-exec'd
// with BB_SERVE_SEAL_DIR set, it runs sealVictim (under whatever
// BB_CRASHPOINT the parent armed) instead of the test suite.
func TestMain(m *testing.M) {
	if dir := os.Getenv("BB_SERVE_SEAL_DIR"); dir != "" {
		sealVictim(dir)
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// sealVictim places keyed balls on a durable dispatcher, closes it —
// the final snapshot is the store's first, so a wal.snapshot.* point
// fires there — and prints the event journal as JSON on stdout. The
// watchdog logs JSON to stderr.
func sealVictim(dir string) {
	d, _, err := OpenDispatcher(Config{
		Spec: ballsbins.Adaptive(), N: 64, Shards: 4, Seed: 1,
		KeyedStore: &keyed.StoreOptions{Dir: dir},
		Watch:      watch.Options{Logger: slog.New(slog.NewJSONHandler(os.Stderr, nil))},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "seal victim open:", err)
		os.Exit(1)
	}
	for i := 0; i < 20; i++ {
		if _, _, err := d.PlaceKeyed(context.Background(), fmt.Sprintf("k%d", i)); err != nil {
			fmt.Fprintln(os.Stderr, "seal victim place:", err)
			os.Exit(1)
		}
	}
	d.Close()
	json.NewEncoder(os.Stdout).Encode(d.Watch().Events(0))
}

// runSealVictim re-execs this test binary as a drain victim with
// crashpoint armed ("" for none) and returns its journal and stderr.
func runSealVictim(t *testing.T, crashpoint string) ([]watch.Event, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(),
		"BB_SERVE_SEAL_DIR="+t.TempDir(),
		faultinject.EnvVar+"="+crashpoint)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("victim (%q) failed: %v; stderr:\n%s", crashpoint, err, stderr.String())
	}
	var events []watch.Event
	if err := json.Unmarshal(stdout.Bytes(), &events); err != nil {
		t.Fatalf("victim journal: %v; stdout:\n%s", err, stdout.String())
	}
	return events, stderr.String()
}

// TestCloseReportsSealError: when the final snapshot Close writes
// fails, the failure lands in the journal as a DRAIN event and in the
// log at ERROR instead of vanishing. A clean drain records neither.
func TestCloseReportsSealError(t *testing.T) {
	sealFailures := func(events []watch.Event) int {
		n := 0
		for _, ev := range events {
			if ev.Type == watch.EventDrain && strings.Contains(ev.Detail, "keyed store seal failed") {
				n++
			}
		}
		return n
	}

	events, logs := runSealVictim(t, "")
	if got := sealFailures(events); got != 0 || strings.Contains(logs, `"level":"ERROR"`) {
		t.Fatalf("clean drain reported %d seal failures; log:\n%s", got, logs)
	}

	events, logs = runSealVictim(t, "wal.snapshot.rename:err")
	if got := sealFailures(events); got != 1 {
		t.Fatalf("failed seal recorded %d DRAIN failure events, want 1: %+v", got, events)
	}
	if !strings.Contains(logs, `"level":"ERROR"`) || !strings.Contains(logs, faultinject.ErrInjected.Error()) {
		t.Fatalf("failed seal not logged at ERROR with its cause; log:\n%s", logs)
	}
}
