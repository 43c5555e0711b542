// Command bbmark is the repository's end-to-end benchmark.
//
// Usage:
//
//	bbmark -seed S [-workload sim,serve-churn,cluster-wire,keyed-http] [-seconds 24] [-trace 0|1] [-out DIR]
//	bbmark compare [-claim workload:metric] PARENT.json... -- CHANGE.json...
//
// It prints every metric as "workload metric value unit", every
// correctness check, writes DIR/results.json, and prints a summary JSON
// object as its last line. It exits 1 when a check fails. See
// bench/README.md.
package main

import (
	"log/slog"
	"os"
	"runtime"

	"repro/bench"
)

func main() {
	// Load comes from this one process; use every CPU the box has.
	runtime.GOMAXPROCS(runtime.NumCPU())
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})))
	os.Exit(bench.Main(os.Args[1:], os.Stdout, os.Stderr))
}
