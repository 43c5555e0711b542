// Command bbdoctor is the offline postmortem analyzer for flight-
// recorder bundles (internal/diag): it decodes a bundle, renders the
// assembled cross-tier trace trees and the violation/gap timeline,
// and flags anomalies (bound proximity, queue-vs-apply skew,
// staleness spikes, WAL damage) — all from the bundle file alone, no
// live daemon needed.
//
// Usage:
//
//	bbdoctor -bundle diag/diag-serve-...-violation.bbdiag
//	bbdoctor -dir diag -once -format json   # newest bundle, CI gate
//	bbdoctor -dir diag                      # follow: analyze bundles as they land
//	bbdoctor -url http://127.0.0.1:8080     # live daemon, no bundle
//
// Exactly one of -bundle, -dir, -url selects the source. -dir without
// -once follows the directory, rendering each new bundle as it
// appears; with -once it analyzes the newest bundle and exits.
// -url synthesizes the same report from a live daemon's /v1/stats,
// /v1/events, /v1/timeseries and /v1/trace documents.
//
// Exit code: 0 when the report is clean, 1 when it holds an invariant
// violation or a critical anomaly (the CI gate), 2 on usage or I/O
// errors. -format json emits the machine-readable report instead of
// the terminal rendering.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/url"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/diag"
	"repro/internal/obs"
)

func main() {
	var (
		bundle = flag.String("bundle", "", "bundle file to analyze")
		dir    = flag.String("dir", "", "bundle directory (newest bundle; follows unless -once)")
		live   = flag.String("url", "", "live daemon base URL to analyze instead of a bundle")
		once   = flag.Bool("once", false, "with -dir: analyze the newest bundle and exit")
		format = flag.String("format", "text", "output format: text, json")
	)
	flag.Parse()

	if *format != "text" && *format != "json" {
		fatalf("unknown format %q (want text or json)", *format)
	}
	nsrc := 0
	for _, s := range []string{*bundle, *dir, *live} {
		if s != "" {
			nsrc++
		}
	}
	if nsrc != 1 {
		fatalf("exactly one of -bundle, -dir, -url is required")
	}

	switch {
	case *bundle != "":
		os.Exit(render(analyzePath(*bundle), *format))
	case *live != "":
		os.Exit(render(analyzeLive(*live), *format))
	case *once:
		path, err := diag.NewestBundle(*dir)
		if err != nil {
			fatalf("%v", err)
		}
		os.Exit(render(analyzePath(path), *format))
	default:
		follow(*dir, *format)
	}
}

// analyzePath reads and analyzes one bundle file.
func analyzePath(path string) *diag.Report {
	b, err := diag.ReadBundle(path)
	if err != nil {
		fatalf("%v", err)
	}
	return diag.Analyze(b)
}

// follow watches dir, rendering each new bundle as it lands — a tail
// -f for postmortems during an incident. It never exits on its own.
func follow(dir, format string) {
	seen := map[string]bool{}
	first := true
	for {
		if path, err := diag.NewestBundle(dir); err == nil && !seen[path] {
			seen[path] = true
			if !first {
				fmt.Println()
			}
			first = false
			render(analyzePath(path), format)
		}
		time.Sleep(time.Second)
	}
}

// analyzeLive synthesizes a bundle in memory from a live daemon's
// observability endpoints, then analyzes it exactly like a file — the
// one code path keeps the two modes honest with each other.
func analyzeLive(base string) *diag.Report {
	u, err := url.Parse(base)
	if err != nil || u.Scheme == "" {
		fatalf("invalid -url %q", base)
	}
	hb := cluster.NewHTTPBackend(base)
	get := func(path string) []byte {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		data, err := hb.GetRaw(ctx, path)
		if err != nil {
			fatalf("GET %s: %v", path, err)
		}
		return data
	}

	b := &diag.Bundle{Path: base, Complete: true}
	add := func(name string, data []byte) {
		b.Sections = append(b.Sections, diag.Section{Name: name, Data: data})
	}

	var build obs.BuildInfo
	json.Unmarshal(get("/v1/version"), &build)
	meta, _ := json.Marshal(diag.Meta{
		Schema: diag.Schema, Trigger: "live", Reason: "live query of " + base,
		TimeUnixMs: time.Now().UnixMilli(), Build: build,
	})
	add("meta", meta)
	add("stats", get("/v1/stats"))
	add("events", get("/v1/events"))
	add("timeseries", get("/v1/timeseries"))

	var tr obs.TraceResponse
	json.Unmarshal(get("/v1/trace"), &tr)
	ts, _ := json.Marshal(diag.TraceSection{
		Sources: []string{tr.Hop}, Ops: tr.Ops, Assembled: obs.Assemble(tr.Ops),
	})
	add("trace", ts)

	return diag.Analyze(b)
}

// render writes the report in the chosen format and returns the exit
// code the report maps to.
func render(r *diag.Report, format string) int {
	if format == "json" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(r)
	} else {
		diag.WriteText(os.Stdout, r)
	}
	return r.ExitCode()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bbdoctor: "+format+"\n", args...)
	os.Exit(2)
}
