// Command bbtop renders a live terminal dashboard for a running
// bbserved or bbproxy: it polls GET /v1/stats, /v1/timeseries and
// /v1/events on one target and redraws an ANSI screen each interval —
// per-backend (or per-shard) load bars, a gap sparkline over the
// watchdog's time series, the tail of the invariant event journal, and
// a red banner the moment bb_invariant_violations_total goes nonzero.
//
// Usage:
//
//	bbtop -target http://localhost:8080
//	bbtop -target http://localhost:8090 -every 500ms -window 120
//	bbtop -target http://localhost:8080 -once -format json | jq .
//
// The dashboard adapts to the hop it is watching: against a bbproxy it
// draws one bar per backend from the cluster block (down backends in
// red), against a bbserved one bar per shard. The sparkline is the
// max−min gap from /v1/timeseries, so it shows the watchdog's view of
// balance over the last -window samples, not just the instant.
//
// -once renders a single frame and exits (exit status 1 when the
// target reports violations), and -format json swaps the frame for a
// single machine-readable document — {target, stats, timeseries,
// events} with the raw stats envelope embedded — which is what CI
// asserts on with jq. Without -once, -format json emits one document
// per poll (NDJSON).
//
// bbtop polls through the same client bbproxy uses for its backends
// (cluster.HTTPBackend) and reads the one typed stats document both
// tiers serve; it draws with plain ANSI escapes, no terminal library.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/watch"
)

// frame is one polled snapshot of the target: everything a render (or
// the -format json document) needs.
type frame struct {
	Target string               `json:"target"`
	Stats  json.RawMessage      `json:"stats"`
	Series watch.SeriesResponse `json:"timeseries"`
	Events watch.EventsResponse `json:"events"`

	doc cluster.StatsResponse // Stats decoded for rendering
}

func main() {
	var (
		target  = flag.String("target", "http://localhost:8080", "bbserved or bbproxy base URL")
		every   = flag.Duration("every", time.Second, "poll and redraw interval")
		window  = flag.Int("window", 60, "time-series samples to request for the sparkline")
		tail    = flag.Int("events", 8, "event-journal tail length")
		once    = flag.Bool("once", false, "render one frame and exit (status 1 on violations)")
		format  = flag.String("format", "text", "output format: text, json")
		noColor = flag.Bool("no-color", false, "disable ANSI colors")
	)
	flag.Parse()
	if *format != "text" && *format != "json" {
		fmt.Fprintf(os.Stderr, "bbtop: unknown -format %q (want text or json)\n", *format)
		os.Exit(2)
	}
	hb := cluster.NewHTTPBackend(strings.TrimRight(*target, "/"))
	enc := json.NewEncoder(os.Stdout)

	live := *format == "text" && !*once
	for first := true; ; first = false {
		if !first {
			time.Sleep(*every)
		}
		f, err := poll(hb, *window)
		if err != nil {
			if *once {
				fmt.Fprintln(os.Stderr, "bbtop:", err)
				os.Exit(1)
			}
			if live {
				fmt.Printf("\x1b[H\x1b[2J") // keep redrawing through blips
			}
			fmt.Printf("bbtop: %v (retrying every %v)\n", err, *every)
			continue
		}
		switch *format {
		case "json":
			if err := enc.Encode(f); err != nil {
				fmt.Fprintln(os.Stderr, "bbtop:", err)
				os.Exit(1)
			}
		default:
			if live {
				fmt.Printf("\x1b[H\x1b[2J")
			}
			os.Stdout.WriteString(render(f, *tail, !*noColor))
		}
		if *once {
			if f.violations() > 0 {
				os.Exit(1)
			}
			return
		}
	}
}

// poll fetches the three surfaces that make up one frame.
func poll(hb *cluster.HTTPBackend, window int) (*frame, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	f := &frame{Target: hb.Name()}
	var err error
	if f.doc, f.Stats, err = hb.StatsRaw(ctx); err != nil {
		return nil, err
	}
	if f.Series, err = hb.Timeseries(ctx, window); err != nil {
		return nil, err
	}
	if f.Events, err = hb.Events(ctx); err != nil {
		return nil, err
	}
	return f, nil
}

// violations is the banner verdict: the journal's total (covers
// watchdog-off targets via the zero value) or the stats block's,
// whichever is larger — they can skew by one poll.
func (f *frame) violations() int64 {
	v := f.Events.ViolationsTotal
	if f.doc.Watch != nil && f.doc.Watch.ViolationsTotal > v {
		v = f.doc.Watch.ViolationsTotal
	}
	return v
}

const (
	barWidth  = 40
	sparkRune = "▁▂▃▄▅▆▇█"
)

func render(f *frame, tail int, color bool) string {
	paint := func(code, s string) string {
		if !color {
			return s
		}
		return "\x1b[" + code + "m" + s + "\x1b[0m"
	}
	var b strings.Builder

	// Header: target, hop shape, drain state.
	hop := fmt.Sprintf("%s  n=%d  shards=%d  engine=%s",
		f.doc.Info.Protocol, f.doc.Info.N, f.doc.Info.Shards, f.doc.Info.Engine)
	if c := f.doc.Cluster; f.doc.IsProxy() {
		hop = fmt.Sprintf("%s  policy=%s  backends=%d/%d healthy  n=%d/backend",
			f.doc.Info.Protocol, c.Policy, c.Healthy, c.Backends, f.doc.Info.N)
	}
	fmt.Fprintf(&b, "%s  %s  %s\n", paint("1", "bbtop"), f.Target, time.Now().Format("15:04:05"))
	fmt.Fprintf(&b, "%s", hop)
	if f.doc.Draining {
		fmt.Fprintf(&b, "  %s", paint("33", "DRAINING"))
	}
	b.WriteString("\n")

	// Violation banner: full red line plus the offending invariants.
	if v := f.violations(); v > 0 {
		fmt.Fprintf(&b, "%s\n", paint("41;97;1",
			fmt.Sprintf(" BOUND VIOLATION  bb_invariant_violations_total=%d ", v)))
		for _, inv := range sortedKeys(f.Events.Violations) {
			fmt.Fprintf(&b, "  %s %s ×%d\n", paint("31", "✗"), inv, f.Events.Violations[inv])
		}
	} else {
		fmt.Fprintf(&b, "%s all invariants holding\n", paint("32", "✓"))
	}

	// Totals row.
	fmt.Fprintf(&b, "balls %d  max %d  min %d  gap %d  ψ %.4f",
		f.doc.Balls, f.doc.MaxLoad, f.doc.MinLoad, f.doc.Gap, f.doc.Psi)
	if p := lastPoint(f.Series.Points); p != nil {
		fmt.Fprintf(&b, "  ops/s %.0f", p.OpsPerSec)
	}
	if k, _ := f.doc.KeyedBlocks(); k != nil && k.AffinityHits+k.AffinityMisses > 0 {
		fmt.Fprintf(&b, "  keys %d  hit %.3f", k.Keys,
			float64(k.AffinityHits)/float64(k.AffinityHits+k.AffinityMisses))
	}
	b.WriteString("\n\n")

	// Load bars: one per backend against a proxy, else one per shard.
	if c := f.doc.Cluster; f.doc.IsProxy() {
		var peak int64 = 1
		for _, r := range c.Rows {
			if r.Balls > peak {
				peak = r.Balls
			}
		}
		for _, r := range c.Rows {
			bar := loadBar(r.Balls, peak)
			if r.Up {
				fmt.Fprintf(&b, "%-12s %s %d\n", r.Name, paint("36", bar), r.Balls)
			} else {
				fmt.Fprintf(&b, "%-12s %s %s\n", r.Name, paint("31", bar), paint("31;1", "DOWN"))
			}
		}
	} else {
		var peak int64 = 1
		for _, s := range f.doc.Shards {
			if s.Balls > peak {
				peak = s.Balls
			}
		}
		for _, s := range f.doc.Shards {
			fmt.Fprintf(&b, "shard %-6d %s %d (max %d)\n",
				s.Shard, paint("36", loadBar(s.Balls, peak)), s.Balls, s.MaxLoad)
		}
	}
	b.WriteString("\n")

	// Gap sparkline over the watchdog series.
	if pts := f.Series.Points; len(pts) > 0 {
		gaps := make([]int, len(pts))
		lo, hi := pts[0].Gap, pts[0].Gap
		for i, p := range pts {
			gaps[i] = p.Gap
			if p.Gap < lo {
				lo = p.Gap
			}
			if p.Gap > hi {
				hi = p.Gap
			}
		}
		fmt.Fprintf(&b, "gap  %s  [%d..%d] over %d×%dms\n",
			paint("35", sparkline(gaps, lo, hi)), lo, hi, len(pts), f.Series.CadenceMs)
	} else {
		b.WriteString("gap  (no time series yet — is the watchdog enabled?)\n")
	}

	// Event tail, newest last.
	evs := f.Events.Events
	if len(evs) > tail {
		evs = evs[len(evs)-tail:]
	}
	var total int64
	for _, n := range f.Events.EventCounts {
		total += n
	}
	fmt.Fprintf(&b, "\nevents (%d total, tail %d)\n", total, len(evs))
	for _, ev := range evs {
		ts := time.UnixMilli(ev.TimeUnixMs).Format("15:04:05.000")
		typ := string(ev.Type)
		switch ev.Type {
		case watch.EventBoundViolation:
			typ = paint("31;1", typ)
		case watch.EventEviction:
			typ = paint("33", typ)
		case watch.EventRejoin, watch.EventRecovery:
			typ = paint("32", typ)
		default:
			typ = paint("36", typ)
		}
		fmt.Fprintf(&b, "  %s  %-15s %s\n", ts, typ, ev.Detail)
	}
	if len(evs) == 0 {
		b.WriteString("  (none)\n")
	}
	return b.String()
}

// loadBar renders v against peak as a fixed-width block bar.
func loadBar(v, peak int64) string {
	fill := int(v * barWidth / peak)
	if fill > barWidth {
		fill = barWidth
	}
	if v > 0 && fill == 0 {
		fill = 1
	}
	return strings.Repeat("█", fill) + strings.Repeat("·", barWidth-fill)
}

// sparkline maps vals into 8 block-element levels between lo and hi.
func sparkline(vals []int, lo, hi int) string {
	runes := []rune(sparkRune)
	span := hi - lo
	var b strings.Builder
	for _, v := range vals {
		i := 0
		if span > 0 {
			i = (v - lo) * (len(runes) - 1) / span
		}
		b.WriteRune(runes[i])
	}
	return b.String()
}

func lastPoint(pts []watch.Point) *watch.Point {
	if len(pts) == 0 {
		return nil
	}
	return &pts[len(pts)-1]
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
