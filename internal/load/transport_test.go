package load

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	ballsbins "repro"
	"repro/internal/cluster"
	"repro/internal/keyed"
	"repro/internal/serve"
	"repro/internal/watch"
	"repro/internal/wire"
)

// transports are the three ways a client reaches a daemon.
var transports = []string{"inproc", "http", "wire"}

// reach serves tier over transport and returns the client for it: the
// tier itself in process, or its front end behind an HTTP server and,
// for "wire", a wire listener next to it.
func reach(t *testing.T, transport string, tier serve.Tier) cluster.Backend {
	t.Helper()
	if transport == "inproc" {
		return &cluster.InprocBackend{D: tier}
	}
	h := serve.NewHandler(tier, serve.Info{N: tier.N()})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	hb := cluster.NewHTTPBackend(srv.URL)
	if transport == "http" {
		return hb
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := wire.NewServer(h, wire.ServerOptions{})
	h.BindServer(ws)
	go ws.Serve(ln)
	t.Cleanup(func() { ws.Close() })
	wb, err := cluster.NewWireBackend(hb, ln.Addr().String(), tier.N())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wb.Close() })
	return wb
}

// tierCase builds a fresh daemon of one tier and returns it with the
// dispatchers that hold its balls.
type tierCase struct {
	name string
	mk   func(t *testing.T, spec ballsbins.Spec) (serve.Tier, []*serve.Dispatcher)
}

var tiers = []tierCase{
	{"serve", func(t *testing.T, spec ballsbins.Spec) (serve.Tier, []*serve.Dispatcher) {
		d := serve.NewDispatcher(serve.Config{Spec: spec, N: 64, Shards: 4, Seed: 1, Horizon: 1000})
		t.Cleanup(d.Close)
		return d, []*serve.Dispatcher{d}
	}},
	{"proxy", func(t *testing.T, spec ballsbins.Spec) (serve.Tier, []*serve.Dispatcher) {
		kp, err := keyed.PolicyByName("adaptive", 2, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		policy, err := cluster.PolicyByName("adaptive", 2, 3, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := NewInprocCluster(ClusterConfig{
			Backends: 3, Spec: spec, N: 32, Shards: 2, Seed: 1, Horizon: 1000,
			Policy: policy, Keyed: &keyed.Config{Policy: kp},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ct.Close)
		return ct.Tier(), ct.dispatchers
	}},
}

// transcript drives a deterministic op script against a target and
// returns every reply it saw.
func transcript(t *testing.T, tgt cluster.Backend) []string {
	t.Helper()
	kt := tgt.(cluster.KeyedBackend)
	ctx := context.Background()
	var out []string
	var held []int
	for i := 0; i < 300; i++ {
		switch {
		case i%5 == 3:
			key := fmt.Sprintf("k%02d", i%16)
			bins, samples, err := kt.PlaceKey(ctx, key)
			if err != nil {
				t.Fatalf("op %d PlaceKey: %v", i, err)
			}
			out = append(out, fmt.Sprintf("pk %s %v %d", key, bins, samples))
		default:
			count := i%4 + 1
			bins, samples, err := tgt.Place(ctx, count)
			if err != nil {
				t.Fatalf("op %d Place: %v", i, err)
			}
			out = append(out, fmt.Sprintf("p %d %v %d", count, bins, samples))
			held = append(held, bins[0])
		}
		if i%7 == 6 && len(held) > 0 {
			bin := held[0]
			held = held[1:]
			if err := tgt.Remove(ctx, bin); err != nil {
				t.Fatalf("op %d Remove(%d): %v", i, bin, err)
			}
			out = append(out, fmt.Sprintf("r %d", bin))
		}
	}
	return out
}

// books is what the daemon reports through the client, then what the
// dispatchers holding its balls report: latency is timing-dependent,
// the books and the load shape are not.
func books(t *testing.T, tgt cluster.Backend, ds []*serve.Dispatcher) []string {
	t.Helper()
	v, err := tgt.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	views := []serve.StatsView{v}
	for _, d := range ds {
		views = append(views, d.Stats())
	}
	var out []string
	for _, v := range views {
		out = append(out, fmt.Sprintf("balls %d placed %d removed %d samples %d max %d min %d gap %d psi %v",
			v.Balls, v.Placed, v.Removed, v.Samples, v.MaxLoad, v.MinLoad, v.Gap, v.Psi))
	}
	return out
}

// TestTransportEquivalence is the correctness half of the wire-speedup
// claim and of the one-client design: on either tier, the same seed
// and the same deterministic op script yield identical bins and
// samples for every op, identical books, and the same sentinel error
// for the same refusal, whether the client reaches the daemon in
// process, over JSON/HTTP or over the binary wire protocol.
func TestTransportEquivalence(t *testing.T) {
	// The bbserved transcript is pinned to its digest before the
	// clients were unified, so the seeded results cannot drift.
	digests := map[string]string{"serve": "56fef87cc07e33d0", "proxy": "15f4f9640372ac4e"}
	for _, tc := range tiers {
		t.Run(tc.name, func(t *testing.T) {
			var wantLog, wantBooks []string
			for _, transport := range transports {
				tier, ds := tc.mk(t, ballsbins.Adaptive())
				tgt := reach(t, transport, tier)
				log := transcript(t, tgt)
				bk := books(t, tgt, ds)
				if wantLog == nil {
					wantLog, wantBooks = log, bk
					sum := fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(log, "\n"))))[:16]
					if sum != digests[tc.name] {
						t.Errorf("transcript digest %s, want %s", sum, digests[tc.name])
					}
				}
				for i := range wantLog {
					if i >= len(log) || log[i] != wantLog[i] {
						t.Fatalf("%s: op %d diverged from inproc", transport, i)
					}
				}
				if !reflect.DeepEqual(bk, wantBooks) {
					t.Fatalf("%s: books diverged:\n  got  %v\n  want %v", transport, bk, wantBooks)
				}

				// Removing from an empty bin is serve.ErrEmptyBin on every
				// transport: empty bin 0, then remove once more.
				ctx := context.Background()
				err := tgt.Remove(ctx, 0)
				for i := 0; err == nil && i < 1000; i++ {
					err = tgt.Remove(ctx, 0)
				}
				if !errors.Is(err, serve.ErrEmptyBin) {
					t.Errorf("%s: remove from an empty bin: %v, want ErrEmptyBin", transport, err)
				}
				// A drained daemon refuses with serve.ErrDraining.
				tier.Close()
				if _, _, err := tgt.Place(ctx, 1); !errors.Is(err, serve.ErrDraining) {
					t.Errorf("%s: place on a drained daemon: %v, want ErrDraining", transport, err)
				}

				// A daemon whose spec cannot serve keyed traffic refuses a
				// keyed place with serve.ErrKeyedUnsupported.
				tier, _ = tc.mk(t, ballsbins.Threshold())
				kt := reach(t, transport, tier).(cluster.KeyedBackend)
				if _, _, err := kt.PlaceKey(ctx, "k"); !errors.Is(err, serve.ErrKeyedUnsupported) {
					t.Errorf("%s: keyed place on a threshold daemon: %v, want ErrKeyedUnsupported", transport, err)
				}
			}
		})
	}
}

// watchedRun runs a short closed loop against a watched dispatcher
// over transport.
func watchedRun(t *testing.T, transport string) Result {
	t.Helper()
	d := serve.NewDispatcher(serve.Config{Spec: ballsbins.Adaptive(), N: 64, Shards: 4, Seed: 1,
		Watch: watch.Options{Cadence: 20 * time.Millisecond}})
	t.Cleanup(d.Close)
	res, err := Run(context.Background(), Config{
		Mode:     "closed",
		Workers:  2,
		Duration: 300 * time.Millisecond,
		Seed:     1,
	}, reach(t, transport, d))
	if err != nil {
		t.Fatalf("Run over %s: %v", transport, err)
	}
	return res
}

// stamped lists the envelope columns a run filled (non-zero), leaving
// out the ones that describe the transport itself and the end-of-run
// load, which is zero unless a place cancelled at the deadline still
// committed its ball.
func stamped(t *testing.T, res Result) []string {
	t.Helper()
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	var cols []string
	for k, v := range m {
		switch k {
		case "transport", "client_coalescing_factor", "client_bytes_per_op",
			"final_balls", "final_max_load", "final_gap":
			continue
		}
		if v != nil && !reflect.ValueOf(v).IsZero() {
			cols = append(cols, k)
		}
	}
	sort.Strings(cols)
	return cols
}

// TestWireTargetRun drives the full load generator over the wire
// transport end to end and checks the transport columns stamp.
func TestWireTargetRun(t *testing.T) {
	d := serve.NewDispatcher(serve.Config{Spec: ballsbins.Adaptive(), N: 64, Shards: 4, Seed: 1})
	t.Cleanup(d.Close)
	res, err := Run(context.Background(), Config{
		Scenario:    Flash(),
		Mode:        "open",
		Rate:        1000,
		Duration:    300 * time.Millisecond,
		ServiceMean: 10 * time.Millisecond,
		Seed:        5,
	}, reach(t, "wire", d))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Placed == 0 || res.Errors != 0 {
		t.Fatalf("placed %d errors %d", res.Placed, res.Errors)
	}
	if res.FinalBalls != res.Placed-res.Removed {
		t.Errorf("final balls %d, placed-removed %d", res.FinalBalls, res.Placed-res.Removed)
	}
	if res.Transport != "wire" {
		t.Errorf("transport stamp = %q, want wire", res.Transport)
	}
	if res.ClientBytesPerOp <= 0 || res.ClientCoalescing < 1 {
		t.Errorf("transport columns: bytes/op %v, coalescing %v", res.ClientBytesPerOp, res.ClientCoalescing)
	}
}

// TestWireStampsWatchColumns: the same run over HTTP and over wire
// stamps the same columns, the watchdog's gap_over_time series
// included.
func TestWireStampsWatchColumns(t *testing.T) {
	res := watchedRun(t, "wire")
	if len(res.GapOverTime) == 0 {
		t.Errorf("wire run stamped no gap_over_time points")
	}
	if w, h := stamped(t, res), stamped(t, watchedRun(t, "http")); !reflect.DeepEqual(w, h) {
		t.Errorf("stamped columns differ:\n  wire %v\n  http %v", w, h)
	}
}

// TestHTTPTransportColumns checks the HTTP side of the envelope's
// transport columns: transport "http", coalescing pinned at 1,
// measured bytes/op.
func TestHTTPTransportColumns(t *testing.T) {
	d := serve.NewDispatcher(serve.Config{Spec: ballsbins.Adaptive(), N: 64, Shards: 4, Seed: 1})
	t.Cleanup(d.Close)
	res, err := Run(context.Background(), Config{
		Mode:     "closed",
		Workers:  2,
		Duration: 200 * time.Millisecond,
		Seed:     1,
	}, reach(t, "http", d))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Transport != "http" || res.ClientCoalescing != 1 {
		t.Errorf("transport stamp = %q coalescing %v, want http/1", res.Transport, res.ClientCoalescing)
	}
	if res.ClientBytesPerOp <= 0 {
		t.Errorf("bytes/op %v, want > 0 from the counting transport", res.ClientBytesPerOp)
	}
}
