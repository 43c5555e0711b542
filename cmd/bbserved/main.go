// Command bbserved serves a balls-into-bins allocator over HTTP: the
// dispatch core of internal/serve fronting a ShardedAllocator, with
// live stats and Prometheus metrics.
//
// Usage:
//
//	bbserved -addr :8080 -spec adaptive -n 100000 -shards 8
//	bbserved -spec threshold -horizon 10000000 -n 100000
//
// API:
//
//	POST /v1/place[?count=k]  allocate 1 (default) or k balls
//	POST /v1/place?key=K      keyed placement: one ball on K's sticky
//	                          shard (-keyed-policy; bulk + key is a 400)
//	POST /v1/remove?bin=i[&key=K]  remove one ball from bin i (key
//	                          releases it from the keyed tier too)
//	GET  /v1/stats            lock-free monitoring view (+ keyed block)
//	GET  /v1/events           invariant watchdog event journal
//	GET  /v1/timeseries       watchdog time series (?window=N)
//	GET  /v1/snapshot         lock-all consistent snapshot
//	GET  /healthz             200 ok, 503 once draining
//	GET  /metrics             Prometheus text format (+ bb_wire_* series)
//
// With -wire-addr the same operations are additionally served over the
// binary streaming wire protocol (internal/wire): persistent
// connections, CRC-guarded frames, pipelined out-of-order replies. The
// address is advertised in /v1/stats info.wire_addr so clients
// (bbload -transport wire, bbproxy) discover it from the HTTP probe.
//
// With -data-dir the keyed tier is durable: every keyed mutation is
// journaled to a CRC-checked write-ahead log with periodic compacting
// snapshots, and a restarted process replays to the exact pre-crash
// assignment before serving traffic (healthz answers 503 while the
// replay runs). -fsync picks the append durability policy and
// -snapshot-every the compaction cadence.
//
// SIGINT/SIGTERM trigger a graceful drain: the listener stops taking
// new connections, in-flight requests finish against the draining
// dispatcher (which writes a final snapshot when durable), and the
// process exits once both are done.
//
// Observability: -debug-addr serves net/http/pprof (plus the watchdog
// override hook POST /debug/watch/override used by the CI smoke test);
// -trace-slow and -trace-sample tune the request-trace recorder behind
// GET /v1/trace (GET /v1/trace/{id} assembles one trace id into a
// tree); -watch-every sets the invariant watchdog's cadence (0
// disables it) — the watchdog re-checks the paper's load bounds
// against the live system each tick, journals lifecycle events behind
// GET /v1/events, and keeps the time series behind GET /v1/timeseries
// (the surface cmd/bbtop renders); -log-level and -log-format control
// the structured (log/slog) output.
//
// With -diag-dir the flight recorder (internal/diag) is armed: an
// invariant violation, a WAL recovery that found torn bytes, a restart
// with a fault-injection crash point armed, or an operator SIGQUIT
// each snapshot a self-contained postmortem bundle (events, time
// series, traces, stats, profiles, build identity) into the directory,
// rate-limited and pruned to a bounded set. cmd/bbdoctor reads the
// bundles offline.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/diag"
	"repro/internal/keyed"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/wal"
	"repro/internal/watch"
	"repro/internal/wire"
)

func main() {
	sf := cli.RegisterSpec(flag.CommandLine)
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		wireAddr    = flag.String("wire-addr", "", "binary wire-protocol listen address (empty = HTTP only)")
		debugAddr   = flag.String("debug-addr", "", "net/http/pprof listen address (empty = off)")
		n           = flag.Int("n", 100000, "number of bins")
		shards      = flag.Int("shards", 8, "allocator shards (parallel dispatch lanes)")
		horizon     = flag.Int64("horizon", 0, "declared total balls (threshold family)")
		keyedPolicy = flag.String("keyed-policy", "adaptive", "keyed tier key->shard policy: "+strings.Join(keyed.Policies(), ", "))
		retries     = flag.Int("retries", 3, "keyed tier probe cap (boundedretry policy)")
		replicas    = flag.Int("replicas", keyed.DefaultReplicas, "hot-key replica set size (1 disables splitting)")
		hotShare    = flag.Float64("hot-share", keyed.DefaultHotShare, "request share promoting a key to replicas (>=1 disables)")
		maxKeys     = flag.Int("max-keys", keyed.DefaultMaxKeys, "keyed affinity table capacity (idle keys evicted beyond it)")
		dataDir     = flag.String("data-dir", "", "durable keyed state directory (WAL + snapshots; empty = in-memory only)")
		snapEvery   = flag.Int("snapshot-every", keyed.DefaultSnapshotEvery, "journal records between compacting snapshots")
		fsync       = flag.String("fsync", wal.SyncInterval, "WAL fsync policy: always, interval, never")
		traceSlow   = flag.Duration("trace-slow", 0, "trace ops at or above this latency (0 = default 10ms)")
		traceSample = flag.Int("trace-sample", 0, "head-sample 1 in N ops into the trace ring (0 = default 1024)")
		watchEvery  = flag.Duration("watch-every", watch.DefaultCadence, "invariant watchdog cadence (0 disables the watchdog)")
		diagDir     = flag.String("diag-dir", "", "flight-recorder bundle directory (empty = postmortem capture off)")
		logLevel    = flag.String("log-level", "info", "log level: debug, info, warn, error")
		logFormat   = flag.String("log-format", "text", "log format: text, json")
	)
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bbserved:", err)
		os.Exit(2)
	}
	logger = logger.With("component", "bbserved")
	slog.SetDefault(logger)
	fatal := func(err error, code int) {
		logger.Error("fatal", "err", err)
		os.Exit(code)
	}

	spec, err := sf.Spec()
	if err != nil {
		fatal(err, 2)
	}
	eng, err := sf.Engine()
	if err != nil {
		fatal(err, 2)
	}
	kp, err := keyed.PolicyByName(*keyedPolicy, sf.D, *retries, *horizon)
	if err != nil {
		fatal(err, 2)
	}

	cfg := serve.Config{
		Spec:    spec,
		N:       *n,
		Shards:  *shards,
		Seed:    sf.Seed,
		Engine:  eng,
		Horizon: *horizon,
		Keyed: &keyed.Config{
			Policy:   kp,
			Replicas: *replicas,
			HotShare: *hotShare,
			MaxKeys:  *maxKeys,
		},
		Obs:   obs.Options{SlowThreshold: *traceSlow, SampleEvery: *traceSample},
		Watch: watch.Options{Cadence: *watchEvery, Disabled: *watchEvery <= 0},
	}
	if *dataDir != "" {
		cfg.KeyedStore = &keyed.StoreOptions{
			Dir:           *dataDir,
			SnapshotEvery: *snapEvery,
			Fsync:         *fsync,
		}
	}

	// Bring the listener up before recovery so healthz is observable
	// (503 "recovering") while the WAL replays; the real handler is
	// swapped in once the dispatcher is ready to serve.
	var handler atomic.Pointer[http.Handler]
	var warming http.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "recovering", http.StatusServiceUnavailable)
	})
	handler.Store(&warming)
	srv := &http.Server{Addr: *addr, Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*handler.Load()).ServeHTTP(w, r)
	})}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	// Reserve the wire listener early too, but only start serving it
	// once the dispatcher is ready (queued dials wait in the backlog —
	// the wire protocol has no "recovering" page to show).
	var wireLn net.Listener
	if *wireAddr != "" {
		wireLn, err = net.Listen("tcp", *wireAddr)
		if err != nil {
			fatal(err, 1)
		}
	}

	d, rec, err := serve.OpenDispatcher(cfg)
	if err != nil {
		fatal(err, 1)
	}
	if *debugAddr != "" {
		go serveDebug(logger, *debugAddr, d.Watch())
	}
	if rec != nil {
		logger.Info("recovered keyed state",
			"snapshot_keys", rec.SnapshotKeys, "journal_records", rec.ReplayedRecords,
			"replay_ms", rec.ReplayMs, "dir", *dataDir)
	}
	info := serve.Info{
		Protocol: d.Name(),
		N:        *n,
		Shards:   *shards,
		Engine:   eng.String(),
		Seed:     sf.Seed,
		WireAddr: *wireAddr,
	}
	var ws *wire.Server
	if wireLn != nil {
		wh := serve.NewDispatcherWire(d, info)
		ws = wire.NewServer(wh, wire.ServerOptions{Logger: logger})
		wh.BindServer(ws)
		go func() {
			if err := ws.Serve(wireLn); err != nil {
				logger.Error("wire server exited", "err", err)
			}
		}()
	}
	var real http.Handler = serve.NewHandlerWire(d, info, ws)
	handler.Store(&real)

	// Arm the flight recorder last: its stats closure captures the
	// fully-assembled surface (dispatcher + wire server).
	diagRec, err := diag.New(diag.Options{
		Dir: *diagDir, Hop: "serve", Build: obs.Build(wire.Version), Logger: logger,
	}, diag.Sources{
		Monitor: d.Watch(),
		Obs:     d.Obs(),
		StatsJSON: func(ctx context.Context) ([]byte, error) {
			return json.Marshal(serve.BuildStatsResponse(d, info, ws))
		},
		Durability: func() any {
			if ds := d.Durability(); ds != nil {
				return ds
			}
			return nil
		},
	})
	if err != nil {
		fatal(err, 1)
	}
	if diagRec != nil {
		d.BindDiag(diagRec)
		var torn int64
		if ds := d.Durability(); ds != nil {
			torn = ds.RecoveryTornBytes
		}
		diagRec.CheckStartup(context.Background(), torn)
		// SIGQUIT is the operator's "dump and keep running" trigger —
		// deliberately separate from the SIGINT/SIGTERM drain path.
		quit := make(chan os.Signal, 1)
		signal.Notify(quit, syscall.SIGQUIT)
		go func() {
			for range quit {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				path, err := diagRec.Dump(ctx, diag.TriggerSignal, "operator SIGQUIT")
				cancel()
				if err != nil {
					logger.Error("diag: SIGQUIT dump failed", "err", err)
				} else {
					logger.Info("diag: SIGQUIT bundle written", "path", path)
				}
			}
		}()
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := <-stop
		logger.Info("signal received, draining", "signal", sig.String())
		// Drain the dispatcher first, while the listener still
		// accepts: from this point /healthz answers 503 and place/
		// remove answer 503, so load balancers can observe the drain
		// window and stop routing before the listener disappears.
		// Every admitted call completes. Then stop the listener,
		// letting in-flight HTTP requests finish.
		d.Close()
		if ws != nil {
			// Wire conns see CodeDraining on new work during the drain
			// window above; now drop them and the wire listener.
			ws.Close()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Error("http shutdown", "err", err)
		}
	}()

	logger.Info("listening",
		"protocol", info.Protocol, "n", *n, "shards", *shards, "engine", info.Engine,
		"addr", *addr, "wire_addr", *wireAddr, "debug_addr", *debugAddr)
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err, 1)
	}
	<-done
	logger.Info("drained, bye")
}

// serveDebug exposes net/http/pprof on its own mux/listener so profile
// endpoints never ride the public API surface. The watchdog override
// hook lives here too: it is a test/CI instrument (inject a bogus
// bound, observe the violation machinery end to end), so it belongs on
// the operator-only listener.
func serveDebug(logger *slog.Logger, addr string, mon *watch.Monitor) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("POST /debug/watch/override", watch.OverrideHandler(mon))
	logger.Info("debug server listening", "addr", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		logger.Error("debug server exited", "err", err)
	}
}
