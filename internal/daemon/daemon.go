// Package daemon runs one serving tier as a process: cmd/bbserved
// runs a serve.Dispatcher, cmd/bbproxy a cluster.Router, and both hand
// it to this package behind the serve.Tier interface. It owns every
// piece of the process lifecycle the two daemons share:
//
//   - the 17 shared flags (RegisterFlags) and the process logger;
//   - recover-before-serve: the HTTP listener answers 503 "recovering"
//     while the tier opens (a WAL replay can take a while), and the
//     wire listener is reserved before it, so early dials queue in the
//     backlog instead of being refused;
//   - the serve.Handler front end on both listeners;
//   - the operator-only debug listener (pprof and the watchdog
//     override hook);
//   - the flight recorder and its SIGQUIT dump trigger;
//   - the drain order: the tier first, while both listeners still
//     answer (healthz 503, new work refused), then the wire server,
//     then the HTTP server.
//
// Main is the process entry point (signals, listeners, exit codes);
// Process.Run is the same lifecycle in-process, driven by a context and
// pre-opened listeners, so it is testable without subprocesses.
package daemon

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/diag"
	"repro/internal/keyed"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/wal"
	"repro/internal/watch"
	"repro/internal/wire"
)

// Flags are the flags both daemons share.
type Flags struct {
	Addr, WireAddr, DebugAddr string
	Horizon                   int64
	Retries                   int
	Replicas                  int
	HotShare                  float64
	MaxKeys                   int
	DataDir                   string
	SnapshotEvery             int
	Fsync                     string
	TraceSlow                 time.Duration
	TraceSample               int
	WatchEvery                time.Duration
	DiagDir                   string
	LogLevel, LogFormat       string
}

// RegisterFlags registers the shared flags on fs.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Addr, "addr", ":8080", "listen address")
	fs.StringVar(&f.WireAddr, "wire-addr", "", "binary wire-protocol listen address (empty = HTTP only)")
	fs.StringVar(&f.DebugAddr, "debug-addr", "", "net/http/pprof listen address (empty = off)")
	fs.Int64Var(&f.Horizon, "horizon", 0, "declared total balls (threshold family)")
	fs.IntVar(&f.Retries, "retries", 3, "probe cap (boundedretry policy)")
	fs.IntVar(&f.Replicas, "replicas", keyed.DefaultReplicas, "keyed tier: hot-key replica set size (1 disables splitting)")
	fs.Float64Var(&f.HotShare, "hot-share", keyed.DefaultHotShare, "keyed tier: request share promoting a key to replicas (>=1 disables)")
	fs.IntVar(&f.MaxKeys, "max-keys", keyed.DefaultMaxKeys, "keyed tier: affinity table capacity (idle keys evicted beyond it)")
	fs.StringVar(&f.DataDir, "data-dir", "", "durable keyed state directory (WAL + snapshots; empty = in-memory only)")
	fs.IntVar(&f.SnapshotEvery, "snapshot-every", keyed.DefaultSnapshotEvery, "journal records between compacting snapshots")
	fs.StringVar(&f.Fsync, "fsync", wal.SyncInterval, "WAL fsync policy: always, interval, never")
	fs.DurationVar(&f.TraceSlow, "trace-slow", 0, "trace ops at or above this latency (0 = default 10ms)")
	fs.IntVar(&f.TraceSample, "trace-sample", 0, "head-sample 1 in N ops into the trace ring (0 = default 1024)")
	fs.DurationVar(&f.WatchEvery, "watch-every", watch.DefaultCadence, "invariant watchdog cadence (0 disables the watchdog)")
	fs.StringVar(&f.DiagDir, "diag-dir", "", "flight-recorder bundle directory (empty = postmortem capture off)")
	fs.StringVar(&f.LogLevel, "log-level", "info", "log level: debug, info, warn, error")
	fs.StringVar(&f.LogFormat, "log-format", "text", "log format: text, json")
	return f
}

// Keyed is the keyed tier's configuration under policy p.
func (f *Flags) Keyed(p keyed.Policy) *keyed.Config {
	return &keyed.Config{Policy: p, Replicas: f.Replicas, HotShare: f.HotShare, MaxKeys: f.MaxKeys}
}

// Store is the keyed tier's WAL configuration, nil without -data-dir.
func (f *Flags) Store() *keyed.StoreOptions {
	if f.DataDir == "" {
		return nil
	}
	return &keyed.StoreOptions{Dir: f.DataDir, SnapshotEvery: f.SnapshotEvery, Fsync: f.Fsync}
}

// Obs is the trace recorder's configuration.
func (f *Flags) Obs() obs.Options {
	return obs.Options{SlowThreshold: f.TraceSlow, SampleEvery: f.TraceSample}
}

// Watch is the watchdog's configuration (-watch-every 0 disables it).
func (f *Flags) Watch() watch.Options {
	return watch.Options{Cadence: f.WatchEvery, Disabled: f.WatchEvery <= 0}
}

// Logger builds the process logger from -log-level and -log-format,
// tags it with component and installs it as slog's default. A bad
// level or format exits 2.
func (f *Flags) Logger(component string) *slog.Logger {
	logger, err := obs.NewLogger(os.Stderr, f.LogLevel, f.LogFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", component, err)
		os.Exit(2)
	}
	logger = logger.With("component", component)
	slog.SetDefault(logger)
	return logger
}

// Exit logs err as fatal and exits with code: 2 for a bad invocation,
// 1 for a runtime failure.
func Exit(logger *slog.Logger, err error, code int) {
	logger.Error("fatal", "err", err)
	os.Exit(code)
}

// OpenFunc builds the tier, recovering its durable state first. It
// returns the tier, the Info its stats and HELLO advertise, and what a
// WAL recovery rebuilt (nil without a store).
type OpenFunc func() (serve.Tier, serve.Info, *keyed.RecoveryInfo, error)

// Process is one daemon run.
type Process struct {
	Flags  *Flags
	Logger *slog.Logger
	// HTTP is the API listener; Wire the binary-protocol listener, nil
	// to serve HTTP only. Both are reserved before Open runs.
	HTTP, Wire net.Listener
	// Dump triggers a flight-recorder bundle per receive while the
	// recorder is armed (-diag-dir set).
	Dump <-chan os.Signal
	Open OpenFunc
}

// Main runs a daemon process: it reserves the -addr and -wire-addr
// listeners, runs the lifecycle until SIGINT or SIGTERM, and exits 1
// when the tier fails to open or serve.
func Main(f *Flags, logger *slog.Logger, open OpenFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	dump := make(chan os.Signal, 1)
	if f.DiagDir != "" {
		// SIGQUIT is the operator's "dump and keep running" trigger,
		// separate from the SIGINT/SIGTERM drain path. Without a
		// recorder it keeps Go's default (stack dump and exit).
		signal.Notify(dump, syscall.SIGQUIT)
	}
	p := Process{Flags: f, Logger: logger, Dump: dump, Open: open}
	var err error
	if p.HTTP, err = net.Listen("tcp", f.Addr); err != nil {
		Exit(logger, err, 1)
	}
	if f.WireAddr != "" {
		if p.Wire, err = net.Listen("tcp", f.WireAddr); err != nil {
			Exit(logger, err, 1)
		}
	}
	if err := p.Run(ctx); err != nil {
		Exit(logger, err, 1)
	}
	logger.Info("drained, bye")
}

// Run serves the tier until ctx is done, then drains it and returns
// once both listeners are closed. It returns the error that stopped it
// early: a failed Open, recorder setup or HTTP server.
func (p Process) Run(ctx context.Context) error {
	f, logger := p.Flags, p.Logger
	var bg sync.WaitGroup // every goroutine Run starts; it returns after them
	defer bg.Wait()
	// Serve HTTP from the start so healthz is observable (503
	// "recovering") while the tier recovers; the front end is swapped
	// in once the tier is ready.
	var handler atomic.Pointer[http.Handler]
	var warming http.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "recovering", http.StatusServiceUnavailable)
	})
	handler.Store(&warming)
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*handler.Load()).ServeHTTP(w, r)
	})}
	errc := make(chan error, 1)
	bg.Add(1)
	go func() {
		defer bg.Done()
		errc <- srv.Serve(p.HTTP)
	}()

	t, info, rec, err := p.Open()
	if err != nil {
		srv.Close()
		if p.Wire != nil {
			p.Wire.Close()
		}
		return err
	}
	if rec != nil {
		logger.Info("recovered keyed state",
			"snapshot_keys", rec.SnapshotKeys, "journal_records", rec.ReplayedRecords,
			"replay_ms", rec.ReplayMs, "dir", f.DataDir)
	}
	if f.DebugAddr != "" {
		dbg := debugServer(f.DebugAddr, t.Watch())
		bg.Add(1)
		go func() {
			defer bg.Done()
			logger.Info("debug server listening", "addr", f.DebugAddr)
			if err := dbg.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug server exited", "err", err)
			}
		}()
		defer dbg.Close()
	}
	front := serve.NewHandler(t, info)
	var ws *wire.Server
	if p.Wire != nil {
		// The wire listener was reserved before Open: dials queued in
		// its backlog are answered from here on.
		ws = wire.NewServer(front, wire.ServerOptions{Logger: logger})
		front.BindServer(ws)
		bg.Add(1)
		go func() {
			defer bg.Done()
			if err := ws.Serve(p.Wire); err != nil {
				logger.Error("wire server exited", "err", err)
			}
		}()
	}
	var h http.Handler = front
	handler.Store(&h)

	stopDump := make(chan struct{})
	// Arm the flight recorder last: its stats source is the assembled
	// front end (tier plus wire server).
	diagRec, err := diag.New(diag.Options{
		Dir: f.DiagDir, Hop: t.Obs().Hop(), Build: obs.Build(wire.Version), Logger: logger,
	}, diag.Sources{
		Monitor:   t.Watch(),
		Obs:       t.Obs(),
		StatsJSON: front.StatsJSON,
		TraceOps: func(ctx context.Context) ([]string, []*obs.Op) {
			return t.GatherTrace(ctx, 0)
		},
		Durability: func() any {
			if ds := t.Durability(); ds != nil {
				return ds
			}
			return nil
		},
	})
	if diagRec != nil {
		t.BindDiag(diagRec)
		var torn int64
		if ds := t.Durability(); ds != nil {
			torn = ds.RecoveryTornBytes
		}
		diagRec.CheckStartup(context.Background(), torn)
		bg.Add(1)
		go func() {
			defer bg.Done()
			for {
				select {
				case <-stopDump:
					return
				case <-p.Dump:
					dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					path, err := diagRec.Dump(dctx, diag.TriggerSignal, "operator SIGQUIT")
					cancel()
					if err != nil {
						logger.Error("diag: SIGQUIT dump failed", "err", err)
					} else {
						logger.Info("diag: SIGQUIT bundle written", "path", path)
					}
				}
			}
		}()
	}

	if err == nil {
		logger.Info("listening",
			"protocol", info.Protocol, "n", info.N, "shards", info.Shards, "engine", info.Engine,
			"addr", p.HTTP.Addr().String(), "wire_addr", f.WireAddr, "debug_addr", f.DebugAddr)
		select {
		case <-ctx.Done():
			logger.Info("draining")
		case err = <-errc:
		}
	}
	close(stopDump)
	// Drain the tier first, while both listeners still answer: from
	// here /healthz and new work answer 503 (wire: CodeDraining), so
	// load balancers see the drain window before the listeners go.
	// Every admitted call completes, and a durable tier seals its
	// store. Then drop the wire conns and listener, and let in-flight
	// HTTP requests finish.
	t.Close()
	if ws != nil {
		ws.Close()
	}
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if serr := srv.Shutdown(sctx); serr != nil {
		logger.Error("http shutdown", "err", serr)
	}
	if errors.Is(err, http.ErrServerClosed) {
		err = nil
	}
	return err
}

// debugServer exposes net/http/pprof on its own listener so profile
// endpoints never ride the public API surface. The watchdog override
// hook lives here too: it is a test/CI instrument (inject a bogus
// bound, observe the violation machinery end to end), so it belongs on
// the operator-only listener.
func debugServer(addr string, mon *watch.Monitor) *http.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("POST /debug/watch/override", watch.OverrideHandler(mon))
	return &http.Server{Addr: addr, Handler: mux}
}
