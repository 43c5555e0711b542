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
// SIGINT/SIGTERM trigger a graceful drain (internal/daemon, shared
// with bbproxy): the dispatcher drains first while both listeners still
// answer 503, in-flight requests finish (a durable dispatcher writes a
// final snapshot), then the wire and HTTP listeners close and the
// process exits.
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
	"flag"
	"strings"

	"repro/internal/cli"
	"repro/internal/daemon"
	"repro/internal/keyed"
	"repro/internal/serve"
)

// options are bbserved's flags: the shared daemon set plus the
// dispatcher's own.
type options struct {
	*daemon.Flags
	spec        *cli.SpecFlags
	n, shards   int
	keyedPolicy string
}

func registerFlags(fs *flag.FlagSet) *options {
	o := &options{Flags: daemon.RegisterFlags(fs), spec: cli.RegisterSpec(fs)}
	fs.IntVar(&o.n, "n", 100000, "number of bins")
	fs.IntVar(&o.shards, "shards", 8, "allocator shards (parallel dispatch lanes)")
	fs.StringVar(&o.keyedPolicy, "keyed-policy", "adaptive", "keyed tier key->shard policy: "+strings.Join(keyed.Policies(), ", "))
	return o
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()
	logger := o.Logger("bbserved")

	spec, err := o.spec.Spec()
	if err != nil {
		daemon.Exit(logger, err, 2)
	}
	eng, err := o.spec.Engine()
	if err != nil {
		daemon.Exit(logger, err, 2)
	}
	kp, err := keyed.PolicyByName(o.keyedPolicy, o.spec.D, o.Retries, o.Horizon)
	if err != nil {
		daemon.Exit(logger, err, 2)
	}
	cfg := serve.Config{
		Spec:       spec,
		N:          o.n,
		Shards:     o.shards,
		Seed:       o.spec.Seed,
		Engine:     eng,
		Horizon:    o.Horizon,
		Keyed:      o.Keyed(kp),
		KeyedStore: o.Store(),
		Obs:        o.Obs(),
		Watch:      o.Watch(),
	}
	daemon.Main(o.Flags, logger, func() (serve.Tier, serve.Info, *keyed.RecoveryInfo, error) {
		d, rec, err := serve.OpenDispatcher(cfg)
		if err != nil {
			return nil, serve.Info{}, nil, err
		}
		return d, serve.Info{
			Protocol: d.Name(),
			N:        o.n,
			Shards:   o.shards,
			Engine:   eng.String(),
			Seed:     o.spec.Seed,
			WireAddr: o.WireAddr,
		}, rec, nil
	})
}
