// Command bbload generates serving workloads against a running
// bbserved or bbproxy (HTTP or wire), an in-process dispatch core, or
// an in-process routing cluster, and writes the measured throughput
// and latency quantiles as a BENCH JSON record (schema bbserve/v1, or
// bbcluster/v1 for cluster runs). Every target is reached through the
// client bbproxy uses for its backends (internal/cluster).
//
// Modes:
//
//   - open: Poisson arrivals at -rate balls/sec, each ball departing
//     after an exponential or lognormal service time — the supermarket
//     continuous-arrival regime.
//   - closed: -workers concurrent place+remove loops, measuring
//     saturation throughput (errors reported per worker).
//
// Scenarios shape the open-loop arrival rate over the run: steady,
// ramp, flash (crowd spike), skew (Zipf bulk sizes) — plus the keyed
// family (schema bbkeyed/v1): keyed (steady Zipf key popularity from
// a seedable stream), keyed-flash (one key takes 30% of mid-run
// traffic), keyed-churn (the key space rotates), keyed-kill (one
// backend dies mid-run; cluster target), keyed-restart (the routing
// tier crash-restarts from its WAL mid-run; cluster target — stamps
// recovery_ms, assignments_recovered, affinity_hit_rate_post_restart).
//
// Usage:
//
//	bbload -target http://127.0.0.1:8080 -mode open -scenarios steady \
//	        -rate 2000 -duration 30s -service 50ms
//	bbload -target inproc -mode closed -workers 64 -duration 10s \
//	        -spec adaptive -n 100000 -shards 8
//	bbload -target cluster -cluster-backends 8 -policies single,greedy,adaptive \
//	        -scenarios steady,skew,flash -rate 4000 -duration 10s
//	bbload -target cluster -cluster-backends 8 \
//	        -policies keyed-hash,keyed-greedy2,keyed-adaptive \
//	        -scenarios keyed,keyed-flash,keyed-churn -rate 2000 -duration 10s
//
// With -target inproc the generator builds its own dispatcher from
// -spec/-n/-shards/-engine/-seed. With -target cluster it builds
// -cluster-backends in-proc dispatch cores fronted by a cluster.Router
// and runs every scenario under every -policies entry (fresh backends
// per run), recording the cross-backend gap each routing policy
// achieved — the single-machine version of bbload → bbproxy →
// N×bbserved. With an http target those flags are ignored (the
// server's configuration governs) and the run is labeled from the
// server's /v1/stats info; pointing at a bbproxy stamps the cluster
// fields from its aggregated stats.
//
// URL targets take -transport wire to drive the server's binary wire
// listener (discovered from the probe's info.wire_addr) instead of
// HTTP, and -conns to cap connections (wire pool size; HTTP max
// concurrent connections — -conns 1 is the single-connection
// configuration the transport-gap bench records). Either transport
// stamps the transport, client_coalescing_factor and
// client_bytes_per_op columns into the record.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/benchio"
	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/keyed"
	"repro/internal/load"
	"repro/internal/serve"
	"repro/internal/watch"
)

// watchCadence is the watchdog tick on the generator's own in-proc
// targets: fast enough that even a short CI run collects a usable
// gap_over_time series. URL targets keep the server's own -watch-every.
const watchCadence = 250 * time.Millisecond

// report is the bbserve/v1 (or bbcluster/v1) schema: the shared
// benchio envelope plus one case per generator run.
type report struct {
	benchio.Env
	Cases []load.Result `json:"cases"`
}

func main() {
	sf := cli.RegisterSpec(flag.CommandLine)
	var (
		target    = flag.String("target", "inproc", `target: "inproc", "cluster", or a base URL like http://127.0.0.1:8080`)
		transport = flag.String("transport", "http", "URL-target transport: http, or wire (the server's advertised -wire-addr listener)")
		conns     = flag.Int("conns", 0, "URL-target connection cap: wire pool size (0 = 1) / max concurrent HTTP conns (0 = unlimited)")
		mode      = flag.String("mode", "open", "load mode: open or closed")
		scenarios = flag.String("scenarios", "steady", "comma-separated scenario presets: "+strings.Join(load.Scenarios(), ", "))
		rate      = flag.Float64("rate", 2000, "open-loop offered ball rate per second")
		workers   = flag.Int("workers", 32, "closed-loop concurrent workers")
		duration  = flag.Duration("duration", 10*time.Second, "measurement window per scenario")
		service   = flag.Duration("service", 50*time.Millisecond, "open-loop mean service time")
		dist      = flag.String("dist", "exp", "service time distribution: exp or lognormal")
		n         = flag.Int("n", 100000, "bins (inproc target; per backend for cluster)")
		shards    = flag.Int("shards", 8, "shards (inproc target; per backend for cluster)")
		horizon   = flag.Int64("horizon", 0, "declared total balls (inproc threshold family / threshold policy)")
		out       = flag.String("out", "", "output path (default BENCH_serve_<date>.json or BENCH_cluster_<date>.json; \"-\" to skip)")

		backends  = flag.Int("cluster-backends", 4, "in-proc backends (cluster target)")
		policies  = flag.String("policies", "single,greedy,adaptive", "comma-separated routing policies (cluster target): "+strings.Join(cluster.Policies(), ", ")+", or keyed-P / keyed[P] with P one of "+strings.Join(keyed.Policies(), ", "))
		retries   = flag.Int("retries", 3, "probe cap (boundedretry policy)")
		staleness = flag.Duration("staleness", 0, "cluster load-view refresh window (0 = local accounting)")

		keySpace = flag.Int("key-space", 0, "keyed scenarios: distinct key count (0 = preset default)")
		keyZipf  = flag.Float64("key-zipf", 0, "keyed scenarios: key popularity Zipf s > 1 (0 = preset default)")

		dataDir   = flag.String("data-dir", "", "cluster target: durable keyed state root (each run gets a fresh subdirectory; empty = temp dir for restart scenarios, in-memory otherwise)")
		snapEvery = flag.Int("snapshot-every", 0, "cluster target: journal records between snapshots (0 = default)")
		fsyncMode = flag.String("fsync", "", "cluster target: WAL fsync policy: always, interval, never (empty = default)")
	)
	flag.Parse()

	if *dist != "exp" && *dist != "lognormal" {
		fmt.Fprintln(os.Stderr, "bbload: -dist must be exp or lognormal")
		os.Exit(2)
	}
	if *transport != "http" && *transport != "wire" {
		fmt.Fprintln(os.Stderr, "bbload: -transport must be http or wire")
		os.Exit(2)
	}

	var names []string
	for _, tok := range strings.Split(*scenarios, ",") {
		names = append(names, strings.TrimSpace(tok))
	}
	policyNames := []string{""}
	schema := "bbserve/v1"
	if *target == "cluster" {
		schema = "bbcluster/v1"
		policyNames = policyNames[:0]
		for _, tok := range strings.Split(*policies, ",") {
			policyNames = append(policyNames, strings.TrimSpace(tok))
		}
	}

	// Keyed scenarios write the bbkeyed/v1 schema (the bbserve/bbcluster
	// records extended with the keyed-tier columns).
	for _, name := range names {
		if sc, err := load.ByName(name); err == nil && sc.Keyed {
			schema = "bbkeyed/v1"
		}
	}

	rep := report{Env: benchio.NewEnv(schema)}
	ctx := context.Background()
	for _, name := range names {
		sc, err := load.ByName(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bbload:", err)
			os.Exit(2)
		}
		if sc.Keyed {
			if *keySpace > 0 {
				sc.KeySpace = *keySpace
			}
			if *keyZipf > 0 {
				sc.KeyZipfS = *keyZipf
			}
		}
		for _, policy := range policyNames {
			res, err := runOne(ctx, sf, sc, *target, *transport, *conns, *mode, *rate, *workers, *duration,
				*service, *dist, *n, *shards, *horizon, *backends, policy, *retries, *staleness,
				*dataDir, *snapEvery, *fsyncMode)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bbload:", err)
				os.Exit(1)
			}
			line := fmt.Sprintf(
				"bbload: %-6s %-6s %-7s %8.0f ops/s  p50 %s  p99 %s  p999 %s  (placed %d, removed %d, shed %d, errs %d)",
				res.Scenario, res.Mode, res.Target, res.ThroughputPerSec,
				fmtNs(res.PlaceLatencyNs.P50), fmtNs(res.PlaceLatencyNs.P99),
				fmtNs(res.PlaceLatencyNs.P999), res.Placed, res.Removed, res.Shed, res.Errors)
			if res.Policy != "" {
				line += fmt.Sprintf("  [%s x%d gap %d, %.2f probes/pick]",
					res.Policy, res.Backends, res.ClusterGap, res.ProbesPerPick)
			}
			if res.KeyedPolicy != "" {
				line += fmt.Sprintf("  [keyed %s: %d keys, hit %.3f, moved %d, shed %d, hot %d]",
					res.KeyedPolicy, res.Keys, res.AffinityHitRate, res.KeysMoved, res.KeysShed, res.HotKeys)
			}
			if res.ProxyRestarted {
				line += fmt.Sprintf("  [restart: recovered %d keys in %dms, post-restart hit %.3f]",
					res.AssignmentsRecovered, res.RecoveryMs, res.AffinityHitRatePostRestart)
			}
			if len(res.GapOverTime) > 0 {
				last := res.GapOverTime[len(res.GapOverTime)-1]
				line += fmt.Sprintf("  [watch: %d pts, end gap %d, violations %d]",
					len(res.GapOverTime), last.Gap, res.Violations)
			}
			if len(res.StageP99Ns) > 0 {
				stages := make([]string, 0, len(res.StageP99Ns))
				for stage := range res.StageP99Ns {
					stages = append(stages, stage)
				}
				sort.Strings(stages)
				parts := make([]string, len(stages))
				for i, stage := range stages {
					parts[i] = stage + " " + fmtNs(res.StageP99Ns[stage])
				}
				line += "  [stage p99: " + strings.Join(parts, ", ") + "]"
			}
			fmt.Fprintln(os.Stderr, line)
			for i, so := range res.SlowOps {
				if i >= 3 {
					fmt.Fprintf(os.Stderr, "bbload:   ... %d more slow ops in the JSON record\n", len(res.SlowOps)-i)
					break
				}
				detail := "not retained server-side"
				if so.ServerNs > 0 {
					var sp []string
					for _, s := range so.Stages {
						sp = append(sp, s.Stage+" "+fmtNs(s.DurationNs))
					}
					detail = fmt.Sprintf("server %s (%s: %s)", fmtNs(so.ServerNs), so.Hop, strings.Join(sp, " + "))
				}
				fmt.Fprintf(os.Stderr, "bbload:   slow %s %s client %s  %s\n",
					so.Op, so.Trace, fmtNs(so.ClientNs), detail)
			}
			rep.Cases = append(rep.Cases, res)
		}
	}

	path := *out
	if path == "" {
		prefix := "serve_"
		if *target == "cluster" {
			prefix = "cluster_"
		}
		if schema == "bbkeyed/v1" {
			prefix = "keyed_"
		}
		path = benchio.DefaultPath(prefix)
	}
	if path == "-" {
		return
	}
	if err := benchio.WriteJSON(path, rep); err != nil {
		fmt.Fprintln(os.Stderr, "bbload:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", path)
}

func fmtNs(ns int64) string {
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return d.Round(10 * time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(100 * time.Nanosecond).String()
	}
}

func runOne(ctx context.Context, sf *cli.SpecFlags, sc load.Scenario,
	target, transport string, conns int, mode string, rate float64, workers int, duration, service time.Duration,
	dist string, n, shards int, horizon int64,
	backends int, policyName string, retries int, staleness time.Duration,
	dataDir string, snapEvery int, fsyncMode string) (load.Result, error) {

	cfg := load.Config{
		Scenario:    sc,
		Mode:        mode,
		Rate:        rate,
		Workers:     workers,
		Duration:    duration,
		ServiceMean: service,
		ServiceDist: dist,
		Seed:        int64(sf.Seed),
	}

	var tgt cluster.Backend
	label := "http"
	protocol := ""
	switch target {
	case "inproc":
		spec, err := sf.Spec()
		if err != nil {
			return load.Result{}, err
		}
		eng, err := sf.Engine()
		if err != nil {
			return load.Result{}, err
		}
		d := serve.NewDispatcher(serve.Config{
			Spec: spec, N: n, Shards: shards, Seed: sf.Seed, Engine: eng, Horizon: horizon,
			Watch: watch.Options{Cadence: watchCadence},
		})
		defer d.Close()
		tgt = &cluster.InprocBackend{D: d}
		label = "inproc"
		protocol = d.Name()
	case "cluster":
		spec, err := sf.Spec()
		if err != nil {
			return load.Result{}, err
		}
		eng, err := sf.Engine()
		if err != nil {
			return load.Result{}, err
		}
		// keyed-P (or keyed[P]) policies run the keyed tier under inner
		// policy P; anonymous traffic routes under P's anonymous
		// analogue (hash → single). Same mapping as bbproxy -policy.
		var keyedCfg *keyed.Config
		anonName, anonD := policyName, sf.D
		if inner, ok := keyed.SplitName(policyName); ok {
			kp, kerr := keyed.PolicyByName(inner, sf.D, retries, horizon)
			if kerr != nil {
				return load.Result{}, kerr
			}
			keyedCfg = &keyed.Config{Policy: kp}
			anonName, anonD = keyed.AnonAnalogue(inner, sf.D)
		}
		policy, err := cluster.PolicyByName(anonName, anonD, retries, sf.Bound, horizon)
		if err != nil {
			return load.Result{}, err
		}
		// Restart scenarios need durable keyed state; each run gets a
		// fresh directory so one run's WAL never replays into the next.
		runDir := ""
		if dataDir != "" || sc.RestartProxyFrac > 0 {
			root := dataDir
			if root == "" {
				root = os.TempDir()
			}
			var derr error
			runDir, derr = os.MkdirTemp(root, "bbload-wal-")
			if derr != nil {
				return load.Result{}, derr
			}
			if dataDir == "" {
				defer os.RemoveAll(runDir)
			}
		}
		ct, err := load.NewInprocCluster(load.ClusterConfig{
			Backends: backends, Spec: spec, N: n, Shards: shards,
			Engine: eng, Seed: sf.Seed, Horizon: horizon,
			Policy: policy, Keyed: keyedCfg, Staleness: staleness,
			DataDir: runDir, SnapshotEvery: snapEvery, Fsync: fsyncMode,
			Watch: watch.Options{Cadence: watchCadence},
		})
		if err != nil {
			return load.Result{}, err
		}
		defer ct.Close()
		tgt = ct
		label = "cluster"
		protocol = spec.Name()
		n *= backends // total bins across the cluster
	default:
		// Reach the daemon the way bbproxy reaches a backend: an HTTP
		// probe of its stats document, which doubles as wire discovery
		// (the daemon advertises its -wire-addr in the info block).
		base := strings.TrimSuffix(target, "/")
		hb := cluster.NewHTTPBackendN(base, conns, 0)
		doc, err := hb.StatsDoc(ctx)
		if err != nil {
			return load.Result{}, fmt.Errorf("probe %s: %w", target, err)
		}
		protocol = doc.Info.Protocol
		n, shards = doc.Info.N, doc.Info.Shards
		tgt = hb
		if transport == "wire" {
			wb, werr := cluster.NewWireBackend(hb, doc.Info.WireAddr, n)
			if werr != nil {
				return load.Result{}, fmt.Errorf("%s: %w (is it running with -wire-addr?)", base, werr)
			}
			defer wb.Close()
			tgt = wb
			label = "wire"
		}
	}

	res, err := load.Run(ctx, cfg, tgt)
	if err != nil {
		return res, err
	}
	res.Target = label
	res.Protocol = protocol
	res.N = n
	res.Shards = shards
	return res, nil
}
