// Command bbproxy is the cluster routing tier: it serves the same
// HTTP surface as a single bbserved but fans traffic out across many
// bbserved backends, using the paper's allocation protocols as live
// load-balancing policies (backends are the bins; a protocol retry is
// a probe of another backend against a stale load view).
//
// Usage:
//
//	bbproxy -addr :8080 \
//	    -backends http://127.0.0.1:8081,http://127.0.0.1:8082 \
//	    -policy greedy -d 2 -staleness 500ms
//	bbproxy -backends ... -policy adaptive
//	bbproxy -backends ... -policy boundedretry -retries 3
//	bbproxy -backends ... -policy 'keyed[adaptive]'
//
// Policies: single (random routing), greedy (-d choices), adaptive,
// threshold (-horizon), boundedretry (-retries), fixed (-bound).
// A keyed[P] policy additionally runs the keyed placement tier
// (internal/keyed): requests carrying ?key= get consistent bounded-
// load key→backend assignment under inner policy P (hash, greedy,
// adaptive, threshold, boundedretry) with sticky affinity, hot-key
// splitting (-replicas, -hot-share) and minimal-disruption
// rebalancing on evict/rejoin; anonymous requests keep routing under
// P's anonymous analogue.
//
// API (identical to bbserved, plus the aggregated cluster block):
//
//	POST /v1/place[?count=k]  route 1 (default) or k balls
//	POST /v1/place?key=K      keyed placement (bulk + key is a 400)
//	POST /v1/remove?bin=g[&key=K]  remove from global bin g (slot·n + local)
//	GET  /v1/stats            aggregated cluster view + per-backend rows
//	GET  /v1/events           invariant watchdog event journal
//	                          (EVICTION/REJOIN/REBALANCE/…)
//	GET  /v1/timeseries       watchdog time series (?window=N)
//	GET  /healthz             200 while routable, 503 otherwise
//	GET  /metrics             Prometheus text format
//
// -watch-every sets the invariant watchdog's cadence (0 disables it):
// each tick re-checks the paper's cross-backend bound against the live
// load view, and membership changes journal EVICTION/REJOIN/REBALANCE
// events the moment they happen.
//
// Backends that fail -fail-after consecutive health probes (or live
// requests) are evicted from routing and rejoin automatically after
// -rise-after successful probes. SIGINT/SIGTERM drain gracefully, in
// bbserved's order (internal/daemon runs both daemons): the router,
// then the wire listener, then HTTP.
//
// With -wire-addr the proxy serves the binary wire protocol
// (internal/wire) alongside HTTP, and by default (-wire-backends) it
// also dials any backend that advertises a wire listener in its
// /v1/stats info over wire instead of HTTP — the startup probe doubles
// as discovery, HTTP stays as the fallback, and health/failover/
// eviction are transport-agnostic.
//
// With -data-dir the keyed tier is durable: every key→backend
// mutation is journaled to a CRC-checked write-ahead log with periodic
// compacting snapshots, a restarted proxy replays to the exact
// pre-crash assignment before routing (healthz answers 503 while the
// replay runs), and the SIGTERM drain writes a final snapshot so a
// clean restart loses nothing. -fsync picks the append durability
// policy and -snapshot-every the compaction cadence.
//
// With -diag-dir the flight recorder (internal/diag) is armed — same
// triggers as bbserved (invariant violation, recovery anomaly, armed
// crash point, SIGQUIT) — and the proxy's bundles capture the
// cross-tier trace picture: the trace section fans out to every live
// backend's retained-op ring, so one bundle holds the complete
// proxy→backend op path. GET /v1/trace/{id} serves the same assembly
// live.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/daemon"
	"repro/internal/keyed"
	"repro/internal/serve"
)

// options are bbproxy's flags: the shared daemon set plus the
// router's own.
type options struct {
	*daemon.Flags
	wireDial             bool
	backends, policy     string
	d, bound             int
	seed                 uint64
	staleness, healthDur time.Duration
	failAfter, riseAfter int
}

func registerFlags(fs *flag.FlagSet) *options {
	o := &options{Flags: daemon.RegisterFlags(fs)}
	fs.BoolVar(&o.wireDial, "wire-backends", true, "dial backends over the wire protocol when they advertise one")
	fs.StringVar(&o.backends, "backends", "", "comma-separated backend base URLs (required)")
	fs.StringVar(&o.policy, "policy", "greedy", "routing policy: "+strings.Join(cluster.Policies(), ", ")+", or keyed[P] with P one of "+strings.Join(keyed.Policies(), ", "))
	fs.IntVar(&o.d, "d", 2, "choices per pick (greedy)")
	fs.IntVar(&o.bound, "bound", 0, "absolute per-backend ball bound (fixed)")
	fs.Uint64Var(&o.seed, "seed", 1, "routing RNG seed")
	fs.DurationVar(&o.staleness, "staleness", 500*time.Millisecond, "load-view refresh window (0 = local accounting only)")
	fs.DurationVar(&o.healthDur, "health-every", 1*time.Second, "health probe period (0 = no health loop)")
	fs.IntVar(&o.failAfter, "fail-after", 2, "consecutive failures to evict a backend")
	fs.IntVar(&o.riseAfter, "rise-after", 2, "consecutive successful probes to rejoin")
	return o
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()
	logger := o.Logger("bbproxy")

	var urls []string
	for _, tok := range strings.Split(o.backends, ",") {
		if tok = strings.TrimSpace(tok); tok != "" {
			urls = append(urls, strings.TrimSuffix(tok, "/"))
		}
	}
	if len(urls) == 0 {
		daemon.Exit(logger, errors.New("-backends is required (comma-separated base URLs)"), 2)
	}

	// A "keyed[P]" (or "keyed-P") policy enables the keyed placement
	// tier under inner policy P; anonymous (unkeyed) requests then
	// route under the matching anonymous policy — P itself, except
	// hash, whose anonymous analogue is single-choice.
	var keyedCfg *keyed.Config
	anonName := o.policy
	anonD := o.d
	if inner, ok := keyed.SplitName(o.policy); ok {
		kp, err := keyed.PolicyByName(inner, o.d, o.Retries, o.Horizon)
		if err != nil {
			daemon.Exit(logger, err, 2)
		}
		keyedCfg = o.Keyed(kp)
		anonName, anonD = keyed.AnonAnalogue(inner, o.d)
	}
	policy, err := cluster.PolicyByName(anonName, anonD, o.Retries, o.bound, o.Horizon)
	if err != nil {
		daemon.Exit(logger, err, 2)
	}

	// Probe the backends for their configuration: every backend must
	// serve the same number of bins for the global bin numbering
	// slot·n + local to be well defined. Backends that are down at
	// startup are tolerated as long as at least one answers — their
	// client checks the bin count on first contact, so a misconfigured
	// late joiner can never corrupt the numbering.
	hbs := make([]*cluster.HTTPBackend, len(urls))
	verified := make([]bool, len(urls))
	wireAddrs := make([]string, len(urls))
	n, protocol := 0, ""
	probeCtx, cancelProbe := context.WithTimeout(context.Background(), 10*time.Second)
	for i, u := range urls {
		hbs[i] = cluster.NewHTTPBackend(u)
		doc, err := hbs[i].StatsDoc(probeCtx)
		if err != nil {
			logger.Warn("backend unreachable at startup", "backend", u, "err", err)
			continue
		}
		verified[i] = true
		wireAddrs[i] = doc.Info.WireAddr
		if n == 0 {
			n, protocol = doc.Info.N, doc.Info.Protocol
		} else if doc.Info.N != n {
			daemon.Exit(logger, fmt.Errorf("backend %s serves n=%d, others n=%d — all backends must match", u, doc.Info.N, n), 2)
		}
	}
	cancelProbe()
	if n == 0 {
		daemon.Exit(logger, errors.New("no backend answered the startup probe"), 1)
	}
	bks := make([]cluster.Backend, len(urls))
	for i, hb := range hbs {
		switch {
		case !verified[i]:
			// Down at startup: HTTP, checking the bin count on first
			// contact. (No wire address is known for it either — it
			// rejoins over HTTP; the advertised wire listener is a
			// startup upgrade.)
			bks[i] = cluster.NewHTTPBackendN(hb.Name(), 0, n)
		case o.wireDial && wireAddrs[i] != "":
			wb, err := cluster.NewWireBackend(hb, wireAddrs[i], n)
			if err != nil {
				logger.Warn("wire dial failed, falling back to HTTP",
					"backend", hb.Name(), "wire_addr", wireAddrs[i], "err", err)
				bks[i] = hb
				continue
			}
			logger.Info("backend dialed over wire", "backend", hb.Name(), "wire_addr", wireAddrs[i])
			bks[i] = wb
		default:
			bks[i] = hb
		}
	}

	rcfg := cluster.Config{
		Backends:       bks,
		BinsPerBackend: n,
		Policy:         policy,
		Seed:           o.seed,
		Staleness:      o.staleness,
		HealthEvery:    o.healthDur,
		FailAfter:      o.failAfter,
		RiseAfter:      o.riseAfter,
		Keyed:          keyedCfg,
		KeyedStore:     o.Store(),
		Obs:            o.Obs(),
		Watch:          o.Watch(),
		Logger:         logger,
	}
	daemon.Main(o.Flags, logger, func() (serve.Tier, serve.Info, *keyed.RecoveryInfo, error) {
		rt, rec, err := cluster.OpenRouter(rcfg)
		if err != nil {
			return nil, serve.Info{}, nil, err
		}
		served := rt.Policy()
		if km := rt.Keyed(); km != nil {
			served = "keyed[" + km.PolicyName() + "]+" + served
		}
		logger.Info("routing", "policy", rt.Policy(), "backends", len(bks), "per_backend", n)
		return rt, serve.Info{
			Protocol: "cluster/" + served,
			N:        rt.N(),
			Shards:   len(bks),
			Engine:   protocol, // the backends' protocol, for labeling
			Seed:     o.seed,
			WireAddr: o.WireAddr,
		}, rec, nil
	})
}
