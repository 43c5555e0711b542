// Package ballsbins is a Go implementation of the allocation protocols
// from Berenbrink, Khodamoradi, Sauerwald and Stauffer, "Balls-into-Bins
// with Nearly Optimal Load Distribution" (SPAA 2013), together with
// every baseline the paper compares against and a benchmark harness
// that regenerates the paper's Table 1 and Figure 3.
//
// # The protocols
//
// The paper studies sequential processes that place m balls into n
// bins using random choices, trading the number of choices (the
// "allocation time") against the maximum and overall shape of the
// final load distribution:
//
//   - Adaptive (the paper's contribution): ball i samples bins
//     uniformly at random until it finds one with load < i/n + 1.
//     Maximum load ⌈m/n⌉+1 by construction, O(m) expected allocation
//     time (Theorem 3.1), and a smooth final distribution — max-min
//     gap O(log n) w.h.p. and E[Ψ], E[Φ] = O(n) (Corollary 3.5). The
//     number of balls need not be known in advance.
//   - Threshold (Czumaj–Stemann): like Adaptive but with the fixed
//     acceptance bound m/n + 1. Allocation time m + O(m^{3/4}·n^{1/4})
//     (Theorem 4.1) — faster than Adaptive — but the final distribution
//     is rough: for m = n² the gap is Ω(n^{1/8}) and Ψ = Ω(n^{9/8})
//     (Lemma 4.2).
//   - Baselines: SingleChoice, Greedy(d) (Azar et al.), Left(d)
//     (Vöcking's Always-Go-Left), Memory(d,k) (Mitzenmacher–Prabhakar–
//     Shah), plus the AdaptiveNoSlack ablation showing the "+1" slack
//     is what buys the linear running time.
//
// Allocation time follows the paper's accounting — the number of
// random bin choices, not wall-clock time.
//
// # The Allocator — the core abstraction
//
// The heart of the package is the stateful Allocator (New): a
// long-lived allocator that accepts arrivals one ball at a time
// (Place), in bulk (PlaceBatch), and departures (Remove), exposing
// the live load state — Loads, MaxLoad, Gap, Psi, Metrics, Snapshot —
// after every operation. This is the online setting the adaptive
// protocol was designed for: its acceptance bound reads the live ball
// count, so the total number of balls need never be known, and
// departures lower the bound automatically.
//
//	lb := ballsbins.New(ballsbins.Adaptive(), 500)
//	bin, probes := lb.Place() // dispatch a task
//	lb.Remove(bin)            // ... and its completion
//
// Every batch entry point — Run, Replicates, RunBatchedGreedy,
// RunBatchedAdaptive, and the dynamic simulator's arrival step — is a
// thin driver over the same incremental core, so an Allocator stepped
// ball-by-ball reproduces Run's Result exactly under the same seed
// and engine. Specs whose acceptance rule needs the total ball count
// (Threshold, BoundedRetry) require WithHorizon at construction; all
// others are fully online. For concurrent callers, NewSharded
// partitions the bins into independently locked shards with
// deterministic per-shard RNG streams.
//
// # Serving
//
// The ShardedAllocator is the substrate of a network serving layer:
// cmd/bbserved exposes it over HTTP (place, remove, stats, snapshot,
// health, Prometheus metrics) and the wire protocol through the
// dispatcher in internal/serve, which runs each request in its
// caller's goroutine under its shard's lock via WithShardLocked — no
// queue or hand-off, so concurrent requests on different shards never
// contend.
// Monitoring reads come in two consistency grades: Metrics/Snapshot
// lock every shard for a linearizable view, while ShardMetrics and
// ApproxMetrics lock one shard at a time (cheap, but shards are
// observed at slightly different instants — see ApproxMetrics for the
// exact contract). cmd/bbload generates open-loop Poisson churn (the
// continuous-time supermarket regime: every placed ball departs after
// a random service time) and closed-loop saturation workloads against
// either the HTTP API or the in-process dispatcher; see the README's
// Serving section.
//
// # The cluster tier
//
// Above single-node serving sits the routing tier (internal/cluster,
// cmd/bbproxy), which runs the paper one level up: backend bbserved
// nodes are the bins, and the protocols become live load-balancing
// policies deciding which backend each placement goes to. A protocol
// "retry" is a probe of another backend against a deliberately stale
// LoadView (async stats polling on a configurable staleness window,
// corrected by local accounting) — the stale-information regime of
// the two-choices literature. SingleChoice is random routing,
// Greedy(d) is the classical power of d choices, and Adaptive accepts
// a backend whose estimated load is below (live total)/K + 1, which
// transplants its ⌈i/K⌉+1 max-load guarantee to the cluster level
// while needing no declared horizon. Each routing policy, like each
// keyed policy below, is one protocol.Rule: the acceptance test
// (protocol.Accepts), probe cap and defended bound are stated once in
// internal/protocol, and the router's pick loop runs any of them.
// bbproxy serves the same HTTP
// surface as bbserved (clients cannot tell the tiers apart), health-
// checks its backends with eviction and automatic rejoin on stable
// slots, fails placements over on backend errors, and exposes
// aggregated cross-backend stats (max load, gap, probe counts per
// policy). Both daemons are one front end (serve.Handler) and one
// process lifecycle (internal/daemon) over two tiers: the Dispatcher
// and the Router each implement serve.Tier. The client is one too:
// the Router reaches its backends, and bbload and bbtop the daemon
// they drive, through cluster's in-process, HTTP and wire backends,
// which answer alike. bbload's cluster target drives the same Router
// over in-process backends for single-machine policy comparisons; see the
// README's Cluster tier section for measured gaps of random vs
// 2-choice vs adaptive routing.
//
// # Keyed placement tier
//
// The keyed tier (internal/keyed, exposed by bbserved and bbproxy via
// ?key= and -policy keyed[...]) serves workloads where the same key —
// a user, session, or cache key — must keep landing on the same bin.
// It is consistent-hashing-with-bounded-loads built from the paper's
// own machinery: every key owns a deterministic pseudo-random probe
// sequence (a per-key RNG stream, the same construction as the
// protocols' bin draws) and is assigned to the first probed bin
// passing the active policy's acceptance rule (a protocol.Rule) — the
// exact integer test K·(load−1) < i over per-bin key counts, so keyed-adaptive
// carries the ⌈i/K⌉+1 guarantee on keys per bin where plain hash
// affinity has none. An assignment table makes repeat traffic free
// (sticky affinity, zero probes); keys whose request share crosses a
// threshold are split to d-replica sets balanced by two-choices among
// the replicas; and when a bin dies, only the keys resident on it
// re-probe — their moves are counted and bounded (moved ≤ resident),
// overfull survivors shed their most recent keys down to the policy
// bound, and a rejoining bin moves nothing at all, in the paper's
// no-reallocation spirit. bbload's keyed scenarios (Zipf key
// popularity, hot-key flash, key churn, membership kill) measure the
// tier end to end; see the README's Keyed tier section.
//
// The keyed assignment is durable: with -data-dir set, bbserved and
// bbproxy journal every structural mutation to a CRC-checked
// write-ahead log (internal/wal) with periodic compacting snapshots,
// and a restarted process replays to the exact pre-crash key→bin
// assignment before serving — kill -9 recovery is prefix-exact (the
// torn tail is truncated, never reordered or invented), SIGTERM
// drains seal a final snapshot, and the -fsync flag (always/
// interval/never) picks the durability/latency point. The recovery
// paths are exercised by crash-point fault injection
// (internal/faultinject, armed via BB_CRASHPOINT) and torn-tail
// fuzzing; see the README's Durability section.
//
// # Wire protocol
//
// Both serving tiers also speak a binary streaming protocol
// (internal/wire, enabled with -wire-addr) that closes the throughput
// gap between the in-proc dispatcher and JSON-over-HTTP: persistent
// connections carrying length-prefixed CRC-32-guarded frames (the
// WAL's framing idiom), request IDs for out-of-order pipelining, and
// batch coalescing on both ends of the socket — concurrent callers'
// requests are packed into one write/syscall per flush. Every refusal
// carries its typed code (one table in internal/wire gives each code
// its HTTP status), the STATS message returns the exact /v1/stats
// document, and bbproxy transparently dials backends over wire when
// they advertise a listener (HTTP remains the fallback; failover is
// transport-agnostic). bbload
// -transport wire drives every scenario over it and stamps the
// coalescing factor and bytes/op into the bench records; see the
// README's Wire protocol section.
//
// # Observability
//
// The serving stack is traced end to end (internal/obs): every
// operation carries an allocation-free Capture whose stage spans
// (queue/apply, after probe for a keyed place, on bbserved;
// probe/forward on bbproxy) sum to the op total. An op reads the wall
// clock once, when it begins, and takes every later stamp as a
// monotonic offset from it. Slow or head-sampled ops (a 1-in-N draw
// per op) are retained — with attrs like
// probes, failovers, and load-view staleness at pick time — in a
// lock-free ring served by GET /v1/trace on both daemons. One trace
// id names an op across every hop: minted at the first capturing
// tier, it propagates in the X-BB-Trace HTTP header and as the wire
// protocol's optional trailing field (the HELLO v1→v2 bump; v1 peers
// are unaffected). Stage durations also feed bb_stage_* histogram
// series on /metrics next to bb_go_* runtime gauges, -debug-addr
// serves net/http/pprof, and both daemons log through log/slog
// (-log-level, -log-format). bbload joins its slowest client ops
// against /v1/trace to print per-stage server breakdowns; see the
// README's Observability section.
//
// The paper's bounds are also checked live (internal/watch): both
// daemons run an invariant watchdog that evaluates each tier's
// provable load bound — ⌈m/n⌉+1 per shard and its sharded
// composition on bbserved, ⌈i/K⌉ plus bulk slack across backends on
// bbproxy, and the keyed tiers' per-bin replica bounds — against
// consistent snapshots on a cadence (-watch-every), recording
// breaches and lifecycle transitions (EVICTION, REJOIN, REBALANCE,
// RECOVERY, DRAIN) in a bounded typed event journal served as GET
// /v1/events and counted as bb_invariant_violations_total on
// /metrics. Each tick also appends one aggregate point (gap, Ψ,
// ops/s, affinity hit rate, ...) to a fixed-width time-series ring
// behind GET /v1/timeseries, which bbload folds into its bench
// envelopes as gap_over_time and cmd/bbtop renders as a live
// terminal dashboard (-once -format json for scripting). Checks are
// armed only under the conditions that make them sound — policy
// family, anonymous traffic, stable membership, no acceptance-loop
// fallbacks — so a reported violation is a real bound breach, not
// estimator noise; see the README's invariant table.
//
// When it does break, the flight recorder (internal/diag, armed with
// -diag-dir) captures the postmortem: on a watchdog violation, an
// operator SIGQUIT, a WAL recovery that truncated a torn tail, or a
// restart with a crash point still armed, the daemon snapshots a
// self-contained diagnostic bundle — full stats, event journal, time
// series, last check results, every retained trace across every tier,
// goroutine/heap profiles, and the build stamp — as one CRC-framed
// .bbdiag file written crash-safely (a dump that itself dies leaves a
// prefix-exact readable bundle), rate-limited and with bounded
// retention. One trace id can be assembled across tiers live too: GET
// /v1/trace/{id} on bbproxy gathers the ops from its own ring and
// every backend's and returns them as a containment tree (the serve
// dispatch nested under the proxy forward that caused it; wire TRACE
// message, HELLO v3). cmd/bbdoctor analyzes a bundle offline — or a
// live daemon over the same surfaces — rendering the violation
// timeline and assembled traces and exiting non-zero on violations,
// which is what CI gates on; see the README's Postmortem diagnostics
// section.
//
// # The two engines
//
// Every run executes on one of two placement engines (see Engine,
// WithEngine). EngineNaive simulates the rejection loops literally:
// one RNG draw and one load probe per sampled bin, over per-bin state.
// EngineFast — the default — simulates the same processes in O(1)
// amortized per ball: the number of rejected samples for a ball is
// drawn from the exact Geometric distribution implied by the current
// load histogram, and the accepted bin from a single bounded draw over
// the acceptable set, so the joint law of every observable (chosen
// bins, Samples, MaxLoad, Gap, Ψ, Φ) is exactly that of the naive
// loop; only the way the seed's random stream is consumed differs.
// When no per-ball snapshot observer is attached, the fast engine
// additionally runs histogram-only (O(#levels) working set instead of
// O(n)) and materializes the final per-bin loads once at the end — the
// protocols are symmetric under bin relabeling, so that materialized
// vector again has exactly the naive distribution. See README.md for
// the per-protocol complexity table and measured speedups; the naive
// engine remains selectable as the reference oracle, and the
// equivalence of the two is enforced by chi-square tests in
// internal/protocol.
//
// # Quick start
//
//	res := ballsbins.Run(ballsbins.Adaptive(), 1000, 100_000,
//		ballsbins.WithSeed(42))
//	fmt.Println(res.SamplesPerBall, res.MaxLoad, res.Gap)
//
// Replicated experiments with confidence intervals:
//
//	sum, err := ballsbins.Replicates(ctx, ballsbins.Threshold(),
//		10_000, 1_000_000, 100, ballsbins.WithSeed(1))
//
// # Beyond the sequential protocols
//
// The package also exposes the paper's wider context: a round-
// synchronous parallel allocation engine in the model of Adler et al.
// and Lenzen–Wattenhofer (LenzenWattenhofer, AdlerCollision,
// HeavyParallel), the self-balancing reallocation baseline of
// Czumaj–Riley–Scheideler (SelfBalance), and a d-ary bucketed cuckoo
// hash table (NewCuckoo) for the hashing application domain.
//
// Everything is deterministic under a seed, uses only the standard
// library, and is exercised by the benchmark harness in bench_test.go,
// one benchmark per table/figure of the paper (see EXPERIMENTS.md).
package ballsbins
