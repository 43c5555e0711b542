// Package load is the scenario-driven workload generator behind
// cmd/bbload. It drives a daemon through the client bbproxy uses for
// its backends, a cluster.Backend — a dispatch core or a whole
// routing tier in process, or a remote bbserved or bbproxy over HTTP
// or the wire protocol — in two classical modes:
//
//   - Open loop: arrivals are a Poisson process at a configured rate,
//     independent of how fast the target responds (the honest way to
//     measure latency under load), and every placed ball departs after
//     an exponential or lognormal service time — the continuous-time
//     "supermarket model" regime of Luczak–McDiarmid, where the
//     adaptive protocol's live-count rule is exercised by genuine
//     churn rather than a fixed horizon.
//
//   - Closed loop: a fixed number of workers issue place+remove cycles
//     back to back, measuring the target's saturation throughput.
//
// Scenarios shape the arrival process over the run: steady churn, a
// linear ramp, a flash crowd (rate spike in the middle), and skewed
// arrivals (Zipf-distributed bulk sizes, so a few arrivals carry many
// balls). Latencies are recorded in log-bucketed histograms
// (internal/hdrhist) and summarized as p50/p90/p99/p999.
package load

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/hdrhist"
	"repro/internal/obs"
	"repro/internal/serve"
)

// BackendKiller is implemented by targets that can abruptly kill one
// of their backends mid-run (the in-proc ClusterTarget) — the
// membership-kill scenario's trigger. It returns the killed slot.
type BackendKiller interface {
	KillBackend() int
}

// ProxyRestarter is implemented by targets that can crash and restart
// their routing tier mid-run from durable state (the in-proc
// ClusterTarget with a DataDir) — the restart scenario's trigger. It
// reports the recovery replay time and the number of key assignments
// reconstructed.
type ProxyRestarter interface {
	RestartProxy() (recoveryMs int64, recovered int64, err error)
}

// Phase is one segment of a scenario: for Frac of the run's duration,
// arrivals come at Rate times the configured base rate. Hot > 0
// redirects that fraction of the phase's keyed arrivals to one
// designated hot key (the hot-key flash). Phases describe the
// open-loop arrival process; closed-loop runs have none, so both
// Rate and Hot shaping are ignored there (a closed keyed-flash
// measures plain keyed saturation).
type Phase struct {
	Frac float64 `json:"frac"`
	Rate float64 `json:"rate"`
	Hot  float64 `json:"hot,omitempty"`
}

// Scenario shapes the arrival process of an open-loop run.
type Scenario struct {
	Name   string  `json:"name"`
	Phases []Phase `json:"phases"`
	// BatchZipfS > 0 draws each arrival's bulk size from a Zipf(s)
	// distribution on [1, BatchMax] (skewed arrivals); the arrival
	// event rate is scaled down by the mean bulk size so the offered
	// ball rate still matches the configured rate.
	BatchZipfS float64 `json:"batch_zipf_s,omitempty"`
	BatchMax   int     `json:"batch_max,omitempty"`

	// Keyed runs the scenario through the keyed placement API: every
	// arrival is one ball for a key drawn Zipf(KeyZipfS) over a space
	// of KeySpace keys from its own seedable stream, and its departure
	// releases that key's ball.
	Keyed    bool    `json:"keyed,omitempty"`
	KeyZipfS float64 `json:"key_zipf_s,omitempty"` // default 1.2 (must be > 1)
	KeySpace int     `json:"key_space,omitempty"`  // default 1024
	// KeyChurnRotations > 0 rotates the key space that many times over
	// the run: fresh keys keep arriving while earlier ones go idle —
	// the key-churn regime (affinity under arrival/departure of the
	// keys themselves, not just their balls).
	KeyChurnRotations int `json:"key_churn_rotations,omitempty"`
	// KillBackendFrac > 0 kills one backend at that fraction of the
	// run, when the target supports it (membership-kill scenarios).
	KillBackendFrac float64 `json:"kill_backend_frac,omitempty"`
	// RestartProxyFrac > 0 crash-restarts the routing tier from its
	// durable state at that fraction of the run, when the target
	// supports it (WAL recovery scenarios).
	RestartProxyFrac float64 `json:"restart_proxy_frac,omitempty"`
}

// Steady is constant-rate churn for the whole run.
func Steady() Scenario {
	return Scenario{Name: "steady", Phases: []Phase{{1, 1, 0}}}
}

// Ramp steps the rate from 20% to 100% in five equal phases.
func Ramp() Scenario {
	return Scenario{Name: "ramp", Phases: []Phase{
		{0.2, 0.2, 0}, {0.2, 0.4, 0}, {0.2, 0.6, 0}, {0.2, 0.8, 0}, {0.2, 1, 0},
	}}
}

// Flash is a flash crowd: baseline at half rate, with the middle fifth
// of the run spiking to three times the base rate.
func Flash() Scenario {
	return Scenario{Name: "flash", Phases: []Phase{
		{0.4, 0.5, 0}, {0.2, 3, 0}, {0.4, 0.5, 0},
	}}
}

// Skew keeps a steady offered ball rate but delivers it in
// Zipf-distributed bulks of up to 32, so a few arrivals are heavy.
func Skew() Scenario {
	return Scenario{
		Name:   "skew",
		Phases: []Phase{{1, 1, 0}},
		// s = 1.5 over [1,32]: most arrivals are single balls, the
		// occasional one carries tens.
		BatchZipfS: 1.5,
		BatchMax:   32,
	}
}

// KeyedSteady is steady keyed churn: one ball per arrival for a
// Zipf-popular key, departing after its service time.
func KeyedSteady() Scenario {
	return Scenario{Name: "keyed", Phases: []Phase{{1, 1, 0}},
		Keyed: true, KeyZipfS: 1.2, KeySpace: 1024}
}

// KeyedFlash is the hot-key flash: steady keyed traffic, with the
// middle fifth of the run sending 30% of arrivals (at 1.5× rate) to
// one single key — the workload hot-key splitting exists for.
func KeyedFlash() Scenario {
	return Scenario{Name: "keyed-flash", Phases: []Phase{
		{0.4, 1, 0}, {0.2, 1.5, 0.3}, {0.4, 1, 0},
	}, Keyed: true, KeyZipfS: 1.2, KeySpace: 1024}
}

// KeyedChurn rotates the key space four times over the run: keys
// themselves arrive and depart, exercising assignment-table turnover
// under sustained traffic.
func KeyedChurn() Scenario {
	return Scenario{Name: "keyed-churn", Phases: []Phase{{1, 1, 0}},
		Keyed: true, KeyZipfS: 1.2, KeySpace: 1024, KeyChurnRotations: 4}
}

// KeyedKill is keyed steady traffic with one backend killed at the
// run's midpoint (targets implementing BackendKiller; a no-op
// otherwise) — the membership-kill disruption scenario.
func KeyedKill() Scenario {
	return Scenario{Name: "keyed-kill", Phases: []Phase{{1, 1, 0}},
		Keyed: true, KeyZipfS: 1.2, KeySpace: 1024, KillBackendFrac: 0.5}
}

// KeyedRestart is keyed steady traffic with the routing tier
// crash-restarted from its WAL at the run's midpoint (targets
// implementing ProxyRestarter; a no-op otherwise) — the durability
// disruption scenario: affinity should survive the restart.
func KeyedRestart() Scenario {
	return Scenario{Name: "keyed-restart", Phases: []Phase{{1, 1, 0}},
		Keyed: true, KeyZipfS: 1.2, KeySpace: 1024, RestartProxyFrac: 0.5}
}

// Scenarios lists the preset names ByName accepts.
func Scenarios() []string {
	return []string{"steady", "ramp", "flash", "skew", "keyed", "keyed-flash", "keyed-churn", "keyed-kill", "keyed-restart"}
}

// ByName resolves a scenario preset.
func ByName(name string) (Scenario, error) {
	switch strings.ToLower(name) {
	case "steady":
		return Steady(), nil
	case "ramp":
		return Ramp(), nil
	case "flash":
		return Flash(), nil
	case "skew":
		return Skew(), nil
	case "keyed", "keyed-steady":
		return KeyedSteady(), nil
	case "keyed-flash":
		return KeyedFlash(), nil
	case "keyed-churn":
		return KeyedChurn(), nil
	case "keyed-kill":
		return KeyedKill(), nil
	case "keyed-restart":
		return KeyedRestart(), nil
	default:
		return Scenario{}, fmt.Errorf("unknown scenario %q (want one of %s)",
			name, strings.Join(Scenarios(), ", "))
	}
}

// Config parameterizes one generator run.
type Config struct {
	Scenario Scenario
	// Mode is "open" or "closed".
	Mode string
	// Rate is the open-loop offered ball rate per second at phase
	// multiplier 1.
	Rate float64
	// Workers is the closed-loop concurrency.
	Workers int
	// Duration is the measurement window (arrival window in open
	// loop).
	Duration time.Duration
	// ServiceMean and ServiceDist ("exp" or "lognormal", σ = 1) shape
	// open-loop departure times.
	ServiceMean time.Duration
	ServiceDist string
	Seed        int64
}

// maxOutstanding caps concurrent open-loop operations; arrivals beyond
// it are shed (counted in Result.Shed) rather than queued, preserving
// open-loop semantics under saturation.
const maxOutstanding = 16384

// Result is one generator run's measurements — the per-case record of
// the bbserve/v1 BENCH schema.
type Result struct {
	Scenario    string  `json:"scenario"`
	Mode        string  `json:"mode"`
	Target      string  `json:"target"`
	Protocol    string  `json:"protocol,omitempty"`
	N           int     `json:"n,omitempty"`
	Shards      int     `json:"shards,omitempty"`
	RatePerSec  float64 `json:"rate_per_sec,omitempty"`
	Workers     int     `json:"workers,omitempty"`
	DurationSec float64 `json:"duration_sec"`
	ServiceMs   float64 `json:"service_mean_ms,omitempty"`
	ServiceDist string  `json:"service_dist,omitempty"`

	Placed  int64 `json:"placed"`
	Removed int64 `json:"removed"`
	Shed    int64 `json:"shed"`
	// Errors = PlaceErrors + RemoveErrors. The split matters for
	// cluster runs: a dying backend strands its balls, so their
	// departures fail (RemoveErrors), while placements should ride
	// failover without a single client-visible error (PlaceErrors 0).
	Errors       int64 `json:"errors"`
	PlaceErrors  int64 `json:"place_errors"`
	RemoveErrors int64 `json:"remove_errors"`
	// ThroughputPerSec is placed balls per second of the measurement
	// window.
	ThroughputPerSec float64 `json:"throughput_per_sec"`

	PlaceLatencyNs  serve.Latency `json:"place_latency_ns"`
	RemoveLatencyNs serve.Latency `json:"remove_latency_ns"`

	// WorkerErrors breaks Errors down per closed-loop worker (index =
	// worker id), so a run where one worker's connection went bad is
	// distinguishable from uniform failure — without it, partial
	// failure hides inside the total and cluster runs are unauditable.
	WorkerErrors []int64 `json:"worker_errors,omitempty"`

	// End-of-run serving state, when the target can report it.
	FinalBalls   int64 `json:"final_balls,omitempty"`
	FinalMaxLoad int   `json:"final_max_load,omitempty"`
	FinalGap     int   `json:"final_gap,omitempty"`

	// Transport columns, stamped for network targets: which transport
	// carried the run ("http" or "wire" — empty for in-proc targets,
	// which discriminates these cases), the client-side coalescing
	// factor (requests per socket write; 1 by definition for HTTP),
	// and measured socket bytes per operation. No omitempty on the
	// numerics — Transport tells real zeros from missing data.
	Transport        string  `json:"transport,omitempty"`
	ClientCoalescing float64 `json:"client_coalescing_factor"`
	ClientBytesPerOp float64 `json:"client_bytes_per_op"`

	// Cluster-mode fields, stamped when the target fronts a routing
	// tier: the policy that routed, the backend count, the end-of-run
	// cross-backend ball gap (the routing tier's headline balance
	// metric), and the probes each routing decision cost. Policy and
	// Backends discriminate cluster cases; the metrics deliberately
	// have no omitempty — a gap of 0 is a perfect-balance result, not
	// missing data (non-cluster cases serialize them as zeros; check
	// Policy to tell the two apart).
	Policy          string  `json:"policy,omitempty"`
	Backends        int     `json:"backends,omitempty"`
	HealthyBackends int     `json:"healthy_backends"`
	ClusterGap      int64   `json:"cluster_gap"`
	MaxBackendBalls int64   `json:"max_backend_balls"`
	ProbesPerPick   float64 `json:"probes_per_pick"`
	Failovers       int64   `json:"failovers"`

	// Keyed-tier fields (the bbkeyed/v1 schema additions), stamped for
	// keyed scenarios from the target's keyed stats block. Like the
	// cluster metrics, the counters carry no omitempty — zero moved
	// keys or a zero hit rate is a measurement, not missing data
	// (KeyedPolicy discriminates keyed cases).
	KeyedPolicy     string  `json:"keyed_policy,omitempty"`
	KeySpace        int     `json:"key_space,omitempty"`
	KeyZipfS        float64 `json:"key_zipf_s,omitempty"`
	Keys            int64   `json:"keys"`
	HotKeys         int64   `json:"hot_keys"`
	AffinityHitRate float64 `json:"affinity_hit_rate"`
	KeysMoved       int64   `json:"keys_moved"`
	KeysShed        int64   `json:"keys_shed"`
	MaxKeyLoad      int64   `json:"max_key_load"`
	// KilledBackend is the slot killed mid-run, -1 when no kill fired
	// (slot 0 is a valid victim, so absence cannot mean "none").
	KilledBackend int `json:"killed_backend"`

	// Restart-scenario fields, stamped when a mid-run proxy
	// crash-restart fired: the WAL recovery replay time, the key
	// assignments reconstructed from snapshot + journal, and the
	// affinity hit rate measured after the restart (the restored
	// KeyMap's counters start at zero, so the end-of-run hit rate
	// covers exactly the post-restart window). ProxyRestarted
	// discriminates: a recovery of 0ms/0 keys is a measurement on a
	// restart run, absent data otherwise.
	ProxyRestarted             bool    `json:"proxy_restarted,omitempty"`
	RecoveryMs                 int64   `json:"recovery_ms"`
	AssignmentsRecovered       int64   `json:"assignments_recovered"`
	AffinityHitRatePostRestart float64 `json:"affinity_hit_rate_post_restart"`

	// Observability columns: the run's top-10 slowest client-timed
	// operations joined against the target's trace ring (SlowOps, when
	// the target exposes one), and the server's per-stage p99 latency
	// decomposition (queue/apply on a bbserved, probe/forward on a
	// bbproxy).
	SlowOps    []SlowOp         `json:"slow_ops,omitempty"`
	StageP99Ns map[string]int64 `json:"stage_p99_ns,omitempty"`

	// Watchdog columns, stamped when the target runs the invariant
	// watchdog: the server's gap-over-time series for the run and the
	// cumulative bound-violation count at run end. Violations carries no
	// omitempty — on a watched run, 0 is the acceptance result (every
	// paper bound held), not missing data (GapOverTime being non-empty
	// discriminates watched runs).
	GapOverTime []GapPoint `json:"gap_over_time,omitempty"`
	Violations  int64      `json:"violations"`
}

// Run executes one generator run against the target.
func Run(ctx context.Context, cfg Config, target cluster.Backend) (Result, error) {
	if cfg.Duration <= 0 {
		return Result{}, fmt.Errorf("load: duration must be positive")
	}
	if len(cfg.Scenario.Phases) == 0 {
		cfg.Scenario = Steady()
	}
	if s := cfg.Scenario.BatchZipfS; s > 0 && s <= 1 {
		// rand.NewZipf needs s > 1 (it returns nil otherwise).
		return Result{}, fmt.Errorf("load: scenario %q: BatchZipfS must be > 1, got %v",
			cfg.Scenario.Name, s)
	}
	if cfg.Scenario.Keyed {
		if cfg.Scenario.KeyZipfS == 0 {
			cfg.Scenario.KeyZipfS = 1.2
		}
		if cfg.Scenario.KeySpace <= 0 {
			cfg.Scenario.KeySpace = 1024
		}
		if s := cfg.Scenario.KeyZipfS; s <= 1 {
			return Result{}, fmt.Errorf("load: scenario %q: KeyZipfS must be > 1, got %v",
				cfg.Scenario.Name, s)
		}
	}
	var killed atomic.Int64
	killed.Store(-1)
	if f := cfg.Scenario.KillBackendFrac; f > 0 && f < 1 {
		if bk, ok := target.(BackendKiller); ok {
			tm := time.AfterFunc(time.Duration(f*float64(cfg.Duration)), func() {
				killed.Store(int64(bk.KillBackend()))
			})
			defer tm.Stop()
		}
	}
	var restarted atomic.Bool
	var recoveryMs, recovered atomic.Int64
	if f := cfg.Scenario.RestartProxyFrac; f > 0 && f < 1 {
		if pr, ok := target.(ProxyRestarter); ok {
			tm := time.AfterFunc(time.Duration(f*float64(cfg.Duration)), func() {
				if ms, n, rerr := pr.RestartProxy(); rerr == nil {
					recoveryMs.Store(ms)
					recovered.Store(n)
					restarted.Store(true)
				}
			})
			defer tm.Stop()
		}
	}
	slow := &slowTracker{}
	var res Result
	var err error
	switch cfg.Mode {
	case "open":
		if cfg.Rate <= 0 {
			return Result{}, fmt.Errorf("load: open loop needs a positive rate")
		}
		if cfg.ServiceMean <= 0 {
			return Result{}, fmt.Errorf("load: open loop needs a positive service mean")
		}
		res, err = runOpen(ctx, cfg, target, slow)
	case "closed":
		if cfg.Workers <= 0 {
			return Result{}, fmt.Errorf("load: closed loop needs workers > 0")
		}
		res, err = runClosed(ctx, cfg, target, slow)
	default:
		return Result{}, fmt.Errorf("load: unknown mode %q (want open or closed)", cfg.Mode)
	}
	if err != nil {
		return res, err
	}
	res.KilledBackend = int(killed.Load())
	if sc := cfg.Scenario; sc.Keyed {
		res.KeySpace = sc.KeySpace
		res.KeyZipfS = sc.KeyZipfS
	}
	if restarted.Load() {
		res.ProxyRestarted = true
		res.RecoveryMs = recoveryMs.Load()
		res.AssignmentsRecovered = recovered.Load()
	}
	if rb, ok := target.(cluster.ReportBackend); ok {
		stamp(ctx, &res, cfg.Scenario, rb)
	}
	res.SlowOps = slow.join(ctx, target)
	return res, nil
}

// stamp fills the end-of-run columns from the target's reports. The
// transport counters are read first, so the report reads do not count
// toward the run's bytes per operation.
func stamp(ctx context.Context, res *Result, sc Scenario, rb cluster.ReportBackend) {
	if ts := rb.Transport(); ts.Transport != "" {
		res.Transport = ts.Transport
		res.ClientCoalescing = ts.CoalescingFactor
		res.ClientBytesPerOp = ts.BytesPerOp
	}
	if doc, err := rb.StatsDoc(ctx); err == nil {
		res.FinalBalls = doc.Balls
		res.FinalMaxLoad = doc.MaxLoad
		res.FinalGap = doc.Gap
		if cs := doc.Cluster; doc.IsProxy() {
			res.Policy = cs.Policy
			res.Backends = cs.Backends
			res.HealthyBackends = cs.Healthy
			res.ClusterGap = cs.BackendGap
			res.MaxBackendBalls = cs.MaxBackendBalls
			res.ProbesPerPick = cs.ProbesPerPick
			res.Failovers = cs.Failovers
		}
		if ks, _ := doc.KeyedBlocks(); sc.Keyed && ks != nil {
			res.KeyedPolicy = ks.Policy
			res.Keys = ks.Keys
			res.HotKeys = ks.HotKeys
			res.AffinityHitRate = ks.AffinityHitRate
			res.KeysMoved = ks.MovedKeys
			res.KeysShed = ks.ShedKeys
			res.MaxKeyLoad = ks.MaxKeyLoad
		}
		if res.ProxyRestarted {
			res.AffinityHitRatePostRestart = res.AffinityHitRate
		}
		res.StageP99Ns = stageP99(doc.Obs)
	}
	if doc, err := rb.Timeseries(ctx, 0); err == nil && doc.Hop != "" {
		res.GapOverTime = gapSeries(doc)
		res.Violations = doc.ViolationsTotal
	}
}

// sampler draws inter-arrival gaps, service times and bulk sizes. It
// is used only by the single scheduler goroutine, so a plain rand.Rand
// suffices.
type sampler struct {
	rng      *rand.Rand
	zipf     *rand.Zipf
	sigma    float64
	logNorm  bool
	mean     float64 // service mean in seconds
	meanBulk float64

	// Key-popularity stream for keyed scenarios: its own seeded
	// generator (cfg.Seed+2), so key draws are reproducible and
	// independent of arrival timing draws.
	keyRng   *rand.Rand
	keyZipf  *rand.Zipf
	keySpace int
	churn    int
}

func newSampler(cfg Config) *sampler {
	s := &sampler{
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		logNorm:  cfg.ServiceDist == "lognormal",
		sigma:    1,
		mean:     cfg.ServiceMean.Seconds(),
		meanBulk: 1,
	}
	if sc := cfg.Scenario; sc.BatchZipfS > 0 {
		max := sc.BatchMax
		if max < 2 {
			max = 32
		}
		s.zipf = rand.NewZipf(s.rng, sc.BatchZipfS, 1, uint64(max-1))
		// Estimate the mean bulk size empirically so the offered ball
		// rate can be held at the configured value.
		probe := rand.NewZipf(rand.New(rand.NewSource(cfg.Seed+1)), sc.BatchZipfS, 1, uint64(max-1))
		var sum float64
		const probes = 20000
		for i := 0; i < probes; i++ {
			sum += float64(probe.Uint64() + 1)
		}
		s.meanBulk = sum / probes
	}
	if sc := cfg.Scenario; sc.Keyed {
		s.keyRng = rand.New(rand.NewSource(cfg.Seed + 2))
		s.keyZipf = rand.NewZipf(s.keyRng, sc.KeyZipfS, 1, uint64(sc.KeySpace-1))
		s.keySpace = sc.KeySpace
		s.churn = sc.KeyChurnRotations
	}
	return s
}

// key draws the next arrival's key: the designated hot key with
// probability hot, otherwise a Zipf-popular key id — shifted by the
// churn epoch (frac = elapsed fraction of the run) so the key space
// rotates KeyChurnRotations times over the run.
func (s *sampler) key(frac, hot float64) string {
	if s.keyZipf == nil {
		return ""
	}
	if hot > 0 && s.keyRng.Float64() < hot {
		return "hot"
	}
	id := int(s.keyZipf.Uint64())
	if s.churn > 0 {
		epoch := int(frac * float64(s.churn))
		id += epoch * s.keySpace
	}
	return "k" + strconv.Itoa(id)
}

// gap returns the next Poisson inter-arrival time for arrival events
// at ballRate balls/sec (scaled by the mean bulk size).
func (s *sampler) gap(ballRate float64) time.Duration {
	eventRate := ballRate / s.meanBulk
	return time.Duration(s.rng.ExpFloat64() / eventRate * float64(time.Second))
}

// bulk returns the next arrival's ball count.
func (s *sampler) bulk() int {
	if s.zipf == nil {
		return 1
	}
	return int(s.zipf.Uint64()) + 1
}

// service returns a departure delay with the configured mean:
// exponential, or lognormal with σ=1 (same mean, heavier tail).
func (s *sampler) service() time.Duration {
	var x float64
	if s.logNorm {
		mu := math.Log(s.mean) - s.sigma*s.sigma/2
		x = math.Exp(mu + s.sigma*s.rng.NormFloat64())
	} else {
		x = s.rng.ExpFloat64() * s.mean
	}
	return time.Duration(x * float64(time.Second))
}

func runOpen(ctx context.Context, cfg Config, target cluster.Backend, slow *slowTracker) (Result, error) {
	smp := newSampler(cfg)
	placeHist, removeHist := hdrhist.New(), hdrhist.New()
	var placed, removed, shed, placeErrs, removeErrs atomic.Int64
	var outstanding atomic.Int64

	// sleepCtx is cancelled at the drain cutoff. It interrupts ONLY the
	// departure sleeps still pending then — an admitted place or an
	// elapsed departure's remove always runs to completion against the
	// caller's ctx, so no operation is abandoned mid-flight (an HTTP
	// request cancelled mid-flight leaves the client unsure whether the
	// ball was committed, which would break the books) and every error
	// counted is a real target failure.
	grace := 2 * cfg.ServiceMean
	if grace < 250*time.Millisecond {
		grace = 250 * time.Millisecond
	}
	if grace > 5*time.Second {
		grace = 5 * time.Second
	}
	sleepCtx, cancelSleeps := context.WithCancel(ctx)
	defer cancelSleeps()

	var wg sync.WaitGroup
	depart := func(bin int, key string, after time.Duration) {
		defer wg.Done()
		select {
		case <-time.After(after):
		case <-sleepCtx.Done():
			return // departure abandoned at drain; the ball stays live
		}
		// Every op carries a freshly minted trace id so its server-side
		// spans (if the server samples or tail-captures it) are joinable
		// with the client-observed latency in the slow_ops table.
		trace := obs.NewTraceID()
		opCtx := obs.WithTrace(ctx, trace)
		t0 := time.Now()
		var err error
		if key != "" {
			err = target.RemoveKey(opCtx, bin, key)
		} else {
			err = target.Remove(opCtx, bin)
		}
		if err != nil {
			removeErrs.Add(1)
			return
		}
		el := time.Since(t0)
		removeHist.Record(el.Nanoseconds())
		slow.note(trace, "remove", el.Nanoseconds())
		removed.Add(1)
	}
	arrive := func(bulk int, key string, services []time.Duration) {
		defer wg.Done()
		defer outstanding.Add(-1)
		trace := obs.NewTraceID()
		opCtx := obs.WithTrace(ctx, trace)
		t0 := time.Now()
		var bins []int
		var err error
		if key != "" {
			bins, _, err = target.PlaceKey(opCtx, key)
		} else {
			bins, _, err = target.Place(opCtx, bulk)
		}
		if err != nil {
			placeErrs.Add(1)
			return
		}
		el := time.Since(t0)
		placeHist.Record(el.Nanoseconds())
		slow.note(trace, "place", el.Nanoseconds())
		placed.Add(int64(len(bins)))
		for i, bin := range bins {
			wg.Add(1)
			go depart(bin, key, services[i])
		}
	}

	start := time.Now()
	deadlinePhases := time.Duration(0)
	for _, ph := range cfg.Scenario.Phases {
		phaseEnd := deadlinePhases + time.Duration(ph.Frac*float64(cfg.Duration))
		deadlinePhases = phaseEnd
		rate := cfg.Rate * ph.Rate
		if rate <= 0 {
			// Idle phase: just wait it out.
			select {
			case <-time.After(phaseEnd - time.Since(start)):
			case <-ctx.Done():
				return Result{}, ctx.Err()
			}
			continue
		}
		next := time.Since(start)
		for {
			next += smp.gap(rate)
			if next >= phaseEnd {
				break
			}
			if sleep := next - time.Since(start); sleep > 0 {
				select {
				case <-time.After(sleep):
				case <-ctx.Done():
					return Result{}, ctx.Err()
				}
			}
			bulk := 1
			var key string
			if cfg.Scenario.Keyed {
				// A keyed arrival is one ball for one key (the API
				// refuses keyed bulks); the key draw happens here, on
				// the single scheduler goroutine, so the key sequence
				// is a deterministic function of the seed.
				key = smp.key(float64(time.Since(start))/float64(cfg.Duration), ph.Hot)
			} else {
				bulk = smp.bulk()
			}
			services := make([]time.Duration, bulk)
			for i := range services {
				services[i] = smp.service()
			}
			if outstanding.Load() >= maxOutstanding {
				shed.Add(int64(bulk))
				continue
			}
			outstanding.Add(1)
			wg.Add(1)
			go arrive(bulk, key, services)
		}
		if sleep := phaseEnd - time.Since(start); sleep > 0 {
			select {
			case <-time.After(sleep):
			case <-ctx.Done():
				return Result{}, ctx.Err()
			}
		}
	}
	window := time.Since(start)

	// Drain: near-term departures get the grace period to fire, then
	// pending sleeps are cut and the remaining in-flight operations
	// run to completion.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(grace):
		cancelSleeps()
		<-done
	}

	res := describe(cfg, "open")
	res.DurationSec = window.Seconds()
	res.Placed = placed.Load()
	res.Removed = removed.Load()
	res.Shed = shed.Load()
	res.PlaceErrors = placeErrs.Load()
	res.RemoveErrors = removeErrs.Load()
	res.Errors = res.PlaceErrors + res.RemoveErrors
	res.ThroughputPerSec = float64(res.Placed) / window.Seconds()
	res.PlaceLatencyNs = serve.LatencySummary(placeHist.Snapshot())
	res.RemoveLatencyNs = serve.LatencySummary(removeHist.Snapshot())
	return res, nil
}

func runClosed(ctx context.Context, cfg Config, target cluster.Backend, slow *slowTracker) (Result, error) {
	placeHist, removeHist := hdrhist.New(), hdrhist.New()
	var placed, removed, placeErrs, removeErrs atomic.Int64
	// Errors are accounted per worker (each owns its slot; read after
	// Wait), so a single bad worker is visible in the envelope instead
	// of hiding inside a total.
	workerErrs := make([]int64, cfg.Workers)
	runCtx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each keyed worker draws from its own seeded key stream, so
			// runs are reproducible regardless of scheduling. Key churn
			// applies here too: the key space rotates with elapsed time.
			var keys *rand.Zipf
			if sc := cfg.Scenario; sc.Keyed {
				keys = rand.NewZipf(rand.New(rand.NewSource(cfg.Seed+100+int64(w))),
					sc.KeyZipfS, 1, uint64(sc.KeySpace-1))
			}
			for runCtx.Err() == nil {
				var key string
				if keys != nil {
					id := int(keys.Uint64())
					if rot := cfg.Scenario.KeyChurnRotations; rot > 0 {
						frac := float64(time.Since(start)) / float64(cfg.Duration)
						if frac > 1 {
							frac = 1
						}
						id += int(frac*float64(rot)) * cfg.Scenario.KeySpace
					}
					key = "k" + strconv.Itoa(id)
				}
				trace := obs.NewTraceID()
				opCtx := obs.WithTrace(runCtx, trace)
				t0 := time.Now()
				var bins []int
				var err error
				if key != "" {
					bins, _, err = target.PlaceKey(opCtx, key)
				} else {
					bins, _, err = target.Place(opCtx, 1)
				}
				if err != nil {
					if runCtx.Err() == nil {
						// Transient failure: count it and keep
						// measuring — a worker that quits would
						// silently deflate the saturation throughput
						// for the rest of the run. Back off briefly so
						// a hard-down target doesn't spin.
						workerErrs[w]++
						placeErrs.Add(1)
						time.Sleep(time.Millisecond)
					}
					continue
				}
				el := time.Since(t0)
				placeHist.Record(el.Nanoseconds())
				slow.note(trace, "place", el.Nanoseconds())
				placed.Add(1)
				t1 := time.Now()
				// The pair is the unit of work: finish the remove even
				// if the deadline landed mid-cycle, so the run ends
				// with the target drained back to empty.
				var rerr error
				if key != "" {
					rerr = target.RemoveKey(context.Background(), bins[0], key)
				} else {
					rerr = target.Remove(context.Background(), bins[0])
				}
				if err := rerr; err != nil {
					workerErrs[w]++
					removeErrs.Add(1)
					time.Sleep(time.Millisecond)
					continue
				}
				removeHist.RecordSince(t1)
				removed.Add(1)
			}
		}(w)
	}
	wg.Wait()
	window := time.Since(start)
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}

	res := describe(cfg, "closed")
	res.DurationSec = window.Seconds()
	res.Placed = placed.Load()
	res.Removed = removed.Load()
	res.WorkerErrors = workerErrs
	res.PlaceErrors = placeErrs.Load()
	res.RemoveErrors = removeErrs.Load()
	for _, e := range workerErrs {
		res.Errors += e
	}
	res.ThroughputPerSec = float64(res.Placed) / window.Seconds()
	res.PlaceLatencyNs = serve.LatencySummary(placeHist.Snapshot())
	res.RemoveLatencyNs = serve.LatencySummary(removeHist.Snapshot())
	return res, nil
}

func describe(cfg Config, mode string) Result {
	res := Result{
		Scenario: cfg.Scenario.Name,
		Mode:     mode,
	}
	if mode == "open" {
		res.RatePerSec = cfg.Rate
		res.ServiceMs = float64(cfg.ServiceMean) / float64(time.Millisecond)
		res.ServiceDist = cfg.ServiceDist
		if res.ServiceDist == "" {
			res.ServiceDist = "exp"
		}
	} else {
		res.Workers = cfg.Workers
	}
	return res
}
