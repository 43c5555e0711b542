package bench

import (
	"cmp"
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	ballsbins "repro"
	"repro/internal/cluster"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/wire"
)

// scale holds every size a workload runs at. full is the benchmark;
// tiny is the smoke-test scale.
type scale struct {
	warmup      time.Duration
	simN        int
	simM        int64
	simSetupN   int // bins (and balls) of sim's cold set-up Run
	churnN      int
	clusterN    int // bins per backend
	clusterLive int // live balls cluster-wire keeps
	keyedLive   int // live balls keyed-http keeps
	keys        int
	epoch       int // keyed placements per key-space epoch, per worker
	rungBudget  time.Duration
}

var (
	full = scale{
		warmup: 3 * time.Second, simN: 10_000, simM: 100_000, simSetupN: 1_000_000,
		churnN: 65536, clusterN: 1024, clusterLive: 16384, keyedLive: 2400, keys: 4096,
		epoch: 5000, rungBudget: 200 * time.Millisecond,
	}
	tiny = scale{
		warmup: 100 * time.Millisecond, simN: 1000, simM: 20_000, simSetupN: 1000,
		churnN: 1024, clusterN: 64, clusterLive: 1024, keyedLive: 256, keys: 256,
		epoch: 200, rungBudget: 5 * time.Millisecond,
	}
)

// phase is one measured pass of a workload on a fresh stack.
type phase struct {
	o      Options
	sc     scale
	seed   uint64
	window time.Duration
	setups int
	tr     *Tracer // nil: untraced
	res    *Result
	m      map[string]float64
	gate   sync.RWMutex // see meter.gate
}

func (p *phase) check(name string, ok bool, format string, args ...any) {
	if p.tr != nil {
		name = "traced_" + name
	}
	p.res.check(name, ok, fmt.Sprintf(format, args...))
}

// workload is one benchmark workload. layers names the layer each span
// level's self time belongs to; traceEvery is the traced run's span
// sampling (one request in traceEvery); rungN is the allocator size the
// cost ladder runs at.
type workload struct {
	run        func(p *phase) error
	layers     [nLevels]string
	traceEvery uint64
	rungN      func(sc scale) int
	keyedBins  int
}

var workloadTable = map[string]workload{
	"sim": {runSim, [nLevels]string{"engine"}, 1,
		func(sc scale) int { return sc.simN }, 8},
	"serve-churn": {runChurn, [nLevels]string{"serve_dispatch"}, 32,
		func(sc scale) int { return sc.churnN }, 8},
	"cluster-wire": {func(p *phase) error { return runNet(p, false) },
		[nLevels]string{"wire_front_hop", "proxy_self", "wire_backend_hop", "serve_dispatch"}, 1,
		func(sc scale) int { return sc.clusterN }, 4},
	"keyed-http": {func(p *phase) error { return runNet(p, true) },
		[nLevels]string{"http_front_hop", "proxy_self", "wire_backend_hop", "serve_dispatch"}, 1,
		func(sc scale) int { return sc.clusterN }, 4},
}

// timeSetups calls build p.setups times, calling teardown before every
// build but the first, and returns the median build time in seconds at
// the reference speed. Each build starts after a garbage collection, so
// none pays for the garbage of the one before, and after three timings
// of the reference kernel, whose median over all builds sets the speed.
func (p *phase) timeSetups(build func() error, teardown func()) (float64, error) {
	var times, ref []float64
	for i := 0; i < p.setups; i++ {
		if i > 0 && teardown != nil {
			teardown()
		}
		runtime.GC()
		for range 3 {
			ref = append(ref, float64(refKernel()))
		}
		t := time.Now()
		if err := build(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t).Seconds())
	}
	return median(times) * speedFactor(ref), nil
}

// report fills the end-to-end metrics and the whole-run client metrics
// from one phase's measurements. The end-to-end times are scaled to the
// reference speed (speed.go); host.speed, the window's factor, goes to
// results.json only.
func (p *phase) report(st *LoopStats, r meterReading, setupS float64, loadVar float64) {
	lat := append([]float64(nil), st.Lat...)
	sort.Float64s(lat)
	ops := float64(st.WindowOps)
	p.m["setup_s"] = setupS
	p.m["req_p50_us"] = quantile(lat, 0.5) / 1e3 * r.speed
	p.m["cpu_ns_per_op"] = r.cpuPerOp * r.speed
	p.m["host.speed"] = r.speed
	p.m["alloc_bytes_per_op"] = ratio(r.allocBytes, ops)
	p.m["allocs_per_op"] = ratio(r.allocs, ops)
	p.m["heap_live_mb"] = r.heapLiveMB
	p.m["samples_per_ball"] = ratio(float64(st.WindowSamples), float64(st.WindowBalls))
	p.m["load_var"] = loadVar
	p.m["client.ops_per_s"] = ops / r.wall.Seconds()
	p.m["client.req_p90_us"] = quantile(lat, 0.9) / 1e3
	p.m["go.gc_cpu_frac"] = r.gcCPUFrac
	p.res.Attempted += st.Attempted
	p.res.Failed += st.Failed
}

// psiPerBin is the paper's quadratic potential per bin, Σ(ℓ−ℓ̄)²/n.
func psiPerBin(loads []int) float64 {
	var sum, sq float64
	for _, l := range loads {
		sum += float64(l)
		sq += float64(l) * float64(l)
	}
	n := float64(len(loads))
	mean := sum / n
	return sq/n - mean*mean
}

// snapshotsOver blocks for window, calling snap every second and once
// at the end, and returns the mean of what it returned.
func snapshotsOver(window time.Duration, snap func() float64) float64 {
	end := time.Now().Add(window)
	var sum float64
	k := 0
	for {
		time.Sleep(min(time.Second, time.Until(end)))
		sum += snap()
		k++
		if !time.Now().Before(end) {
			return sum / float64(k)
		}
	}
}

// shardedBound is the max-load bound of a ShardedAllocator over n bins
// in P shards after placed round-robin placements: ⌈⌈m/P⌉/⌊n/P⌋⌉+1.
func shardedBound(placed int64, n, shards int) int64 {
	perShard := (placed + int64(shards) - 1) / int64(shards)
	bins := int64(n / shards)
	return (perShard+bins-1)/bins + 1
}

// runSim runs ballsbins.Run, fast engine, alternating adaptive and
// threshold over three seeds, until the window is spent and both specs
// have run equally often. One client request is one Run call.
func runSim(p *phase) error {
	n, m := p.sc.simN, p.sc.simM
	setup, err := p.timeSetups(func() error {
		ballsbins.Run(ballsbins.Adaptive(), p.sc.simSetupN, int64(p.sc.simSetupN), ballsbins.WithSeed(p.seed))
		return nil
	}, nil)
	if err != nil {
		return err
	}
	specs := []ballsbins.Spec{ballsbins.Adaptive(), ballsbins.Threshold()}
	bound := ballsbins.MaxLoadGuarantee(n, m) - p.o.tighten
	var st LoopStats
	var psi float64
	var ops atomic.Int64
	worst := 0
	mt := startMeter(ops.Load, &p.gate)
	runs := 0
	for ; runs%2 == 1 || time.Since(mt.t0) < p.window; runs++ {
		id := traceID(p.seed, uint64(runs+1))
		p.gate.RLock()
		t0 := p.tr.now()
		start := time.Now()
		r := ballsbins.Run(specs[runs%2], n, m, ballsbins.WithSeed(rng.Mix(p.seed, uint64(runs/2%3))))
		st.Lat = append(st.Lat, float64(time.Since(start)))
		p.tr.record(id, lvClient, t0)
		p.gate.RUnlock()
		st.Attempted++
		ops.Add(m)
		st.WindowBalls += m
		st.WindowSamples += r.Samples
		psi += r.Psi / float64(n)
		worst = max(worst, r.MaxLoad)
	}
	rd := mt.end()
	st.WindowOps = ops.Load()
	p.check("max_load_bound", int64(worst) <= bound, "max load %d, bound ceil(m/n)+1 = %d", worst, bound)
	p.report(&st, rd, setup, psi/float64(runs))
	return nil
}

// dispatchStats sums the combiner counters and averages the queue
// share of the dispatch time at p50 over ds.
func dispatchStats(ds []*serve.Dispatcher) (reqs, batches int64, queueShare float64) {
	for _, d := range ds {
		for _, s := range d.Stats().Shards {
			reqs += s.Requests
			batches += s.Batches
		}
		st := d.Obs().StageSummaries()
		q, a := float64(st["queue"].P50Ns), float64(st["apply"].P50Ns)
		queueShare += ratio(q, q+a) / float64(len(ds))
	}
	return reqs, batches, queueShare
}

// checkBackends applies the per-dispatcher checks every serving
// workload shares: zero watchdog violations, every shard within the
// adaptive bound ⌈placed/n⌉+1 of its own traffic, and, for anonymous
// traffic, whose round-robin tickets keep the shards even, the whole
// dispatcher within the sharded bound. Keyed traffic pins balls to
// shards by key, so only the per-shard form holds for it.
func (p *phase) checkBackends(ds []*serve.Dispatcher, keyedTraffic bool) {
	var viol int64
	bad := ""
	for i, d := range ds {
		viol += d.Watch().ViolationsTotal()
		sa := d.Allocator()
		for s := 0; s < sa.Shards(); s++ {
			row := d.ShardStats(s)
			size := int64(sa.ShardSize(s))
			if bound := (row.Placed+size-1)/size + 1 - p.o.tighten; int64(row.MaxLoad) > bound && bad == "" {
				bad = fmt.Sprintf("backend %d shard %d: max load %d > %d", i, s, row.MaxLoad, bound)
			}
		}
		if keyedTraffic {
			continue
		}
		if bound := shardedBound(sa.Placed(), sa.N(), sa.Shards()) - p.o.tighten; int64(sa.MaxLoad()) > bound && bad == "" {
			bad = fmt.Sprintf("backend %d: max load %d > sharded bound %d", i, sa.MaxLoad(), bound)
		}
	}
	p.check("max_load_bound", bad == "", "%s", cmp.Or(bad, "every shard and dispatcher within its bound"))
	p.check("watchdog", viol == 0, "%d violations on the serve tier", viol)
}

// checkBooks checks that the balls placed minus the balls removed, as
// the clients saw them, equal what the workers still hold and what the
// backends report.
func (p *phase) checkBooks(prefilled int64, st *LoopStats, ds []*serve.Dispatcher) {
	var balls int64
	for _, d := range ds {
		balls += d.Allocator().Balls()
	}
	books := prefilled + st.Placed - st.Removed
	p.check("books", books == balls && int64(len(st.Live)) == books,
		"placed-removed = %d, workers hold %d, backends hold %d", books, len(st.Live), balls)
}

// dispatcherTarget drives one in-process Dispatcher with single-ball
// placements.
type dispatcherTarget struct{ d *serve.Dispatcher }

func (t dispatcherTarget) Place(ctx context.Context, key string, bulk int) ([]int, int64, error) {
	bin, samples, err := t.d.Place(ctx)
	if err != nil {
		return nil, 0, err
	}
	return []int{bin}, samples, nil
}

func (t dispatcherTarget) Remove(ctx context.Context, bin int, key string) error {
	return t.d.Remove(ctx, bin)
}

// runChurn is a closed loop of two workers on one in-process
// Dispatcher, each cycling Place then Remove of its oldest ball.
func runChurn(p *phase) error {
	n := p.sc.churnN
	var d *serve.Dispatcher
	var live []Ball
	setup, err := p.timeSetups(func() error {
		var err error
		if d, err = newDispatcher(n, p.seed); err != nil {
			return err
		}
		live = live[:0]
		for left := 8 * n; left > 0; {
			k := min(left, serve.MaxBulkPlace)
			bins, _, err := d.PlaceMany(context.Background(), k)
			if err != nil {
				return err
			}
			for _, b := range bins {
				live = append(live, Ball{Bin: b})
			}
			left -= k
		}
		return nil
	}, func() { d.Close() })
	if d != nil {
		defer d.Close()
	}
	if err != nil {
		return err
	}
	prefilled := int64(len(live))
	ds := []*serve.Dispatcher{d}
	var target Target = dispatcherTarget{d}
	if p.tr != nil {
		target = tracedTarget{Target: target, tr: p.tr}
	}

	var (
		r0, b0, r1, b1 int64
		qs, lv         float64
		rd             meterReading
	)
	loop := &ClosedLoop{Target: target, Workers: 2, Seed: p.seed, Gate: &p.gate}
	st := loop.Run(live, p.sc.warmup, func(ops func() int64) {
		r0, b0, _ = dispatchStats(ds)
		mt := startMeter(ops, &p.gate)
		lv = snapshotsOver(p.window, func() float64 { return psiPerBin(d.Allocator().Loads()) })
		rd = mt.end()
		r1, b1, qs = dispatchStats(ds)
	})
	p.report(&st, rd, setup, lv)
	p.m["serve.combining_factor"] = ratio(float64(r1-r0), float64(b1-b0))
	p.m["serve.queue_share"] = qs

	p.checkBooks(prefilled, &st, ds)
	p.check("place_errors", st.PlaceFailed == 0, "%d place errors", st.PlaceFailed)
	p.check("errors", st.Failed == 0, "%d failed requests", st.Failed)
	p.checkBackends(ds, false)
	return nil
}

// netStack is the network stack of cluster-wire and keyed-http.
type netStack struct {
	backs     []*backendNode
	px        *proxyNode
	wc        *wire.Client // cluster-wire's client (nil for keyed-http)
	ht        httpTarget   // keyed-http's client
	target    Target
	live      []Ball
	prefilled int64
	failed    int64
	dir       string
}

func (s *netStack) dispatchers() []*serve.Dispatcher {
	ds := make([]*serve.Dispatcher, len(s.backs))
	for i, b := range s.backs {
		ds[i] = b.d
	}
	return ds
}

func (s *netStack) close() {
	if s.wc != nil {
		s.wc.Close()
	}
	if s.ht.c != nil {
		s.ht.c.CloseIdleConnections()
	}
	if s.px != nil {
		s.px.close()
	}
	for _, b := range s.backs {
		b.close()
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// loadVar is Ψ/n over the union of every backend's bins.
func (s *netStack) loadVar() float64 {
	var loads []int
	for _, b := range s.backs {
		loads = append(loads, b.d.Allocator().Loads()...)
	}
	return psiPerBin(loads)
}

// buildNet starts four backends, the proxy and the client, then places
// live balls drawn from the workload's stream.
func buildNet(p *phase, keyedMode bool, cfg StreamConfig, live int) (*netStack, error) {
	s := &netStack{}
	n := p.sc.clusterN
	for i := 0; i < 4; i++ {
		b, err := startBackend(n, rng.StreamSeed(p.seed, uint64(i)), p.tr)
		if err != nil {
			s.close()
			return nil, err
		}
		s.backs = append(s.backs, b)
	}
	if keyedMode {
		dir, err := os.MkdirTemp("", "bbmark-keyed-")
		if err != nil {
			s.close()
			return nil, err
		}
		s.dir = dir
	}
	var err error
	if s.px, err = startProxy(s.backs, n, p.seed, s.dir, p.tr); err != nil {
		s.close()
		return nil, err
	}
	if keyedMode {
		s.ht = newHTTPTarget(s.px.url, 2)
		s.target = s.ht
	} else {
		if s.wc, err = wire.Dial(s.px.wireAddr, wire.ClientOptions{Conns: 2}); err != nil {
			s.close()
			return nil, err
		}
		s.target = wireTarget{s.wc}
	}
	if p.tr != nil {
		s.target = tracedTarget{Target: s.target, tr: p.tr}
	}

	// Place the initial balls from two goroutines (untraced: setup).
	var init []Arrival
	stream := NewStream(cfg, rng.Mix(p.seed, 0x696e6974))
	for k := live; k > 0; {
		a := stream.Next()
		a.Bulk = min(a.Bulk, k)
		init = append(init, a)
		k -= a.Bulk
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(init); i += 2 {
				a := init[i]
				bins, _, err := s.target.Place(context.Background(), a.Key, a.Bulk)
				mu.Lock()
				if err != nil {
					s.failed++
				}
				for _, b := range bins {
					s.live = append(s.live, Ball{Bin: b, Key: a.Key})
				}
				s.prefilled += int64(len(bins))
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return s, nil
}

// stackCounters is one reading of the public Stats every layer keeps.
type stackCounters struct {
	picks, probes, fallbacks    int64
	cliReqs, cliWrites, cliByte int64
	srvFrames, srvWrites        int64
	reqs, batches               int64
	keyHits, keyMisses, keyProb int64
	keyMoved, walRecords        int64
	walSnapshots                int64
}

func (s *netStack) counters() stackCounters {
	var c stackCounters
	cs := s.px.rt.Stats()
	c.picks, c.probes, c.fallbacks = cs.Picks, cs.Probes, cs.Fallbacks
	if s.wc != nil {
		ws := s.wc.Stats()
		c.cliReqs, c.cliWrites, c.cliByte = ws.Requests, ws.Writes, ws.BytesIn+ws.BytesOut
	}
	servers := []*wire.Server{s.px.ws}
	for _, b := range s.backs {
		servers = append(servers, b.ws)
	}
	for _, w := range servers {
		st := w.Stats()
		c.srvFrames += st.FramesOut
		c.srvWrites += st.Writes
	}
	c.reqs, c.batches, _ = dispatchStats(s.dispatchers())
	if ks := cs.Keyed; ks != nil {
		c.keyHits, c.keyMisses, c.keyProb, c.keyMoved = ks.AffinityHits, ks.AffinityMisses, ks.Probes, ks.MovedKeys
	}
	if ds := cs.Durability; ds != nil {
		c.walRecords, c.walSnapshots = ds.Records, ds.Snapshots
	}
	return c
}

// runNet runs cluster-wire (keyedMode false) or keyed-http: a closed
// loop of two workers through the proxy to four wire backends.
func runNet(p *phase, keyedMode bool) error {
	sc := p.sc
	cfg, live := StreamConfig{BulkMax: 32, BulkS: 1.5}, sc.clusterLive
	if keyedMode {
		cfg, live = StreamConfig{Keys: sc.keys, KeyS: 1.2, Epoch: sc.epoch, HotShare: 0.3}, sc.keyedLive
	}
	var s *netStack
	setup, err := p.timeSetups(func() error {
		var err error
		s, err = buildNet(p, keyedMode, cfg, live)
		return err
	}, func() { s.close() })
	if err != nil {
		return err
	}
	defer s.close()

	var (
		rd     meterReading
		c0, c1 stackCounters
		lv     float64
	)
	loop := &ClosedLoop{Target: s.target, Stream: cfg, Workers: 2, Seed: p.seed, Gate: &p.gate}
	st := loop.Run(s.live, sc.warmup, func(ops func() int64) {
		c0 = s.counters()
		mt := startMeter(ops, &p.gate)
		lv = snapshotsOver(p.window, s.loadVar)
		rd = mt.end()
		c1 = s.counters()
	})
	p.report(&st, rd, setup, lv)
	d := func(a, b int64) float64 { return float64(b - a) }
	ops := float64(st.WindowOps)
	p.m["cluster.probes_per_pick"] = ratio(d(c0.probes, c1.probes), d(c0.picks, c1.picks))
	p.m["cluster.fallbacks"] = d(c0.fallbacks, c1.fallbacks)
	p.m["cluster.pick_staleness_p99_frac"] = float64(s.px.rt.PickStaleness().Quantile(0.99)) / float64(s.px.cfg.Staleness.Milliseconds())
	p.m["wire.client_coalescing"] = ratio(d(c0.cliReqs, c1.cliReqs), d(c0.cliWrites, c1.cliWrites))
	p.m["wire.client_bytes_per_op"] = ratio(d(c0.cliByte, c1.cliByte), d(c0.cliReqs, c1.cliReqs))
	p.m["wire.server_reqs_per_write"] = ratio(d(c0.srvFrames, c1.srvFrames), d(c0.srvWrites, c1.srvWrites))
	p.m["serve.combining_factor"] = ratio(d(c0.reqs, c1.reqs), d(c0.batches, c1.batches))
	_, _, p.m["serve.queue_share"] = dispatchStats(s.dispatchers())
	p.m["keyed.hit_rate"] = ratio(d(c0.keyHits, c1.keyHits), d(c0.keyHits, c1.keyHits)+d(c0.keyMisses, c1.keyMisses))
	p.m["keyed.probes_per_miss"] = ratio(d(c0.keyProb, c1.keyProb), d(c0.keyMisses, c1.keyMisses))
	p.m["keyed.keys_moved"] = d(c0.keyMoved, c1.keyMoved)
	if ks := s.px.rt.Stats().Keyed; ks != nil {
		p.m["keyed.hot_keys"] = float64(ks.HotKeys)
	}
	p.m["wal.appends_per_op"] = ratio(d(c0.walRecords, c1.walRecords), ops)
	p.m["wal.snapshots"] = d(c0.walSnapshots, c1.walSnapshots)

	// Correctness: books against the backends' own counts, errors,
	// watchdogs, bounds, and the keyed table's recovery.
	ds := s.dispatchers()
	p.checkBooks(s.prefilled, &st, ds)
	p.check("place_errors", st.PlaceFailed+s.failed == 0, "%d place errors", st.PlaceFailed+s.failed)
	p.check("errors", st.Failed == 0, "%d failed requests", st.Failed)
	p.checkBackends(ds, keyedMode)
	pv := s.px.rt.Watch().ViolationsTotal()
	p.check("watchdog_proxy", pv == 0, "%d violations on the proxy tier", pv)
	if keyedMode {
		p.checkRecovery(s)
	}
	return nil
}

// checkRecovery closes the router, reopens it from its WAL and checks
// that the keyed assignment table is unchanged.
func (p *phase) checkRecovery(s *netStack) {
	s.px.rt.Close()
	before := s.px.rt.Keyed().Mirror()
	rt, _, err := cluster.OpenRouter(s.px.cfg)
	if err != nil {
		p.check("keyed_recovery", false, "reopen: %v", err)
		return
	}
	after := rt.Keyed().Mirror()
	rt.Close()
	p.check("keyed_recovery", before.Equal(after), "%d keys before close, %d after reopen", len(before.Keys), len(after.Keys))
}
