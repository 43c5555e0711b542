package ballsbins

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/loadvec"
	"repro/internal/protocol"
	"repro/internal/rng"
)

// ShardedAllocator partitions n bins into P contiguous shards, each an
// independent Allocator with its own deterministic RNG stream, and
// serves concurrent callers: every shard is guarded by its own mutex,
// so P placements can proceed in parallel as long as they land on
// different shards. Arrivals are spread round-robin over the shards
// (an atomic ticket), which keeps the per-shard ball counts within one
// of each other — each shard then runs the protocol's placement rule
// among its own bins.
//
// This is the paper's protocol family composed with the standard
// scale-out move: the adaptive guarantee ⌈m_s/n_s⌉+1 holds per shard
// with m_s ≤ ⌈m/P⌉ balls over n_s ≥ ⌊n/P⌋ bins, so the global maximum
// load is at most ⌈⌈m/P⌉/⌊n/P⌋⌉ + 1 — within a ball or two of the
// sequential ⌈m/n⌉ + 1 — and that small slack buys cross-shard
// parallelism with no cross-shard coordination at placement time.
//
// Aggregate reads (Loads, MaxLoad, Gap, Psi, Metrics, Snapshot) lock
// every shard, so they are linearizable snapshots of the whole system.
//
// Two concurrent callers pay a tax over one Allocator's Place, in three
// parts:
//   - False sharing, removed by layout: every shard header (its mutex,
//     written by each lock and unlock) and the ticket cursor (written by
//     every ticket) sit alone on their own cache line, so no caller's
//     write invalidates a line another caller only reads.
//   - The shared cursor, kept on purpose: every ticket is one atomic add
//     on a line all callers write. Splitting it per caller would break
//     the exact round-robin evenness the sharded bound rests on.
//   - Allocator state in motion: round-robin tickets interleave the
//     callers over the shards, so each shard's allocator state (its
//     load vector, level index and RNG) migrates between cores with
//     the lock, and a placement starts with cache misses the
//     single-threaded Allocator never takes.
type ShardedAllocator struct {
	shards []*shard
	n      int
	_      [cacheLine - 32]byte // the read-mostly fields above keep their own line
	next   atomic.Uint64        // round-robin ticket cursor
	_      [cacheLine - 8]byte
}

// cacheLine is the coherence unit the hot fields are padded to.
const cacheLine = 64

type shard struct {
	mu sync.Mutex
	a  *Allocator
	lo int                  // global index of the shard's first bin
	_  [cacheLine - 24]byte // one cache line per shard header
}

// NewSharded returns a ShardedAllocator over n bins split into
// `shards` contiguous groups (sizes differ by at most one). Shard i
// draws from the deterministic stream i of the master seed, and a
// WithHorizon value is split as ⌈m/P⌉ per shard — the most balls
// round-robin can route to any one shard. It panics
// if n <= 0, shards < 1, shards > n, s is the zero Spec, or a spec
// that requires a horizon is constructed without one.
func NewSharded(s Spec, n, shards int, opts ...Option) *ShardedAllocator {
	s.mustBeValid()
	if n <= 0 {
		panic("ballsbins: NewSharded with n <= 0")
	}
	if shards < 1 {
		panic("ballsbins: NewSharded with shards < 1")
	}
	if shards > n {
		panic(fmt.Sprintf("ballsbins: NewSharded needs shards <= n (%d > %d)", shards, n))
	}
	o := buildOptions(opts)
	if o.snapFn != nil {
		panic("ballsbins: WithSnapshots is a Run option; poll ShardedAllocator.Snapshot instead")
	}
	sa := &ShardedAllocator{shards: make([]*shard, shards), n: n}
	for i := 0; i < shards; i++ {
		lo := i * n / shards
		hi := (i + 1) * n / shards
		size := hi - lo
		shardOpts := []Option{
			WithSeed(rng.StreamSeed(o.seed, uint64(i))),
			WithEngine(o.engine),
		}
		if o.horizon > 0 {
			// Every shard must be able to absorb the balls round-robin
			// can actually route to it — up to ⌈m/P⌉, independent of
			// its size — so the horizon splits by shard COUNT, not by
			// bin share. A threshold-family shard then has capacity
			// n_s·(⌈h_s/n_s⌉+1) ≥ h_s + n_s, leaving n_s balls of
			// slack beyond its worst-case arrivals.
			shardOpts = append(shardOpts,
				WithHorizon(protocol.CeilDiv(o.horizon, int64(shards))))
		}
		sa.shards[i] = &shard{a: New(s, size, shardOpts...), lo: lo}
	}
	return sa
}

// Name returns the protocol's identifier.
func (sa *ShardedAllocator) Name() string { return sa.shards[0].a.Name() }

// Rule returns the acceptance rule the spec defends, or nil for a
// spec that defends none. Every shard runs it over its own bins with
// its share of the horizon, so protocol.Fits(Rule(), ShardSize(i),
// balls, more) tells whether shard i can take more balls.
func (sa *ShardedAllocator) Rule() protocol.Rule { return sa.shards[0].a.sess.Rule() }

// N returns the total number of bins.
func (sa *ShardedAllocator) N() int { return sa.n }

// Shards returns the number of shards.
func (sa *ShardedAllocator) Shards() int { return len(sa.shards) }

// shardOf returns the shard holding global bin index b.
func (sa *ShardedAllocator) shardOf(b int) *shard {
	return sa.shards[sa.ShardOf(b)]
}

// ShardOf returns the index of the shard holding global bin b. Shard
// boundaries are lo_i = ⌊i·n/P⌋, so the candidate ⌊b·P/n⌋ is off by at
// most one; the fixups settle it. It panics if b is out of range.
func (sa *ShardedAllocator) ShardOf(b int) int {
	if b < 0 || b >= sa.n {
		panic(fmt.Sprintf("ballsbins: bin %d outside [0,%d)", b, sa.n))
	}
	p := len(sa.shards)
	i := b * p / sa.n
	for i+1 < p && sa.shards[i+1].lo <= b {
		i++
	}
	for i > 0 && sa.shards[i].lo > b {
		i--
	}
	return i
}

// ShardBase returns the global index of shard i's first bin; bins
// [ShardBase(i), ShardBase(i)+ShardSize(i)) belong to shard i.
func (sa *ShardedAllocator) ShardBase(i int) int { return sa.shards[i].lo }

// ShardSize returns the number of bins in shard i.
func (sa *ShardedAllocator) ShardSize(i int) int { return sa.shards[i].a.N() }

// WithShardLocked runs fn with shard i's Allocator while holding that
// shard's lock, passing the global index of the shard's first bin (so
// fn can translate the Allocator's shard-local bins to global ones).
// It is the batching hook for serving layers: a caller that has
// grouped several operations destined for one shard can apply them all
// under a single lock acquisition instead of paying one per operation.
// fn must not retain the Allocator past its return, and must not call
// back into the ShardedAllocator (the shard lock is held).
func (sa *ShardedAllocator) WithShardLocked(i int, fn func(a *Allocator, base int)) {
	sh := sa.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	fn(sh.a, sh.lo)
}

// NextShard claims one round-robin ticket and returns the shard index
// the next arrival should land on — the same cursor Place and
// PlaceBatch use, so external dispatchers placing via WithShardLocked
// keep per-shard ball counts within one of each other even when mixed
// with direct Place traffic. Safe for concurrent use.
func (sa *ShardedAllocator) NextShard() int {
	return int((sa.next.Add(1) - 1) % uint64(len(sa.shards)))
}

// NextShardBatch claims k round-robin tickets and appends to dst how
// many of the k arrivals belong on each shard (one count per shard, in
// shard order), exactly as PlaceBatch would spread them. Callers pass
// a reused or stack-backed dst to claim a bulk without allocating.
// Safe for concurrent use.
func (sa *ShardedAllocator) NextShardBatch(k int64, dst []int64) []int64 {
	p := int64(len(sa.shards))
	if k <= 0 {
		for range p {
			dst = append(dst, 0)
		}
		return dst
	}
	start := int64((sa.next.Add(uint64(k)) - uint64(k)) % uint64(p))
	base := k / p
	rem := k % p
	for i := range p {
		n := base
		if (i-start+p)%p < rem {
			n++
		}
		dst = append(dst, n)
	}
	return dst
}

// Place allocates one ball on the next shard in round-robin order and
// returns the global bin index and the number of random bin choices
// consumed. Safe for concurrent use.
func (sa *ShardedAllocator) Place() (bin int, samples int64) {
	// Claim ticket t = old cursor value and advance by one — the same
	// convention PlaceBatch uses, so mixed Place/PlaceBatch traffic
	// visits the shards in one consistent round-robin order.
	sh := sa.shards[sa.NextShard()]
	sh.mu.Lock()
	local, samples := sh.a.Place()
	sh.mu.Unlock()
	return sh.lo + local, samples
}

// PlaceBatch allocates k balls, spread as evenly as possible across
// the shards (each shard receives k/P, the remainder going to the
// shards after the round-robin cursor), and returns the total number
// of random bin choices consumed. Safe for concurrent use.
func (sa *ShardedAllocator) PlaceBatch(k int64) int64 {
	if k <= 0 {
		return 0
	}
	// Claim k tickets: each ball goes to the shard the round-robin
	// cursor would have visited next, so mixed Place/PlaceBatch
	// traffic keeps shard counts within one.
	var tickets [64]int64 // up to 64 shards, the counts stay on the stack
	counts := sa.NextShardBatch(k, tickets[:0])
	var total int64
	for i, sh := range sa.shards {
		if counts[i] == 0 {
			continue
		}
		sh.mu.Lock()
		total += sh.a.PlaceBatch(counts[i])
		sh.mu.Unlock()
	}
	return total
}

// Remove takes one ball out of global bin i. It panics if the bin is
// empty. Safe for concurrent use.
func (sa *ShardedAllocator) Remove(bin int) {
	sh := sa.shardOf(bin)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.a.Remove(bin - sh.lo)
}

// Load returns the current load of global bin i. Safe for concurrent
// use.
func (sa *ShardedAllocator) Load(bin int) int {
	sh := sa.shardOf(bin)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.a.Load(bin - sh.lo)
}

// lockAll acquires every shard mutex in index order (a fixed order, so
// concurrent aggregate reads cannot deadlock) and returns the unlock
// function.
func (sa *ShardedAllocator) lockAll() func() {
	for _, sh := range sa.shards {
		sh.mu.Lock()
	}
	return func() {
		for _, sh := range sa.shards {
			sh.mu.Unlock()
		}
	}
}

// Loads returns a copy of the current global per-bin loads, read as
// one consistent snapshot.
func (sa *ShardedAllocator) Loads() []int {
	defer sa.lockAll()()
	out := make([]int, 0, sa.n)
	for _, sh := range sa.shards {
		out = append(out, sh.a.Loads()...)
	}
	return out
}

// Balls returns the number of balls currently in the system.
func (sa *ShardedAllocator) Balls() int64 {
	defer sa.lockAll()()
	var t int64
	for _, sh := range sa.shards {
		t += sh.a.Balls()
	}
	return t
}

// Placed returns the cumulative number of placements.
func (sa *ShardedAllocator) Placed() int64 {
	defer sa.lockAll()()
	var t int64
	for _, sh := range sa.shards {
		t += sh.a.Placed()
	}
	return t
}

// Samples returns the cumulative number of random bin choices.
func (sa *ShardedAllocator) Samples() int64 {
	defer sa.lockAll()()
	var t int64
	for _, sh := range sa.shards {
		t += sh.a.Samples()
	}
	return t
}

// MaxLoad returns the current global maximum load.
func (sa *ShardedAllocator) MaxLoad() int {
	defer sa.lockAll()()
	return sa.maxLoadLocked()
}

func (sa *ShardedAllocator) maxLoadLocked() int {
	max := 0
	for _, sh := range sa.shards {
		if l := sh.a.MaxLoad(); l > max {
			max = l
		}
	}
	return max
}

// MinLoad returns the current global minimum load.
func (sa *ShardedAllocator) MinLoad() int {
	defer sa.lockAll()()
	return sa.minLoadLocked()
}

func (sa *ShardedAllocator) minLoadLocked() int {
	min := math.MaxInt
	for _, sh := range sa.shards {
		if l := sh.a.MinLoad(); l < min {
			min = l
		}
	}
	return min
}

// Gap returns global MaxLoad − MinLoad.
func (sa *ShardedAllocator) Gap() int {
	defer sa.lockAll()()
	return sa.maxLoadLocked() - sa.minLoadLocked()
}

// Psi returns the global quadratic potential Ψ = Σℓ² − t²/n, combined
// exactly from the shards' integer sums.
func (sa *ShardedAllocator) Psi() float64 {
	defer sa.lockAll()()
	return sa.psiLocked()
}

func (sa *ShardedAllocator) psiLocked() float64 {
	var sumSq, balls int64
	for _, sh := range sa.shards {
		sumSq += sh.a.sess.SumSquares()
		balls += sh.a.Balls()
	}
	t := float64(balls)
	return float64(sumSq) - t*t/float64(sa.n)
}

// Metrics summarizes the whole system as a Result, combining the
// shards under one consistent snapshot. Phi is evaluated against the
// global average load.
func (sa *ShardedAllocator) Metrics() Result {
	res, _ := sa.MetricsWithBalls()
	return res
}

// MetricsWithBalls returns Metrics together with the live ball count,
// both read under the same lock-all acquisition — use it when the
// Result and the count must describe the same instant (Result alone
// cannot carry the count, and a separate Balls() call would observe a
// later state).
func (sa *ShardedAllocator) MetricsWithBalls() (Result, int64) {
	defer sa.lockAll()()
	var samples, placed, balls int64
	for _, sh := range sa.shards {
		samples += sh.a.Samples()
		placed += sh.a.Placed()
		balls += sh.a.Balls()
	}
	res := Result{
		Samples: samples,
		MaxLoad: sa.maxLoadLocked(),
		MinLoad: sa.minLoadLocked(),
		Psi:     sa.psiLocked(),
		Phi:     sa.phiLocked(balls),
	}
	res.Gap = res.MaxLoad - res.MinLoad
	if placed > 0 {
		res.SamplesPerBall = float64(samples) / float64(placed)
	}
	return res, balls
}

// phiLocked merges the shards' level histograms and evaluates the
// exponential potential against the global average, exactly as a
// single Vector over all n bins would.
func (sa *ShardedAllocator) phiLocked(balls int64) float64 {
	maxL := sa.maxLoadLocked()
	avg := float64(balls) / float64(sa.n)
	log1pe := math.Log1p(loadvec.DefaultEpsilon)
	var sum float64
	for l := sa.minLoadLocked(); l <= maxL; l++ {
		var c int64
		for _, sh := range sa.shards {
			c += sh.a.sess.LevelCount(l)
		}
		if c == 0 {
			continue
		}
		sum += float64(c) * math.Exp((avg+2-float64(l))*log1pe)
	}
	return sum
}

// ShardMetrics summarizes shard i alone as a Result, locking only that
// shard — a cheap monitoring read that never blocks traffic on the
// other P−1 shards. Loads, potentials and SamplesPerBall are evaluated
// within the shard (Phi against the shard's own average load). It
// panics if i is out of range.
func (sa *ShardedAllocator) ShardMetrics(i int) Result {
	if i < 0 || i >= len(sa.shards) {
		panic(fmt.Sprintf("ballsbins: shard %d outside [0,%d)", i, len(sa.shards)))
	}
	sh := sa.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.a.Metrics()
}

func safeDiv(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// ApproxMetrics summarizes the whole system like Metrics but locks one
// shard at a time instead of all P at once, so a monitoring read never
// stalls more than 1/P of the traffic.
//
// Consistency tradeoff: each shard's contribution is internally
// consistent (read under its own lock), but the shards are observed at
// slightly different moments, so operations that land between the
// per-shard reads may be counted on some shards and not others. The
// combined figures can therefore differ transiently from any
// lock-all Metrics snapshot — e.g. Psi mixes sums-of-squares and ball
// counts from instants a few operations apart, and MaxLoad may miss a
// ball placed on an already-visited shard. Under quiescence it equals
// Metrics exactly. Use Metrics when a linearizable snapshot matters;
// use ApproxMetrics on monitoring paths.
func (sa *ShardedAllocator) ApproxMetrics() Result {
	var samples, placed, balls, sumSq int64
	maxL, minL := 0, math.MaxInt
	// Level counts are merged across shards to evaluate Phi globally;
	// the map stays tiny (levels span maxLoad−minLoad+1 values).
	levels := make(map[int]int64)
	for _, sh := range sa.shards {
		sh.mu.Lock()
		samples += sh.a.Samples()
		placed += sh.a.Placed()
		balls += sh.a.Balls()
		sumSq += sh.a.SumSquares()
		lo, hi := sh.a.MinLoad(), sh.a.MaxLoad()
		if hi > maxL {
			maxL = hi
		}
		if lo < minL {
			minL = lo
		}
		for l := lo; l <= hi; l++ {
			if c := sh.a.LevelCount(l); c > 0 {
				levels[l] += c
			}
		}
		sh.mu.Unlock()
	}
	t := float64(balls)
	avg := t / float64(sa.n)
	log1pe := math.Log1p(loadvec.DefaultEpsilon)
	var phi float64
	// Ascending level order, matching Metrics' summation order so the
	// two agree bit-for-bit at quiescence.
	for l := minL; l <= maxL; l++ {
		if c := levels[l]; c > 0 {
			phi += float64(c) * math.Exp((avg+2-float64(l))*log1pe)
		}
	}
	res := Result{
		Samples:        samples,
		SamplesPerBall: safeDiv(samples, placed),
		MaxLoad:        maxL,
		MinLoad:        minL,
		Psi:            float64(sumSq) - t*t/float64(sa.n),
		Phi:            phi,
	}
	res.Gap = res.MaxLoad - res.MinLoad
	return res
}

// Snapshot returns a consistent mid-run observation of the whole
// system.
func (sa *ShardedAllocator) Snapshot() Snapshot {
	defer sa.lockAll()()
	var samples, placed int64
	for _, sh := range sa.shards {
		samples += sh.a.Samples()
		placed += sh.a.Placed()
	}
	return Snapshot{
		Ball:    placed,
		Samples: samples,
		MaxLoad: sa.maxLoadLocked(),
		Gap:     sa.maxLoadLocked() - sa.minLoadLocked(),
		Psi:     sa.psiLocked(),
	}
}
