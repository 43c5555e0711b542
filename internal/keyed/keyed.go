// Package keyed is the keyed placement tier: a bounded-load,
// consistent key→bin assignment built from the paper's exact integer
// acceptance rule. Where the anonymous tiers (internal/serve,
// internal/cluster) route each ball independently, a KeyMap gives
// every key a home bin that repeat traffic hits with zero probes —
// the locality contract a keyed workload (users, sessions, cache
// keys) needs — while still defending the protocols' per-bin load
// bound, which naive hash affinity cannot (Θ(log n/log log n) max
// load, zero balance guarantee).
//
// # Construction
//
// Each key owns a deterministic pseudo-random probe sequence: a
// per-key RNG stream seeded from (map seed, key hash), drawing bins
// uniformly with replacement — the same construction as the
// protocols' bin draws, so the whole assignment is a pure function of
// (seed, operation sequence). A key is placed at the first probed bin
// passing the active Policy's acceptance rule (a protocol.Rule: the
// protocols' exact integer test K·(load−1) < i over key-replica
// counts), with the probe cap of the BoundedRetry construction; the
// cap applies per pick, not per request. A pick that exhausts it
// falls back to the least loaded probed bin, except under a rule with
// a Bound (adaptive, threshold), whose probed bins then all hold at
// least the bound: it takes the least loaded bin it may use instead.
//
// Three mechanisms ride on top:
//
//   - Sticky affinity: an assignment table. Repeat traffic for an
//     assigned key returns its bin with zero probes (one map lookup);
//     the affinity hit rate is exported. Assignments persist while a
//     key is idle (its balls all departed) so a returning key keeps
//     its locality; idle keys are evicted least-recently-routed only
//     when the table exceeds MaxKeys.
//
//   - Hot-key splitting: per-key traffic accounting. A key whose
//     request share exceeds HotShare (after HotMinHits total requests)
//     is promoted to a set of Replicas bins — the next accepting bins
//     of its own probe sequence — and each subsequent request picks
//     the replica with the fewest outstanding balls (the d-choices
//     rule among replicas, two-choices at the default d=2). A single
//     flash-crowd key therefore spreads over d bins instead of
//     melting one.
//
//   - Minimal-disruption rebalancing: on SetDown(bin) only the keys
//     resident on that bin re-probe (continuing their own probe
//     sequences, so the move is deterministic), and bins left over
//     the policy bound shed their most recently assigned keys until
//     they fit — the paper's no-reallocation ethos: bound the moves,
//     never reshuffle globally. Moved and shed counts are exported so
//     the disruption bound (moved ≤ keys resident on the dead bin,
//     shed accounted separately) is checkable from the outside.
//     SetUp performs no reassignment at all: a rejoining bin simply
//     becomes the emptiest target for future picks.
//
// A KeyMap is safe for concurrent use (one mutex; every operation is
// O(probes) with small constants). It does not itself talk to the
// network — internal/serve maps keys to allocator shards with it, and
// internal/cluster maps keys to backends.
package keyed

import (
	"container/list"
	"errors"
	"sync"

	"repro/internal/protocol"
	"repro/internal/rng"
)

// ErrNoBins is returned when no healthy bin is available to assign to.
var ErrNoBins = errors.New("keyed: no healthy bins")

// Defaults for Config's zero values.
const (
	DefaultReplicas   = 2
	DefaultHotShare   = 0.10
	DefaultHotMinHits = 256
	DefaultMaxKeys    = 1 << 20
)

// Config describes a KeyMap.
type Config struct {
	// Bins is the number of assignable bins (allocator shards, cluster
	// backends). Required.
	Bins int
	// Policy is the acceptance rule (default Adaptive).
	Policy Policy
	// Seed drives every key's probe sequence.
	Seed uint64
	// Replicas is the replica-set size hot keys are split to
	// (default 2; 1 disables splitting).
	Replicas int
	// HotShare is the request-share threshold for hot-key promotion
	// (default 0.10; ≥ 1 disables splitting).
	HotShare float64
	// HotMinHits is the minimum total request count before any
	// promotion (default 256) — a warmup guard so the first few
	// requests cannot promote spuriously.
	HotMinHits int64
	// MaxKeys caps the assignment table; beyond it, least-recently
	// routed idle keys are evicted (default 1<<20). Keys with live
	// balls are never evicted.
	MaxKeys int
}

// replica is one bin of a key's assignment set. refs and hits are
// balancing heuristics: refs approximates the key's live balls placed
// via this replica (a replica that moves carries them along, so after
// failover moves they are estimates, not books), hits its cumulative
// request count.
type replica struct {
	bin  int
	refs int64
	hits int64
}

type entry struct {
	key string
	// r is the key's probe stream. Every probe — initial assignment,
	// promotion, rebalance — continues the same deterministic
	// sequence.
	r        *rng.Rand
	replicas []replica
	refs     int64 // live balls across all replicas
	hits     int64 // cumulative requests for this key
	el       *list.Element
}

// KeyMap is the keyed placement tier. Construct with New.
type KeyMap struct {
	mu  sync.Mutex
	cfg Config

	entries map[string]*entry
	binLoad []int64    // key replicas resident per bin
	binKeys [][]string // per-bin keys in assignment order (lazily compacted)
	up      []bool
	healthy int
	reps    int64 // total live replicas (Σ binLoad)

	lru *list.List // front = most recently routed key

	// journal, when installed via SetJournal, receives every
	// structural mutation under mu — the durability hook (persist.go).
	journal func(Op)

	// liveBalls mirrors Σ entry.refs incrementally, so Stats never
	// walks the table under the routing mutex.
	liveBalls int64

	totalHits int64
	probes    int64
	hits      int64
	misses    int64
	moved     int64
	shed      int64
	idle      int64
	promoted  int64
	hotCount  int64
}

// New validates cfg and returns an empty KeyMap with every bin
// healthy. It panics on structurally invalid configuration, same
// contract as the allocator constructors.
func New(cfg Config) *KeyMap {
	if cfg.Bins <= 0 {
		panic("keyed: New with Bins <= 0")
	}
	if cfg.Policy == nil {
		cfg.Policy = Adaptive()
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = DefaultReplicas
	}
	if cfg.HotShare == 0 {
		cfg.HotShare = DefaultHotShare
	}
	if cfg.HotMinHits == 0 {
		cfg.HotMinHits = DefaultHotMinHits
	}
	if cfg.MaxKeys == 0 {
		cfg.MaxKeys = DefaultMaxKeys
	}
	m := &KeyMap{
		cfg:     cfg,
		entries: make(map[string]*entry),
		binLoad: make([]int64, cfg.Bins),
		binKeys: make([][]string, cfg.Bins),
		up:      make([]bool, cfg.Bins),
		healthy: cfg.Bins,
		lru:     list.New(),
	}
	for b := range m.up {
		m.up[b] = true
	}
	return m
}

// keyStream derives the seed of a key's probe stream: SplitMix64
// finalization over an FNV-1a hash of the key bytes mixed with the
// map seed — deterministic, and independent streams for distinct
// (seed, key) pairs.
func keyStream(seed uint64, key string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return rng.Mix(seed, h)
}

// Bins returns the configured bin count.
func (m *KeyMap) Bins() int { return m.cfg.Bins }

// PolicyName returns the acceptance policy's identifier.
func (m *KeyMap) PolicyName() string { return m.cfg.Policy.Name() }

// Route returns the bin one request for key should go to, assigning
// the key on first contact (hit=false, probes>0) and answering from
// the affinity table afterwards (hit=true, zero probes unless a
// defensive repair or promotion ran). Each Route counts one live ball
// against the returned bin's replica until a matching Release.
func (m *KeyMap) Route(key string) (bin int, probes int, hit bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.healthy == 0 {
		return 0, 0, false, ErrNoBins
	}
	e := m.entries[key]
	if e == nil {
		b, p, perr := m.assignNewLocked(key, nil)
		if perr != nil {
			return 0, p, false, perr
		}
		return b, p, false, nil
	}
	m.lru.MoveToFront(e.el)
	// Defensive repair: a replica on a bin that went down outside the
	// SetDown path is re-probed here rather than served dead.
	for ri := 0; ri < len(e.replicas); ri++ {
		if !m.up[e.replicas[ri].bin] {
			p, merr := m.moveReplicaLocked(e, ri, nil, true)
			probes += p
			if merr != nil {
				// Every healthy bin already holds another replica of
				// this key (only possible for multi-replica keys, since
				// healthy > 0): shrink the set instead.
				m.dropReplicaLocked(e, ri)
				ri--
				continue
			}
			m.moved++
		}
	}
	m.hits++
	e.hits++
	m.totalHits++
	probes += m.maybePromoteLocked(e)
	ri := chooseReplica(e)
	e.refs++
	m.liveBalls++
	e.replicas[ri].refs++
	e.replicas[ri].hits++
	return e.replicas[ri].bin, probes, true, nil
}

// Release records the departure of one of key's balls from bin. It is
// a no-op for unknown keys (the key may have been idle-evicted or its
// replica moved since the ball was placed — the per-replica counters
// are balancing heuristics, not books).
func (m *KeyMap) Release(key string, bin int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.entries[key]
	if e == nil {
		return
	}
	if e.refs > 0 {
		e.refs--
		m.liveBalls--
	}
	for ri := range e.replicas {
		if e.replicas[ri].bin == bin {
			if e.replicas[ri].refs > 0 {
				e.replicas[ri].refs--
			}
			return
		}
	}
}

// MoveOff reassigns the key's replica living on `from` to another
// healthy bin, additionally avoiding the bins in avoid (a caller's
// already-failed candidates) — the failover path of a keyed router:
// the caller observed `from` failing before any membership transition.
// The move continues the key's own probe sequence and counts toward
// the moved-keys disruption metric. An unknown key is assigned fresh.
func (m *KeyMap) MoveOff(key string, from int, avoid []int) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.healthy == 0 {
		return 0, ErrNoBins
	}
	e := m.entries[key]
	if e == nil {
		// Unknown key (idle-evicted since Route, or a restarted map):
		// assign it fresh with the same accounting as Route's miss
		// path — the caller is about to place a ball for it.
		b, _, perr := m.assignNewLocked(key, avoid)
		return b, perr
	}
	for ri := range e.replicas {
		if e.replicas[ri].bin == from {
			if _, err := m.moveReplicaLocked(e, ri, avoid, false); err != nil {
				return 0, err
			}
			m.moved++
			return e.replicas[ri].bin, nil
		}
	}
	// The replica already moved (eviction rebalance won the race):
	// answer with a surviving replica outside the avoid set, or move
	// one if every replica has been tried.
	for ri := range e.replicas {
		if m.up[e.replicas[ri].bin] && !containsBin(avoid, e.replicas[ri].bin) {
			return e.replicas[ri].bin, nil
		}
	}
	if _, err := m.moveReplicaLocked(e, 0, avoid, false); err != nil {
		return 0, err
	}
	m.moved++
	return e.replicas[0].bin, nil
}

// SetDown marks bin unhealthy and rebalances: every key replica
// resident on it re-probes to a healthy bin (its stranded balls are
// written off the per-replica counters — they are unreachable until
// the bin returns, exactly the cluster tier's remove_errors
// accounting), then overfull healthy bins shed their most recent
// keys down to the policy bound. It returns the number of replica
// moves the eviction itself caused and the number of shed moves —
// together the complete disruption: moved ≤ keys resident on bin.
func (m *KeyMap) SetDown(bin int) (moved, shedMoves int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if bin < 0 || bin >= m.cfg.Bins || !m.up[bin] {
		return 0, 0
	}
	m.up[bin] = false
	m.healthy--
	m.logOp(Op{Type: OpDown, Bin: bin})
	if m.healthy == 0 {
		// Nothing to move to; assignments freeze until a bin returns
		// (Route answers ErrNoBins meanwhile; SetUp recovers them).
		return 0, 0
	}
	moved = m.rebalanceBinLocked(bin)
	shedMoves = m.shedLocked()
	m.shed += shedMoves
	return moved, shedMoves
}

// rebalanceBinLocked re-probes every key replica resident on (down)
// bin onto healthy bins, stranding their balls. Shared by SetDown and
// the post-outage recovery in SetUp.
func (m *KeyMap) rebalanceBinLocked(bin int) (moved int64) {
	keys := m.binKeys[bin]
	m.binKeys[bin] = nil
	for _, key := range keys {
		e := m.entries[key]
		if e == nil {
			continue // tombstone: key was evicted or moved away
		}
		ri := replicaIndex(e, bin)
		if ri < 0 {
			continue
		}
		if _, err := m.moveReplicaLocked(e, ri, nil, true); err != nil {
			// Every healthy bin already holds another replica of this
			// key: shrink the replica set instead of moving.
			m.dropReplicaLocked(e, ri)
			continue
		}
		m.moved++
		moved++
	}
	return moved
}

// SetUp marks bin healthy again. Keys resident on healthy bins are
// never reassigned — the no-reallocation ethos: the rejoined bin is
// simply the emptiest candidate for future picks and sheds. The one
// exception is recovery from a total outage: replicas frozen on
// still-down bins (a SetDown with no healthy target leaves them in
// place) are rebalanced now that a target exists.
func (m *KeyMap) SetUp(bin int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if bin < 0 || bin >= m.cfg.Bins || m.up[bin] {
		return
	}
	m.up[bin] = true
	m.healthy++
	m.logOp(Op{Type: OpUp, Bin: bin})
	for b := 0; b < m.cfg.Bins; b++ {
		if !m.up[b] && m.binLoad[b] > 0 {
			m.rebalanceBinLocked(b)
		}
	}
}

// assignNewLocked performs a first-contact assignment for key: probe
// a bin outside avoid, insert the entry, and count the incoming ball
// (one ref, one hit, one miss). Shared by Route's miss path and
// MoveOff's unknown-key path so the two cannot drift.
func (m *KeyMap) assignNewLocked(key string, avoid []int) (bin, probes int, err error) {
	e := &entry{key: key, r: rng.New(keyStream(m.cfg.Seed, key))}
	b, p, perr := m.probeLocked(e, m.reps+1, avoid)
	if perr != nil {
		return 0, p, perr
	}
	m.misses++
	m.entries[key] = e
	e.el = m.lru.PushFront(key)
	m.attachLocked(e, b)
	m.logOp(Op{Type: OpAssign, Key: key, To: b})
	e.refs, e.hits = 1, 1
	e.replicas[0].refs, e.replicas[0].hits = 1, 1
	m.liveBalls++
	m.totalHits++
	m.evictIdleLocked()
	return b, p, nil
}

// probeLocked is one protocol.Pick over e's deterministic bin stream
// at live total i. Draws landing on down or avoided bins are skipped
// without counting as probes, and a draw budget of the probe cap plus
// 8·Bins bounds the skips. A pick that probed nothing, or that accepted
// nothing under a rule with a Bound, falls to a deterministic
// least-loaded scan of the eligible bins: every probed bin then holds
// at least the bound, and the least loaded probe would go past it. Rules
// with no Bound (hash, greedy, boundedretry) keep Pick's least loaded
// probe, as they are defined. Returns ErrNoBins when no healthy
// non-avoided bin exists.
func (m *KeyMap) probeLocked(e *entry, i int64, avoid []int) (bin, probes int, err error) {
	k, p := m.healthy, m.cfg.Policy
	bin, probes, accepted := protocol.Pick(p, k, i, p.MaxProbes(k)+8*m.cfg.Bins, func() (int, int64, bool) {
		b := e.r.Intn(m.cfg.Bins)
		return b, m.binLoad[b], m.up[b] && !containsBin(avoid, b)
	})
	m.probes += int64(probes)
	if _, bounded := p.Bound(k, i); accepted || (bin >= 0 && !bounded) {
		return bin, probes, nil
	}
	bin = -1
	var least int64
	for b := 0; b < m.cfg.Bins; b++ {
		if m.up[b] && !containsBin(avoid, b) && (bin < 0 || m.binLoad[b] < least) {
			bin, least = b, m.binLoad[b]
		}
	}
	if bin < 0 {
		return 0, probes, ErrNoBins
	}
	return bin, probes, nil
}

// attachLocked adds bin to e's replica set.
func (m *KeyMap) attachLocked(e *entry, bin int) {
	e.replicas = append(e.replicas, replica{bin: bin})
	if len(e.replicas) == 2 {
		m.hotCount++
	}
	m.binLoad[bin]++
	m.reps++
	m.appendBinKeyLocked(bin, e.key)
}

// dropReplicaLocked removes replica ri from e entirely (only taken
// when no healthy bin can host it), writing off its balls.
func (m *KeyMap) dropReplicaLocked(e *entry, ri int) {
	rp := e.replicas[ri]
	m.logOp(Op{Type: OpDrop, Key: e.key, From: rp.bin})
	m.binLoad[rp.bin]--
	m.reps--
	before := e.refs
	e.refs -= rp.refs
	if e.refs < 0 {
		e.refs = 0
	}
	m.liveBalls -= before - e.refs
	e.replicas = append(e.replicas[:ri], e.replicas[ri+1:]...)
	if len(e.replicas) == 1 {
		m.hotCount--
	}
}

// moveReplicaLocked re-probes replica ri of e to a new bin, avoiding
// the key's other replicas, the replica's current bin, and the bins
// in avoid. strand writes off the replica's balls (the source bin is
// unreachable); otherwise the refs travel with the assignment as a
// balancing estimate.
func (m *KeyMap) moveReplicaLocked(e *entry, ri int, avoid []int, strand bool) (int, error) {
	from := e.replicas[ri].bin
	all := make([]int, 0, len(e.replicas)+len(avoid))
	for _, rp := range e.replicas {
		all = append(all, rp.bin)
	}
	all = append(all, avoid...)
	b, probes, err := m.probeLocked(e, m.reps, all)
	if err != nil {
		return probes, err
	}
	m.binLoad[from]--
	e.replicas[ri].bin = b
	if strand {
		before := e.refs
		e.refs -= e.replicas[ri].refs
		if e.refs < 0 {
			e.refs = 0
		}
		m.liveBalls -= before - e.refs
		e.replicas[ri].refs = 0
	}
	m.binLoad[b]++
	m.appendBinKeyLocked(b, e.key)
	m.logOp(Op{Type: OpMove, Key: e.key, From: from, To: b})
	return probes, nil
}

// maybePromoteLocked grows a hot key's replica set to cfg.Replicas
// accepting bins of its own probe sequence. Hot = request share above
// HotShare after the HotMinHits warmup.
func (m *KeyMap) maybePromoteLocked(e *entry) (probes int) {
	if m.cfg.Replicas < 2 || len(e.replicas) >= m.cfg.Replicas {
		return 0
	}
	if m.cfg.HotShare >= 1 || m.totalHits < m.cfg.HotMinHits {
		return 0
	}
	if float64(e.hits) < m.cfg.HotShare*float64(m.totalHits) {
		return 0
	}
	was := len(e.replicas)
	for len(e.replicas) < m.cfg.Replicas {
		avoid := make([]int, 0, len(e.replicas))
		for _, rp := range e.replicas {
			avoid = append(avoid, rp.bin)
		}
		b, p, err := m.probeLocked(e, m.reps+1, avoid)
		probes += p
		if err != nil {
			break // fewer healthy bins than replicas: stay partial
		}
		m.attachLocked(e, b)
		m.logOp(Op{Type: OpAttach, Key: e.key, To: b})
	}
	if len(e.replicas) > was {
		m.promoted++
	}
	return probes
}

// chooseReplica picks the replica with the fewest outstanding balls —
// the d-choices rule among the key's own replicas (two-choices at
// d=2). Ties break to the lowest index, keeping the choice
// deterministic.
func chooseReplica(e *entry) int {
	best := 0
	for ri := 1; ri < len(e.replicas); ri++ {
		if e.replicas[ri].refs < e.replicas[best].refs {
			best = ri
		}
	}
	return best
}

// shedLocked moves the most recently assigned keys off every healthy
// bin above the policy bound, until each fits or no under-bound
// target remains. A shed always lands strictly under the bound
// (targeted probe with a least-loaded scan fallback), so one pass
// cannot create a new overfull bin and the loop terminates.
func (m *KeyMap) shedLocked() int64 {
	bound, ok := m.cfg.Policy.Bound(m.healthy, m.reps)
	if !ok {
		return 0
	}
	var count int64
	for b := 0; b < m.cfg.Bins; b++ {
		if !m.up[b] {
			continue
		}
		for m.binLoad[b] > bound {
			key, ri, found := m.popRecentLocked(b)
			if !found {
				break
			}
			e := m.entries[key]
			target := m.underBoundTargetLocked(e, bound, b)
			if target < 0 {
				// No room anywhere: put the key back and stop — the
				// overfull bin keeps its residents rather than
				// ping-ponging them.
				m.appendBinKeyLocked(b, key)
				return count
			}
			m.binLoad[b]--
			e.replicas[ri].bin = target
			m.binLoad[target]++
			m.appendBinKeyLocked(target, e.key)
			m.logOp(Op{Type: OpShed, Key: e.key, From: b, To: target})
			count++
		}
	}
	return count
}

// underBoundTargetLocked picks the shed destination: the first draw
// of e's probe stream landing on a healthy bin with load+1 ≤ bound
// that holds no other replica of e, falling back to a deterministic
// least-loaded scan. Returns -1 when no bin strictly under the bound
// exists.
func (m *KeyMap) underBoundTargetLocked(e *entry, bound int64, from int) int {
	ok := func(b int) bool {
		if !m.up[b] || b == from || m.binLoad[b] >= bound {
			return false
		}
		return replicaIndex(e, b) < 0
	}
	for tries := 0; tries < 4*m.cfg.Bins; tries++ {
		if b := e.r.Intn(m.cfg.Bins); ok(b) {
			m.probes++
			return b
		}
	}
	best := -1
	var bestLoad int64
	for b := 0; b < m.cfg.Bins; b++ {
		if ok(b) && (best < 0 || m.binLoad[b] < bestLoad) {
			best, bestLoad = b, m.binLoad[b]
		}
	}
	return best
}

// popRecentLocked pops the most recently assigned key still resident
// on bin b, returning its entry's replica index for b. Stale
// occurrences (keys evicted or moved away) are discarded as they
// surface.
func (m *KeyMap) popRecentLocked(b int) (key string, ri int, ok bool) {
	for l := m.binKeys[b]; len(l) > 0; l = m.binKeys[b] {
		key = l[len(l)-1]
		m.binKeys[b] = l[:len(l)-1]
		if e := m.entries[key]; e != nil {
			if ri = replicaIndex(e, b); ri >= 0 {
				return key, ri, true
			}
		}
	}
	return "", -1, false
}

// appendBinKeyLocked records key's assignment to bin in arrival
// order, compacting the list when tombstones (moved or evicted
// occurrences) dominate.
func (m *KeyMap) appendBinKeyLocked(bin int, key string) {
	l := append(m.binKeys[bin], key)
	if int64(len(l)) > 2*m.binLoad[bin]+16 {
		compact := l[:0]
		for _, k := range l {
			if e := m.entries[k]; e != nil && replicaIndex(e, bin) >= 0 {
				compact = append(compact, k)
			}
		}
		l = compact
	}
	m.binKeys[bin] = l
}

// evictIdleLocked enforces MaxKeys by forgetting the least recently
// routed idle key (no live balls). The scan is bounded so a table
// full of busy keys cannot stall the hot path; if no idle key
// surfaces, the table temporarily exceeds the cap.
func (m *KeyMap) evictIdleLocked() {
	if m.cfg.MaxKeys <= 0 || len(m.entries) <= m.cfg.MaxKeys {
		return
	}
	el := m.lru.Back()
	for scanned := 0; el != nil && scanned < 64; scanned++ {
		prev := el.Prev()
		if e := m.entries[el.Value.(string)]; e != nil && e.refs <= 0 {
			m.forgetLocked(e)
			m.idle++
			return
		}
		el = prev
	}
}

// forgetLocked removes e from the table entirely.
func (m *KeyMap) forgetLocked(e *entry) {
	m.logOp(Op{Type: OpForget, Key: e.key})
	m.liveBalls -= e.refs
	for _, rp := range e.replicas {
		m.binLoad[rp.bin]--
		m.reps--
	}
	if len(e.replicas) > 1 {
		m.hotCount--
	}
	m.lru.Remove(e.el)
	delete(m.entries, e.key)
}

func replicaIndex(e *entry, bin int) int {
	for ri := range e.replicas {
		if e.replicas[ri].bin == bin {
			return ri
		}
	}
	return -1
}

func containsBin(bins []int, b int) bool {
	for _, x := range bins {
		if x == b {
			return true
		}
	}
	return false
}

// Stats is the keyed tier's monitoring block, served under "keyed" in
// /v1/stats by both bbserved (bins = shards) and bbproxy (bins =
// backends).
type Stats struct {
	Policy   string `json:"policy"`
	Bins     int    `json:"bins"`
	Healthy  int    `json:"healthy"`
	Keys     int64  `json:"keys"`
	Replicas int64  `json:"replicas"`
	HotKeys  int64  `json:"hot_keys"`
	// LiveBalls sums the per-key outstanding-ball estimates.
	LiveBalls int64 `json:"live_balls"`
	// AffinityHits/Misses/HitRate: a hit answers from the table with
	// zero probes; a miss is a first-contact assignment. Moves count
	// in neither.
	AffinityHits    int64   `json:"affinity_hits"`
	AffinityMisses  int64   `json:"affinity_misses"`
	AffinityHitRate float64 `json:"affinity_hit_rate"`
	Probes          int64   `json:"probes"`
	// MovedKeys counts replica reassignments forced by failures
	// (SetDown rebalance, failover MoveOff, defensive repair);
	// ShedKeys the bound-restoring sheds; IdleEvicted the MaxKeys
	// evictions of idle keys; Promoted the hot-key promotions.
	MovedKeys   int64 `json:"moved_keys"`
	ShedKeys    int64 `json:"shed_keys"`
	IdleEvicted int64 `json:"idle_evicted"`
	Promoted    int64 `json:"promoted"`
	// MaxKeyLoad/MinKeyLoad cover healthy bins.
	MaxKeyLoad int64 `json:"max_key_load"`
	MinKeyLoad int64 `json:"min_key_load"`
	// PolicyBound is the per-bin replica bound the policy guarantees
	// for the current healthy-bin and replica counts, 0 for policies
	// with no load guarantee (hash, greedy, boundedretry). Computed
	// under the same lock as MaxKeyLoad, so the pair is a consistent
	// observation — what the invariant watchdog checks against.
	PolicyBound int64 `json:"policy_bound,omitempty"`
	// PerBinKeys is the resident replica count per bin (index = bin;
	// down bins report 0 — their keys have been rebalanced away).
	PerBinKeys []int64 `json:"per_bin_keys"`
}

// Stats assembles the monitoring block. It reads only local state.
func (m *KeyMap) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Stats{
		Policy:         m.cfg.Policy.Name(),
		Bins:           m.cfg.Bins,
		Healthy:        m.healthy,
		Keys:           int64(len(m.entries)),
		Replicas:       m.reps,
		HotKeys:        m.hotCount,
		AffinityHits:   m.hits,
		AffinityMisses: m.misses,
		Probes:         m.probes,
		MovedKeys:      m.moved,
		ShedKeys:       m.shed,
		IdleEvicted:    m.idle,
		Promoted:       m.promoted,
		LiveBalls:      m.liveBalls,
		PerBinKeys:     append([]int64(nil), m.binLoad...),
	}
	if t := st.AffinityHits + st.AffinityMisses; t > 0 {
		st.AffinityHitRate = float64(st.AffinityHits) / float64(t)
	}
	if m.healthy > 0 {
		if b, ok := m.cfg.Policy.Bound(m.healthy, m.reps); ok {
			st.PolicyBound = b
		}
	}
	first := true
	for b := 0; b < m.cfg.Bins; b++ {
		if !m.up[b] {
			continue
		}
		if l := m.binLoad[b]; first {
			st.MaxKeyLoad, st.MinKeyLoad = l, l
			first = false
		} else {
			if l > st.MaxKeyLoad {
				st.MaxKeyLoad = l
			}
			if l < st.MinKeyLoad {
				st.MinKeyLoad = l
			}
		}
	}
	return st
}
