package keyed

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/protocol"
	"repro/internal/rng"
)

// checkInvariants asserts the structural invariants the fuzz target
// and the gate tests rely on: per-bin accounting matches a recount
// from the entries, every replica of every live key sits on a healthy
// bin (while any bin is healthy), replica sets hold distinct bins,
// and the LRU list tracks the table exactly.
func checkInvariants(t *testing.T, m *KeyMap) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	recount := make([]int64, m.cfg.Bins)
	var reps int64
	var hot int64
	var balls int64
	for key, e := range m.entries {
		balls += e.refs
		if len(e.replicas) == 0 {
			t.Fatalf("key %q has no replicas", key)
		}
		if len(e.replicas) > 1 {
			hot++
		}
		seen := make(map[int]bool)
		for _, rp := range e.replicas {
			if rp.bin < 0 || rp.bin >= m.cfg.Bins {
				t.Fatalf("key %q replica bin %d out of range", key, rp.bin)
			}
			if seen[rp.bin] {
				t.Fatalf("key %q has duplicate replica bin %d", key, rp.bin)
			}
			seen[rp.bin] = true
			if m.healthy > 0 && !m.up[rp.bin] {
				t.Fatalf("key %q maps to down bin %d", key, rp.bin)
			}
			recount[rp.bin]++
			reps++
		}
	}
	for b := range recount {
		if recount[b] != m.binLoad[b] {
			t.Fatalf("bin %d: binLoad %d, recount %d", b, m.binLoad[b], recount[b])
		}
	}
	if reps != m.reps {
		t.Fatalf("total replicas %d, recount %d", m.reps, reps)
	}
	if hot != m.hotCount {
		t.Fatalf("hotCount %d, recount %d", m.hotCount, hot)
	}
	if balls != m.liveBalls {
		t.Fatalf("liveBalls %d, recount %d", m.liveBalls, balls)
	}
	if m.lru.Len() != len(m.entries) {
		t.Fatalf("lru length %d, entries %d", m.lru.Len(), len(m.entries))
	}
}

func maxBinLoad(m *KeyMap) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var max int64
	for b, l := range m.binLoad {
		if m.up[b] && l > max {
			max = l
		}
	}
	return max
}

func TestRouteDeterministic(t *testing.T) {
	mk := func() *KeyMap {
		return New(Config{Bins: 8, Policy: Adaptive(), Seed: 42})
	}
	a, b := mk(), mk()
	r := rand.New(rand.NewSource(3))
	for op := 0; op < 5000; op++ {
		key := fmt.Sprintf("k%d", r.Intn(400))
		ba, _, ha, ea := a.Route(key)
		bb, _, hb, eb := b.Route(key)
		if ba != bb || ha != hb || (ea == nil) != (eb == nil) {
			t.Fatalf("op %d key %s: diverged (%d,%v,%v) vs (%d,%v,%v)", op, key, ba, ha, ea, bb, hb, eb)
		}
		if r.Intn(3) == 0 {
			a.Release(key, ba)
			b.Release(key, bb)
		}
	}
	checkInvariants(t, a)
	checkInvariants(t, b)
}

func TestAffinityZeroProbes(t *testing.T) {
	m := New(Config{Bins: 8, Policy: Adaptive(), Seed: 1, HotShare: 1})
	first, probes, hit, err := m.Route("user-7")
	if err != nil || hit || probes == 0 {
		t.Fatalf("first contact: bin %d probes %d hit %v err %v", first, probes, hit, err)
	}
	for i := 0; i < 100; i++ {
		bin, probes, hit, err := m.Route("user-7")
		if err != nil || !hit || probes != 0 || bin != first {
			t.Fatalf("repeat %d: bin %d (want %d) probes %d hit %v err %v", i, bin, first, probes, hit, err)
		}
	}
	st := m.Stats()
	if st.AffinityHits != 100 || st.AffinityMisses != 1 {
		t.Fatalf("hits %d misses %d, want 100/1", st.AffinityHits, st.AffinityMisses)
	}
	if got := st.AffinityHitRate; got < 0.99*(100.0/101) || got > 1 {
		t.Fatalf("hit rate %v", got)
	}
}

// TestAdaptiveEnvelopeVsHash is the PR's deterministic balance gate:
// at fixed seeds with K=8 bins under Zipf key traffic, the
// keyed-adaptive assignment keeps the max per-bin key count within
// ceil(i/K)+2 at every prefix (i = live keys), while pure hash
// affinity blows past that envelope at the same seeds.
func TestAdaptiveEnvelopeVsHash(t *testing.T) {
	const K = 8
	adaptiveMap := New(Config{Bins: K, Policy: Adaptive(), Seed: 99, HotShare: 1})
	hashMap := New(Config{Bins: K, Policy: Hash(), Seed: 99, HotShare: 1})
	zipf := rand.NewZipf(rand.New(rand.NewSource(7)), 1.3, 1, 20000)
	hashExceeded := false
	var keys int64
	for op := 0; op < 12000; op++ {
		key := fmt.Sprintf("k%d", zipf.Uint64())
		_, _, hit, err := adaptiveMap.Route(key)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := hashMap.Route(key); err != nil {
			t.Fatal(err)
		}
		if !hit {
			keys++
		}
		bound := (keys+K-1)/K + 2
		if got := maxBinLoad(adaptiveMap); got > bound {
			t.Fatalf("op %d: adaptive max key load %d exceeds ceil(%d/%d)+2 = %d", op, got, keys, K, bound)
		}
		if maxBinLoad(hashMap) > bound {
			hashExceeded = true
		}
	}
	if keys < 1000 {
		t.Fatalf("only %d distinct keys drawn; gate needs more", keys)
	}
	if !hashExceeded {
		t.Fatalf("hash affinity stayed within ceil(i/%d)+2 over %d keys — gate not discriminating", K, keys)
	}
	checkInvariants(t, adaptiveMap)
	checkInvariants(t, hashMap)
}

// TestSetDownDisruptionBound is the PR's deterministic disruption
// gate: killing a bin moves only the keys resident on it (moved ≤
// resident, shed accounted separately), every key still maps to
// healthy bins, and the post-rebalance max load respects the policy
// bound.
func TestSetDownDisruptionBound(t *testing.T) {
	const K = 8
	m := New(Config{Bins: K, Policy: Adaptive(), Seed: 5, HotShare: 1})
	for i := 0; i < 2000; i++ {
		if _, _, _, err := m.Route(fmt.Sprintf("k%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	resident := m.Stats().PerBinKeys[3]
	total := m.Stats().Keys
	moved, shed := m.SetDown(3)
	if moved > resident {
		t.Fatalf("moved %d keys, only %d were resident on the dead bin", moved, resident)
	}
	if moved+shed >= total/2 {
		t.Fatalf("disruption %d+%d is not minimal against %d total keys", moved, shed, total)
	}
	checkInvariants(t, m)
	st := m.Stats()
	if st.PerBinKeys[3] != 0 {
		t.Fatalf("dead bin still holds %d keys", st.PerBinKeys[3])
	}
	bound := (st.Replicas+K-2)/(K-1) + 1
	if st.MaxKeyLoad > bound {
		t.Fatalf("post-rebalance max key load %d exceeds policy bound %d", st.MaxKeyLoad, bound)
	}
	if st.MovedKeys != moved || st.ShedKeys != shed {
		t.Fatalf("stats moved/shed %d/%d, returns %d/%d", st.MovedKeys, st.ShedKeys, moved, shed)
	}
	// Keys away from the dead bin kept their assignment: spot-check
	// that affinity still answers (hit, healthy bin).
	for i := 0; i < 2000; i += 37 {
		bin, _, hit, err := m.Route(fmt.Sprintf("k%d", i))
		if err != nil || !hit {
			t.Fatalf("key k%d after rebalance: hit %v err %v", i, hit, err)
		}
		if bin == 3 {
			t.Fatalf("key k%d routed to the dead bin", i)
		}
	}
}

func TestSetUpNoReassignment(t *testing.T) {
	m := New(Config{Bins: 4, Policy: Adaptive(), Seed: 11, HotShare: 1})
	for i := 0; i < 200; i++ {
		m.Route(fmt.Sprintf("k%d", i))
	}
	m.SetDown(1)
	movedBefore := m.Stats().MovedKeys
	m.SetUp(1)
	if got := m.Stats().MovedKeys; got != movedBefore {
		t.Fatalf("SetUp moved keys: %d -> %d", movedBefore, got)
	}
	if m.Stats().PerBinKeys[1] != 0 {
		t.Fatalf("rejoined bin gained keys without traffic")
	}
	// New keys can land on the rejoined (emptiest) bin again.
	landed := false
	for i := 200; i < 600; i++ {
		if bin, _, _, _ := m.Route(fmt.Sprintf("k%d", i)); bin == 1 {
			landed = true
			break
		}
	}
	if !landed {
		t.Fatalf("no new key landed on the rejoined bin")
	}
	checkInvariants(t, m)
}

func TestMoveOffFailover(t *testing.T) {
	m := New(Config{Bins: 6, Policy: Adaptive(), Seed: 2, HotShare: 1})
	bin, _, _, err := m.Route("payments")
	if err != nil {
		t.Fatal(err)
	}
	next, err := m.MoveOff("payments", bin, []int{bin})
	if err != nil || next == bin {
		t.Fatalf("MoveOff: %d -> %d, %v", bin, next, err)
	}
	got, _, hit, _ := m.Route("payments")
	if !hit || got != next {
		t.Fatalf("after MoveOff, Route gave %d (hit %v), want %d", got, hit, next)
	}
	if m.Stats().MovedKeys != 1 {
		t.Fatalf("moved %d, want 1", m.Stats().MovedKeys)
	}
	// Unknown keys are assigned fresh, avoiding the failed bins.
	fresh, err := m.MoveOff("unseen", 0, []int{0, 1, 2})
	if err != nil || fresh == 0 || fresh == 1 || fresh == 2 {
		t.Fatalf("fresh MoveOff gave %d, %v", fresh, err)
	}
	checkInvariants(t, m)
}

func TestHotKeyPromotion(t *testing.T) {
	m := New(Config{Bins: 8, Policy: Adaptive(), Seed: 17, Replicas: 2, HotShare: 0.2, HotMinHits: 64})
	for i := 0; i < 60; i++ {
		m.Route(fmt.Sprintf("cold%d", i))
	}
	bins := make(map[int]int64)
	for i := 0; i < 400; i++ {
		bin, _, _, err := m.Route("celebrity")
		if err != nil {
			t.Fatal(err)
		}
		bins[bin]++
	}
	st := m.Stats()
	if st.HotKeys != 1 || st.Promoted != 1 {
		t.Fatalf("hot keys %d promoted %d, want 1/1", st.HotKeys, st.Promoted)
	}
	if len(bins) != 2 {
		t.Fatalf("hot key hit %d bins, want its 2 replicas (%v)", len(bins), bins)
	}
	for bin, n := range bins {
		if n < 100 {
			t.Fatalf("replica %d took only %d of 400 requests — two-choices not balancing (%v)", bin, n, bins)
		}
	}
	// Cold keys stay single-replica.
	if st.Replicas != st.Keys+1 {
		t.Fatalf("replicas %d keys %d: expected exactly one extra replica", st.Replicas, st.Keys)
	}
	checkInvariants(t, m)
}

func TestReleaseAndIdleEviction(t *testing.T) {
	m := New(Config{Bins: 4, Policy: Adaptive(), Seed: 3, MaxKeys: 4, HotShare: 1})
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("k%d", i)
		bin, _, _, _ := m.Route(key)
		m.Release(key, bin)
	}
	// Key k4 pushes the table over MaxKeys: the least recently routed
	// idle key (k0) is evicted.
	m.Route("k4")
	st := m.Stats()
	if st.Keys != 4 || st.IdleEvicted != 1 {
		t.Fatalf("keys %d idleEvicted %d, want 4/1", st.Keys, st.IdleEvicted)
	}
	if _, ok := m.entries["k0"]; ok {
		t.Fatalf("k0 survived idle eviction")
	}
	// Busy keys (live balls) are never evicted: k1..k4 hold a ball
	// each; adding more keys exceeds the cap rather than evicting them.
	for i := 1; i <= 4; i++ {
		m.Route(fmt.Sprintf("k%d", i))
	}
	m.Route("k5")
	if _, ok := m.entries["k1"]; !ok {
		t.Fatalf("busy key k1 was evicted")
	}
	if m.Stats().Keys != 5 {
		t.Fatalf("keys %d, want 5 (cap exceeded rather than evicting busy keys)", m.Stats().Keys)
	}
	checkInvariants(t, m)
}

func TestLiveBallBooks(t *testing.T) {
	m := New(Config{Bins: 4, Policy: Adaptive(), Seed: 9, HotShare: 1})
	bins := make([]int, 0, 10)
	for i := 0; i < 10; i++ {
		bin, _, _, _ := m.Route("sess")
		bins = append(bins, bin)
	}
	if got := m.Stats().LiveBalls; got != 10 {
		t.Fatalf("live balls %d, want 10", got)
	}
	for _, bin := range bins {
		m.Release("sess", bin)
	}
	if got := m.Stats().LiveBalls; got != 0 {
		t.Fatalf("live balls %d after releases, want 0", got)
	}
	m.Release("sess", bins[0]) // over-release: clamped, not negative
	if got := m.Stats().LiveBalls; got != 0 {
		t.Fatalf("live balls %d after over-release", got)
	}
}

func TestThresholdAndBoundedRetryPolicies(t *testing.T) {
	th, err := PolicyByName("threshold", 2, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{Bins: 4, Policy: th, Seed: 1, HotShare: 1})
	for i := 0; i < 100; i++ {
		m.Route(fmt.Sprintf("k%d", i))
	}
	if got, bound := maxBinLoad(m), int64(100/4+1+1); got > bound {
		t.Fatalf("threshold max load %d > %d", got, bound)
	}
	br, err := PolicyByName("boundedretry", 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if br.MaxProbes(8) != 2 {
		t.Fatalf("boundedretry cap %d, want 2", br.MaxProbes(8))
	}
	checkInvariants(t, m)
}

// TestBoundedFallbackTakesLeastLoaded pins the fallback of a pick that
// found no accepting bin: under a rule with a Bound every probed bin
// holds at least the bound, so the pick takes the least loaded
// eligible bin instead of pushing a probed one past the bound; a rule
// with no Bound keeps its least loaded probe. Either way the key's
// draws and probe count are the rule's own.
func TestBoundedFallbackTakesLeastLoaded(t *testing.T) {
	const seed, bins = 5, 4
	// A key whose first ProbeCap(4) = 16 draws all miss bin 3.
	var key string
	for i := 0; key == ""; i++ {
		key = fmt.Sprintf("miss-%d", i)
		r := rng.New(keyStream(seed, key))
		for range protocol.ProbeCap(bins) {
			if r.Intn(bins) == 3 {
				key = ""
			}
		}
	}
	for _, tc := range []struct {
		policy  Policy
		toEmpty bool // lands on bin 3, the only bin under the bound
	}{
		{Adaptive(), true},
		{protocol.ThresholdRule(33), true},
		{protocol.RetryRule("boundedretry", 3), false},
		{Greedy(2), false},
		{Hash(), false},
	} {
		m := New(Config{Bins: bins, Policy: tc.policy, Seed: seed, HotShare: 1})
		for b, load := range []int{10, 10, 10, 2} {
			for j := range load {
				if err := m.Apply(Op{Type: OpAssign, Key: fmt.Sprintf("b%d-%d", b, j), To: b}); err != nil {
					t.Fatal(err)
				}
			}
		}
		bin, probes, _, err := m.Route(key)
		if err != nil {
			t.Fatal(err)
		}
		if want := tc.policy.MaxProbes(bins); probes != want {
			t.Errorf("%s: %d probes, want %d", tc.policy.Name(), probes, want)
		}
		if (bin == 3) != tc.toEmpty {
			t.Errorf("%s: key landed on bin %d (loads 10, 10, 10, 2 before it)", tc.policy.Name(), bin)
		}
		if bound, ok := tc.policy.Bound(bins, 33); ok && maxBinLoad(m) > bound {
			t.Errorf("%s: max bin load %d above the bound %d", tc.policy.Name(), maxBinLoad(m), bound)
		}
		checkInvariants(t, m)
	}
}

func TestPolicyNames(t *testing.T) {
	cases := []struct{ in, want string }{
		{"hash", "hash"},
		{"affinity", "hash"},
		{"greedy", "greedy[2]"},
		{"greedy3", "greedy[3]"},
		{"adaptive", "adaptive"},
		{"boundedretry", "boundedretry[3]"},
	}
	for _, c := range cases {
		p, err := PolicyByName(c.in, 2, 3, 0)
		if err != nil {
			t.Fatalf("%s: %v", c.in, err)
		}
		if p.Name() != c.want {
			t.Fatalf("%s -> %s, want %s", c.in, p.Name(), c.want)
		}
	}
	if _, err := PolicyByName("bogus", 2, 3, 0); err == nil {
		t.Fatalf("bogus policy accepted")
	}
	if _, err := PolicyByName("threshold", 2, 3, 0); err == nil {
		t.Fatalf("threshold without horizon accepted")
	}
	for in, want := range map[string]string{
		"keyed[adaptive]": "adaptive",
		"keyed-greedy2":   "greedy2",
		"keyed":           "adaptive",
		"KEYED[hash]":     "hash",
	} {
		inner, ok := SplitName(in)
		if !ok || inner != want {
			t.Fatalf("SplitName(%q) = %q,%v want %q", in, inner, ok, want)
		}
	}
	if _, ok := SplitName("adaptive"); ok {
		t.Fatalf("SplitName claimed plain policy is keyed")
	}
}

// TestConcurrentOps exercises the mutex under -race: routes, releases
// and membership flaps from many goroutines.
func TestConcurrentOps(t *testing.T) {
	m := New(Config{Bins: 8, Policy: Adaptive(), Seed: 21})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 2000; i++ {
				key := fmt.Sprintf("k%d", r.Intn(200))
				bin, _, _, err := m.Route(key)
				if err == nil && r.Intn(2) == 0 {
					m.Release(key, bin)
				}
				if i%500 == 0 {
					m.Stats()
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			m.SetDown(i % 4)
			m.SetUp(i % 4)
		}
	}()
	wg.Wait()
	for b := 0; b < 4; b++ {
		m.SetUp(b)
	}
	checkInvariants(t, m)
}
