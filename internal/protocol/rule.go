package protocol

import "fmt"

// Accepts is the paper's acceptance test in exact integers: a bin
// holding load balls takes ball i of a run over k bins iff its load is
// below i/k + 1, that is k·(load−1) < i.
func Accepts(k int, load, i int64) bool { return int64(k)*(load-1) < i }

// ProbeCap is the probe budget of an unbounded acceptance loop in a
// serving tier: 4 probes per bin, at least 8. A pick that exhausts it
// is working from a view that is evidently out of date, and the
// least-loaded fallback takes over.
func ProbeCap(k int) int { return max(4*k, 8) }

// Rule is one of the protocols' acceptance rules, stated once for
// every tier that places by it. In a routing tier the bins are the
// tier's k healthy backends (internal/cluster) or bins
// (internal/keyed), a bin's load is the tier's view of its count, and
// a protocol retry is one more probe. A pick is Pick: it probes up to
// MaxProbes uniform bins, takes the first that Accept admits, and
// otherwise falls back to the least loaded bin it probed: the
// BoundedRetry construction, so that a pick terminates even when a
// stale view claims every bin is full. The engine protocols that
// defend a bound are Ruled: their Rule states it, and a serving tier
// refuses a place that would not Fit.
//
//	rule          cluster name        keyed name       engine specs (Ruled)     accepts a bin when   probes    Bound
//	────────────  ──────────────────  ───────────────  ───────────────────────  ───────────────────  ────────  ───────
//	first probe   single              hash             —                        always               1         none
//	greedy[d]     greedy[d]           greedy[d]        —                        never: least of d    d         none
//	adaptive      adaptive            adaptive         adaptive, -noslack,      k·(load−1) < i       ProbeCap  ⌈i/k⌉+1
//	                                                   -stale[B], -lag[L]
//	threshold[m]  threshold[m]        threshold[m]     threshold                k·(load−1) < m       ProbeCap  ⌈m/k⌉+1
//	retry[R]      threshold-retry[R]  boundedretry[R]  —                        k·(load−1) < i       R         none
//	fixed[<b]     fixed[<b]           —                fixed[<b]                load < b             ProbeCap  b
//
// i is the tier's live count including the ball being placed, so no
// horizon is needed and departures lower the bound. The adaptive
// variants' own tests are the adaptive one or stricter. The retry rule
// tests that live count, the engine's BoundedRetry tests the horizon m,
// and neither defends a bound, so threshold-retry[R] is not Ruled; nor
// are single, greedy, left, memory and (1+β).
// A rule that refuses even an empty bin (greedy) takes the least
// loaded of its probes by design; for every other rule that outcome is
// a fallback, and the chosen bin never passed the test.
type Rule interface {
	// Name identifies the rule in its tier's vocabulary ("single",
	// "hash", "greedy[2]", "adaptive", ...).
	Name() string
	// Accept reports whether a bin holding load balls may take one
	// more, when the tier will hold i balls (the new one included)
	// across k bins.
	Accept(k int, load, i int64) bool
	// MaxProbes caps the probes of one pick over k bins.
	MaxProbes(k int) int
	// Bound returns the largest per-bin count the rule defends at i
	// balls over k bins: a bin Accept admits stays within it. ok is
	// false when k <= 0, for the rules with no load guarantee (first
	// probe, greedy), and for retry, whose fallback may legitimately
	// exceed the adaptive bound.
	Bound(k int, i int64) (bound int64, ok bool)
}

// Ruled is implemented by the engine protocols that defend a bound:
// no placement of theirs leaves a bin above Rule's Bound.
type Ruled interface {
	Rule() Rule
}

// BoundOf is r.Bound(k, i), with ok false for a nil rule: a tier
// whose spec is not Ruled defends no bound.
func BoundOf(r Rule, k int, i int64) (bound int64, ok bool) {
	if r == nil {
		return 0, false
	}
	return r.Bound(k, i)
}

// Pick is one pick of r over k bins at live count i, the BoundedRetry
// loop of every routing tier. draw returns the tier's next bin and its
// load, with ok false for a bin the tier skips (down, avoided); a
// skipped draw costs no probe. Pick draws at most budget times and
// probes at most r.MaxProbes(k) bins. It returns the first bin Accept
// admits (accepted), else the least loaded bin probed (the first
// minimum wins), else −1 when no draw was probed.
func Pick(r Rule, k int, i int64, budget int, draw func() (bin int, load int64, ok bool)) (bin, probes int, accepted bool) {
	maxProbes := r.MaxProbes(k)
	bin = -1
	var least int64
	for ; probes < maxProbes && budget > 0; budget-- {
		b, load, ok := draw()
		if !ok {
			continue
		}
		probes++
		if r.Accept(k, load, i) {
			return b, probes, true
		}
		if bin < 0 || load < least {
			bin, least = b, load
		}
	}
	return bin, probes, false
}

// Fits reports whether more balls can join k bins holding balls under
// r: k·Bound(k, balls+more) − balls ≥ more. It is exact, because no
// bin ever exceeds Bound, so the room left below it is k·Bound − balls.
// It is true for a nil rule and for a rule with no Bound.
func Fits(r Rule, k int, balls, more int64) bool {
	b, ok := BoundOf(r, k, balls+more)
	return !ok || int64(k)*b-balls >= more
}

// ruleKind selects a rule's acceptance test.
type ruleKind uint8

const (
	ruleFirst ruleKind = iota
	ruleGreedy
	ruleAdaptive
	ruleThreshold
	ruleRetry
	ruleFixed
)

// rule is every Rule: a kind and its one parameter (d, m, R or b).
type rule struct {
	name string
	kind ruleKind
	n    int64
}

// FirstRule takes the first probe: random routing or pure hash
// affinity, under the tier's name for it ("single", "hash").
func FirstRule(name string) Rule { return rule{name, ruleFirst, 1} }

// GreedyRule is d-choice: it never accepts early, so a pick takes the
// least loaded of d probes (the first minimum wins).
func GreedyRule(d int) Rule { return rule{formatD("greedy", d), ruleGreedy, int64(d)} }

// AdaptiveRule is the paper's rule on live counts.
func AdaptiveRule() Rule { return rule{"adaptive", ruleAdaptive, 0} }

// ThresholdRule is the Czumaj–Stemann rule with a declared horizon of
// m balls.
func ThresholdRule(m int64) Rule { return rule{fmt.Sprintf("threshold[%d]", m), ruleThreshold, m} }

// RetryRule is the adaptive test capped at r probes, named base[r]
// ("threshold-retry", "boundedretry").
func RetryRule(base string, r int) Rule { return rule{formatD(base, r), ruleRetry, int64(r)} }

// FixedRule accepts a bin below an absolute count b: capacity routing.
func FixedRule(b int64) Rule { return rule{fmt.Sprintf("fixed[<%d]", b), ruleFixed, b} }

func (r rule) Name() string { return r.name }

func (r rule) Accept(k int, load, i int64) bool {
	switch r.kind {
	case ruleFirst:
		return true
	case ruleGreedy:
		return false
	case ruleThreshold:
		return Accepts(k, load, r.n)
	case ruleFixed:
		return load < r.n
	}
	return Accepts(k, load, i)
}

func (r rule) MaxProbes(k int) int {
	switch r.kind {
	case ruleFirst, ruleGreedy, ruleRetry:
		return int(r.n)
	}
	return ProbeCap(k)
}

func (r rule) Bound(k int, i int64) (int64, bool) {
	switch {
	case k <= 0:
		return 0, false
	case r.kind == ruleAdaptive:
		return MaxLoadBound(k, i), true
	case r.kind == ruleThreshold:
		return MaxLoadBound(k, r.n), true
	case r.kind == ruleFixed:
		return r.n, true
	}
	return 0, false
}
