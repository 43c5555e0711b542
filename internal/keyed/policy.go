package keyed

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/protocol"
)

// Policy is a keyed placement rule: a protocol.Rule whose bins are
// the healthy bins, whose loads are the key replicas resident on each,
// and whose retries are further draws from the key's deterministic
// probe sequence. The keyed names are hash (alias affinity),
// greedy[d], adaptive, threshold[m] and boundedretry[R];
// protocol.Rule tabulates their acceptance tests, probe caps and
// bounds. Bound is the rebalancer's shedding threshold.
//
// Probe caps apply per pick (one assignment decision), not per
// request: repeat traffic for an assigned key costs zero probes, and
// a rebalance re-probes each affected key as one fresh pick.
type Policy = protocol.Rule

// Adaptive returns the adaptive policy — the default for every keyed
// tier in the system.
func Adaptive() Policy { return protocol.AdaptiveRule() }

// Hash returns the hash-affinity baseline: the key's first healthy
// probe, unconditionally.
func Hash() Policy { return protocol.FirstRule("hash") }

// Greedy returns the d-choice policy.
func Greedy(d int) Policy {
	if d < 1 {
		panic("keyed: Greedy needs d >= 1")
	}
	return protocol.GreedyRule(d)
}

// Policies lists the names PolicyByName accepts, sorted.
func Policies() []string {
	return []string{"adaptive", "boundedretry", "greedy", "hash", "threshold"}
}

// PolicyByName resolves a keyed policy from the shared protocol
// vocabulary: hash (alias affinity), greedy (uses d; a trailing digit
// like "greedy2" overrides it), adaptive, threshold (requires
// horizon > 0), boundedretry (uses retries).
func PolicyByName(name string, d, retries int, horizon int64) (Policy, error) {
	name = strings.ToLower(strings.TrimSpace(name))
	if rest, ok := strings.CutPrefix(name, "greedy"); ok && rest != "" {
		if v, err := strconv.Atoi(rest); err == nil {
			name, d = "greedy", v
		}
	}
	switch name {
	case "hash", "affinity":
		return Hash(), nil
	case "greedy":
		if d < 1 {
			return nil, fmt.Errorf("keyed: greedy policy needs d >= 1, got %d", d)
		}
		return Greedy(d), nil
	case "adaptive":
		return Adaptive(), nil
	case "threshold":
		if horizon <= 0 {
			return nil, fmt.Errorf("keyed: threshold policy needs a positive horizon (declared total keys)")
		}
		return protocol.ThresholdRule(horizon), nil
	case "boundedretry", "retry":
		if retries < 1 {
			return nil, fmt.Errorf("keyed: boundedretry policy needs retries >= 1, got %d", retries)
		}
		return protocol.RetryRule("boundedretry", retries), nil
	default:
		return nil, fmt.Errorf("keyed: unknown policy %q (want one of %s)",
			name, strings.Join(Policies(), ", "))
	}
}

// AnonAnalogue maps a keyed inner policy name to the anonymous
// routing policy that unkeyed traffic should use alongside it: hash
// has none (its analogue is single-choice), a greedyN suffix unfolds
// into d, every other name maps to itself. cluster.ResolvePolicy
// applies it for both bbproxy and bbload.
func AnonAnalogue(inner string, d int) (name string, outD int) {
	name = strings.ToLower(strings.TrimSpace(inner))
	if rest, ok := strings.CutPrefix(name, "greedy"); ok && rest != "" {
		if v, err := strconv.Atoi(rest); err == nil {
			name, d = "greedy", v
		}
	}
	if name == "hash" || name == "affinity" {
		name = "single"
	}
	return name, d
}

// SplitName recognizes the keyed policy spellings used by the CLI
// tools — "keyed[adaptive]", "keyed-greedy2", "keyed" (bare: the
// default adaptive) — and returns the inner policy name. ok is false
// for plain (anonymous-routing) policy names.
func SplitName(name string) (inner string, ok bool) {
	name = strings.TrimSpace(name)
	lower := strings.ToLower(name)
	switch {
	case strings.HasPrefix(lower, "keyed[") && strings.HasSuffix(name, "]"):
		return name[len("keyed[") : len(name)-1], true
	case strings.HasPrefix(lower, "keyed-"):
		return name[len("keyed-"):], true
	case lower == "keyed":
		return "adaptive", true
	default:
		return "", false
	}
}
