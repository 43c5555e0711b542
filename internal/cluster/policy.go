package cluster

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/keyed"
	"repro/internal/protocol"
)

// Policy chooses a backend for one request: a protocol.Rule whose bins
// are the healthy backends and whose loads are the stale LoadView
// estimates of their ball counts. The routing names are single (alias
// random), greedy[d], adaptive, threshold[m], threshold-retry[R] and
// fixed[<b]; protocol.Rule tabulates their acceptance tests, probe
// caps and bounds.
type Policy = protocol.Rule

// Policies lists the names PolicyByName accepts, sorted.
func Policies() []string {
	names := []string{"single", "random", "greedy", "adaptive", "threshold", "boundedretry", "fixed"}
	sort.Strings(names)
	return names
}

// PolicyByName resolves a routing policy from the shared protocol
// vocabulary: single (alias random), greedy (uses d), adaptive,
// threshold (requires horizon > 0), boundedretry (uses retries), fixed
// (uses bound).
func PolicyByName(name string, d, retries, bound int, horizon int64) (Policy, error) {
	switch strings.ToLower(name) {
	case "single", "random":
		return protocol.FirstRule("single"), nil
	case "greedy":
		if d < 1 {
			return nil, fmt.Errorf("cluster: greedy policy needs d >= 1, got %d", d)
		}
		return protocol.GreedyRule(d), nil
	case "adaptive":
		return protocol.AdaptiveRule(), nil
	case "threshold":
		if horizon <= 0 {
			return nil, fmt.Errorf("cluster: threshold policy needs a positive horizon (declared total balls)")
		}
		return protocol.ThresholdRule(horizon), nil
	case "boundedretry", "retry":
		if retries < 1 {
			return nil, fmt.Errorf("cluster: boundedretry policy needs retries >= 1, got %d", retries)
		}
		return protocol.RetryRule("threshold-retry", retries), nil
	case "fixed":
		if bound < 1 {
			return nil, fmt.Errorf("cluster: fixed policy needs bound >= 1, got %d", bound)
		}
		return protocol.FixedRule(int64(bound)), nil
	default:
		return nil, fmt.Errorf("cluster: unknown policy %q (want one of %s)",
			name, strings.Join(Policies(), ", "))
	}
}

// ResolvePolicy resolves a router's -policy value. A plain name is an
// anonymous routing policy (PolicyByName). A keyed name ("keyed[P]",
// "keyed-P", bare "keyed" for adaptive) also returns keyed policy P
// for the keyed tier, and unkeyed traffic routes under P's anonymous
// analogue (keyed.AnonAnalogue: P itself, except hash → single).
// keyedPolicy is nil for a plain name.
func ResolvePolicy(name string, d, retries, bound int, horizon int64) (anon, keyedPolicy Policy, err error) {
	if inner, ok := keyed.SplitName(name); ok {
		if keyedPolicy, err = keyed.PolicyByName(inner, d, retries, horizon); err != nil {
			return nil, nil, err
		}
		name, d = keyed.AnonAnalogue(inner, d)
	}
	if anon, err = PolicyByName(name, d, retries, bound, horizon); err != nil {
		return nil, nil, err
	}
	return anon, keyedPolicy, nil
}
