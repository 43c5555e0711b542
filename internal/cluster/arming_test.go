package cluster

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	ballsbins "repro"
	"repro/internal/keyed"
	"repro/internal/serve"
	"repro/internal/watch"
)

// TestWatchArming pins which invariants the proxy watchdog arms after
// one tick, and their bounds and fields: the cross-backend check under
// every routing policy whose Rule has a Bound, with anonymous traffic
// and no fallback pick, the keyed check under every keyed policy that
// defends a bound.
func TestWatchArming(t *testing.T) {
	const k, n, horizon = 3, 64, 300
	for _, tc := range []struct {
		policy string // cluster name, or keyed[P] for a keyed router
		checks string
	}{
		{"single", ""},
		{"greedy", ""},
		{"adaptive", "cluster_backend_max 73/124 map[balls:203 bulk_slack:56 healthy:3 horizon:203]"},
		{"threshold", "cluster_backend_max 92/156 map[balls:203 bulk_slack:56 healthy:3 horizon:203]"},
		{"boundedretry", ""},
		{"fixed", "cluster_backend_max 92/145 map[balls:203 bulk_slack:56 healthy:3 horizon:203]"},
		{"keyed[hash]", ""},
		{"keyed[greedy]", ""},
		{"keyed[adaptive]", "cluster_keyed_max 11/12 map[healthy_backends:3 keys:30 replicas:30]"},
		{"keyed[threshold]", "cluster_keyed_max 11/102 map[healthy_backends:3 keys:30 replicas:30]"},
		{"keyed[boundedretry]", ""},
	} {
		t.Run(tc.policy, func(t *testing.T) {
			name, d := tc.policy, 2
			var kc *keyed.Config
			if inner, ok := keyed.SplitName(name); ok {
				kp, err := keyed.PolicyByName(inner, d, 3, horizon)
				if err != nil {
					t.Fatal(err)
				}
				kc = &keyed.Config{Policy: kp, HotShare: 1}
				name, d = keyed.AnonAnalogue(inner, d)
			}
			pol, err := PolicyByName(name, d, 3, 90, horizon)
			if err != nil {
				t.Fatal(err)
			}
			backends := make([]Backend, k)
			for i := range backends {
				ds := serve.NewDispatcher(serve.Config{
					Spec: ballsbins.Adaptive(), N: n, Shards: 1, Seed: uint64(20 + i),
					Watch: watch.Options{Disabled: true},
				})
				t.Cleanup(ds.Close)
				backends[i] = &InprocBackend{D: ds, Label: fmt.Sprintf("b%d", i)}
			}
			rt := NewRouter(Config{
				Backends: backends, BinsPerBackend: n, Policy: pol, Seed: 4,
				Keyed: kc, Watch: watch.Options{Cadence: time.Hour},
			})
			t.Cleanup(rt.Close)
			ctx := context.Background()
			for _, b := range skewBulks(2, 200) {
				if _, _, err := rt.Place(ctx, b); err != nil {
					t.Fatal(err)
				}
			}
			if kc != nil {
				for i := 0; i < 90; i++ {
					if _, _, err := rt.PlaceKeyed(ctx, fmt.Sprintf("k%d", i%30)); err != nil {
						t.Fatal(err)
					}
				}
			}
			rt.Watch().Tick(time.Now())
			var got []string
			for _, c := range rt.Watch().LastChecks() {
				got = append(got, fmt.Sprintf("%s %d/%d %v", c.Invariant, c.Observed, c.Bound, c.Fields))
			}
			if got := strings.Join(got, ", "); got != tc.checks {
				t.Errorf("%s checks:\n got  %s\n want %s", rt.Policy(), got, tc.checks)
			}
		})
	}
}
