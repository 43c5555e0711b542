package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	ballsbins "repro"
	"repro/internal/watch"
)

// armed renders one tick's checks as "invariant observed/bound" lines,
// in evaluation order.
func armed(m *watch.Monitor) string {
	m.Tick(time.Now())
	var out []string
	for _, c := range m.LastChecks() {
		out = append(out, fmt.Sprintf("%s %d/%d", c.Invariant, c.Observed, c.Bound))
	}
	return strings.Join(out, ", ")
}

// TestWatchArming pins which invariants the serve watchdog arms for
// each spec, with and without keyed traffic, and the bounds it checks
// them against: every spec whose rule has a Bound (the adaptive
// family, threshold, fixed) arms the per-shard and global max-load
// checks (the global one only while all traffic is anonymous), every
// spec keeps the books and keyed checks, and no keyed place is refused
// with ErrFull below capacity.
func TestWatchArming(t *testing.T) {
	for _, tc := range []struct {
		name    string
		spec    ballsbins.Spec
		keyed   bool
		refused bool
		checks  string
	}{
		{"adaptive", ballsbins.Adaptive(), false, false,
			"serve_shard_max 3/3, serve_books 0/0, serve_global_max 3/3, serve_keyed_max 0/2"},
		{"adaptive", ballsbins.Adaptive(), true, false,
			"serve_shard_max 5/5, serve_books 0/0, serve_keyed_max 21/22"},
		{"adaptive-noslack", ballsbins.AdaptiveNoSlack(), false, false,
			"serve_shard_max 2/3, serve_books 0/0, serve_global_max 2/3, serve_keyed_max 0/2"},
		{"adaptive-noslack", ballsbins.AdaptiveNoSlack(), true, false,
			"serve_shard_max 4/5, serve_books 0/0, serve_keyed_max 21/22"},
		{"threshold", ballsbins.Threshold(), false, false,
			"serve_shard_max 7/8, serve_books 0/0, serve_global_max 7/8, serve_keyed_max 0/2"},
		{"threshold", ballsbins.Threshold(), true, false,
			"serve_shard_max 8/8, serve_books 0/0, serve_keyed_max 21/22"},
		{"greedy[2]", ballsbins.Greedy(2), false, false,
			"serve_books 0/0, serve_keyed_max 0/2"},
		{"greedy[2]", ballsbins.Greedy(2), true, false,
			"serve_books 0/0, serve_keyed_max 21/22"},
		{"fixed[<8]", ballsbins.FixedThreshold(8), false, false,
			"serve_shard_max 7/8, serve_books 0/0, serve_global_max 7/8, serve_keyed_max 0/2"},
		{"fixed[<8]", ballsbins.FixedThreshold(8), true, false,
			"serve_shard_max 8/8, serve_books 0/0, serve_keyed_max 21/22"},
	} {
		t.Run(fmt.Sprintf("%s/keyed=%v", tc.name, tc.keyed), func(t *testing.T) {
			d := NewDispatcher(Config{
				Spec: tc.spec, N: 64, Shards: 2, Seed: 3, Horizon: 400,
				Watch: watch.Options{Cadence: time.Hour},
			})
			t.Cleanup(d.Close)
			ctx := context.Background()
			for i := 0; i < 128; i++ {
				if _, _, err := d.Place(ctx); err != nil {
					t.Fatal(err)
				}
			}
			refused := false
			if tc.keyed {
				for i := 0; i < 120; i++ {
					_, _, err := d.PlaceKeyed(ctx, fmt.Sprintf("k%d", i%40))
					if errors.Is(err, ErrFull) {
						refused = true
						break
					}
					if err != nil {
						t.Fatal(err)
					}
				}
			}
			if refused != tc.refused {
				t.Errorf("keyed refusal = %v want %v", refused, tc.refused)
			}
			if got := armed(d.Watch()); got != tc.checks {
				t.Errorf("checks:\n got  %s\n want %s", got, tc.checks)
			}
		})
	}
}
