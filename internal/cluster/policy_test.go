package cluster

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// TestRouterPolicyGolden routes one fixed script of bulks, with
// removals, through each routing policy over exact in-proc views, and
// pins the routing record: picks, probes, fallbacks and every slot's
// balls. Any change to a policy's acceptance test, probe cap, fallback
// or RNG draws moves one of these numbers.
func TestRouterPolicyGolden(t *testing.T) {
	const k, n, seed = 4, 64, 5
	bulks := skewBulks(11, 600)
	for _, tc := range []struct {
		name              string
		d, retries, bound int
		horizon           int64
		probes, fallbacks int64
		balls             string
	}{
		{name: "single", probes: 142, balls: "120 198 132 135"},
		{name: "greedy", d: 2, probes: 284, balls: "137 148 151 149"},
		{name: "adaptive", probes: 309, balls: "165 135 139 146"},
		{name: "threshold", horizon: 200, probes: 1493, fallbacks: 90, balls: "136 141 142 166"},
		{name: "boundedretry", retries: 3, probes: 224, fallbacks: 16, balls: "175 138 127 145"},
		{name: "fixed", bound: 100, probes: 735, fallbacks: 38, balls: "142 166 135 142"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pol, err := PolicyByName(tc.name, tc.d, tc.retries, tc.bound, tc.horizon)
			if err != nil {
				t.Fatal(err)
			}
			rt, _ := newInprocCluster(t, k, n, pol, seed)
			ctx := context.Background()
			var placed []int
			for j, b := range bulks {
				bins, _, err := rt.Place(ctx, b)
				if err != nil {
					t.Fatalf("Place(%d): %v", b, err)
				}
				placed = append(placed, bins...)
				if j%4 == 3 {
					// Departures lower the live count the adaptive
					// family accepts against.
					bin := placed[len(placed)/2]
					placed = append(placed[:len(placed)/2], placed[len(placed)/2+1:]...)
					if err := rt.Remove(ctx, bin); err != nil {
						t.Fatalf("Remove(%d): %v", bin, err)
					}
				}
			}
			st := rt.Stats()
			balls := make([]string, len(st.Rows))
			for i, row := range st.Rows {
				balls[i] = fmt.Sprint(row.Balls)
			}
			got := fmt.Sprintf("picks=%d probes=%d fallbacks=%d balls=%s",
				st.Picks, st.Probes, st.Fallbacks, strings.Join(balls, " "))
			want := fmt.Sprintf("picks=%d probes=%d fallbacks=%d balls=%s",
				len(bulks), tc.probes, tc.fallbacks, tc.balls)
			if got != want {
				t.Errorf("%s:\n got  %s\n want %s", st.Policy, got, want)
			}
		})
	}
}
