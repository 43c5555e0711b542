package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	ballsbins "repro"
	"repro/internal/cluster"
	"repro/internal/keyed"
	"repro/internal/serve"
)

// serveTier is a bbserved's dispatch core.
func serveTier(t *testing.T) serve.Tier {
	d := serve.NewDispatcher(serve.Config{Spec: ballsbins.Adaptive(), N: 64, Shards: 4, Seed: 1})
	t.Cleanup(d.Close)
	return d
}

// proxyTier is a bbproxy's keyed router over two in-process backends.
func proxyTier(t *testing.T) serve.Tier {
	var bks []cluster.Backend
	for i := 0; i < 2; i++ {
		bks = append(bks, &cluster.InprocBackend{D: serveTier(t), Label: fmt.Sprintf("b%d", i)})
	}
	policy, err := cluster.PolicyByName("adaptive", 2, 3, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rt := cluster.NewRouter(cluster.Config{Backends: bks, BinsPerBackend: 64, Policy: policy, Seed: 1,
		Keyed: &keyed.Config{}})
	t.Cleanup(rt.Close)
	return rt
}

// TestRenderKeyedLine renders a frame polled from each tier after
// keyed traffic: both show the keyed line, read from wherever the tier
// serves its keyed block, and each draws its own load bars.
func TestRenderKeyedLine(t *testing.T) {
	for _, tc := range []struct {
		name string
		tier serve.Tier
		bars string
	}{{"serve", serveTier(t), "shard 0"}, {"proxy", proxyTier(t), "policy="}} {
		srv := httptest.NewServer(serve.NewHandler(tc.tier, serve.Info{Protocol: tc.name, N: tc.tier.N()}))
		t.Cleanup(srv.Close)
		for i := 0; i < 8; i++ {
			if _, _, err := tc.tier.PlaceBalls(context.Background(), fmt.Sprintf("k%d", i%3), 1); err != nil {
				t.Fatal(err)
			}
		}
		f, err := poll(cluster.NewHTTPBackend(srv.URL), 10)
		if err != nil {
			t.Fatalf("%s: poll: %v", tc.name, err)
		}
		out := render(f, 8, false)
		for _, want := range []string{"keys 3  hit 0.625", tc.bars} {
			if !strings.Contains(out, want) {
				t.Errorf("%s frame lacks %q:\n%s", tc.name, want, out)
			}
		}
		if !strings.Contains(string(f.Stats), `"info"`) {
			t.Errorf("%s frame does not carry the raw stats document: %s", tc.name, f.Stats)
		}
	}
}
