package cluster

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/obs"
	"repro/internal/serve"
)

func postTraced(t *testing.T, url, trace string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.Header, trace)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

// TestProxyAssembledTraceByID exercises GET /v1/trace/{id} on the
// proxy over real HTTP backends: one traced place through the proxy's
// public handler must assemble into a two-hop tree — the proxy op
// parenting the serve op it forwarded to — gathered from the proxy's
// own ring plus the backend rings.
func TestProxyAssembledTraceByID(t *testing.T) {
	rt, _ := newTracedTier(t, "http")
	ps := httptest.NewServer(serve.NewHandler(rt, serve.Info{Protocol: "greedy"}))
	t.Cleanup(ps.Close)

	const id = uint64(0xabcd1234)
	hex := obs.FormatTrace(id)
	decode[serve.PlaceResponse](t, postTraced(t, ps.URL+"/v1/place", hex), http.StatusOK)

	at := decode[obs.AssembledTraceResponse](t,
		get(t, ps.URL+"/v1/trace/"+hex), http.StatusOK)
	if at.Trace != hex {
		t.Fatalf("trace = %q, want %q", at.Trace, hex)
	}
	// Every ring was consulted: the proxy's plus both live backends.
	if len(at.Sources) != 3 || at.Sources[0] != "proxy" {
		t.Fatalf("sources = %v, want proxy + 2 backends", at.Sources)
	}
	// Both hops recorded the request exactly once.
	hops := map[string]int{}
	for _, op := range at.Ops {
		hops[op.Hop]++
	}
	if hops["proxy"] != 1 || hops["serve"] != 1 {
		t.Fatalf("hop counts = %v, want one proxy and one serve op", hops)
	}
	if at.Assembled == nil {
		t.Fatal("no assembled tree for a recorded trace")
	}
	if got := at.Assembled.Hops; len(got) != 2 || got[0] != "proxy" || got[1] != "serve" {
		t.Fatalf("assembled hops = %v, want [proxy serve]", got)
	}
	// The cross-tier parenting is the whole point: the serve dispatch
	// must hang under the proxy op that forwarded to it.
	if len(at.Assembled.Roots) != 1 {
		t.Fatalf("roots = %d, want the proxy op as the single root", len(at.Assembled.Roots))
	}
	root := at.Assembled.Roots[0]
	if root.Op.Hop != "proxy" {
		t.Fatalf("root hop = %q, want proxy", root.Op.Hop)
	}
	if len(root.Children) != 1 || root.Children[0].Op.Hop != "serve" {
		t.Fatalf("root children = %+v, want the serve op nested under the proxy op", root.Children)
	}
}

// TestProxyAssembledTraceMalformed pins the proxy-side 400 path.
func TestProxyAssembledTraceMalformed(t *testing.T) {
	rt, _ := newTracedTier(t, "http")
	ps := httptest.NewServer(serve.NewHandler(rt, serve.Info{Protocol: "greedy"}))
	t.Cleanup(ps.Close)

	decode[map[string]string](t,
		get(t, ps.URL+"/v1/trace/zzzz"), http.StatusBadRequest)
}
