package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	ballsbins "repro"
	"repro/internal/obs"
	"repro/internal/wire"
)

// newTracedTestServer is newTestServer with head-sampling forced on,
// so every HTTP request's op lands in the retained ring.
func newTracedTestServer(t *testing.T) (*Dispatcher, *httptest.Server) {
	t.Helper()
	d := NewDispatcher(Config{
		Spec: ballsbins.Adaptive(), N: 64, Shards: 1, Seed: 1,
		Obs: obs.Options{SampleEvery: 1},
	})
	srv := httptest.NewServer(NewHandler(d, Info{
		Protocol: "adaptive", N: 64, Shards: 1, Engine: "fast", Seed: 1,
	}))
	t.Cleanup(func() { srv.Close(); d.Close() })
	return d, srv
}

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

// TestHTTPAssembledTraceByID exercises GET /v1/trace/{id} on the serve
// tier: a traced place must come back as a one-hop assembled tree read
// from the local ring.
func TestHTTPAssembledTraceByID(t *testing.T) {
	_, srv := newTracedTestServer(t)

	const id = uint64(0xfeedbeef)
	hex := obs.FormatTrace(id)
	decode[PlaceResponse](t, postTraced(t, srv.URL+"/v1/place", hex), http.StatusOK)

	at := decode[obs.AssembledTraceResponse](t,
		get(t, srv.URL+"/v1/trace/"+hex), http.StatusOK)
	if at.Trace != hex {
		t.Fatalf("trace = %q, want %q", at.Trace, hex)
	}
	if len(at.Sources) != 1 || at.Sources[0] != "serve" {
		t.Fatalf("sources = %v, want [serve]", at.Sources)
	}
	if len(at.Ops) != 1 || at.Ops[0].Op != "place" || at.Ops[0].Hop != "serve" {
		t.Fatalf("ops = %+v, want one serve/place", at.Ops)
	}
	if at.Assembled == nil || len(at.Assembled.Roots) != 1 {
		t.Fatalf("assembled = %+v, want a single-root tree", at.Assembled)
	}
	root := at.Assembled.Roots[0]
	if root.Op.Op != "place" || len(root.Op.Spans) == 0 {
		t.Fatalf("root = %+v, want the place op with its stage spans", root.Op)
	}
}

// TestHTTPAssembledTraceUnknownAndMalformed pins the edge responses:
// an unrecorded id is an empty 200 document, a malformed id a 400.
func TestHTTPAssembledTraceUnknownAndMalformed(t *testing.T) {
	_, srv := newTracedTestServer(t)

	at := decode[obs.AssembledTraceResponse](t,
		get(t, srv.URL+"/v1/trace/"+obs.FormatTrace(0xdead)), http.StatusOK)
	if len(at.Ops) != 0 || at.Assembled != nil {
		t.Fatalf("unknown id returned ops=%v assembled=%v, want empty", at.Ops, at.Assembled)
	}

	if e := decode[ErrorResponse](t, get(t, srv.URL+"/v1/trace/not-hex"), http.StatusBadRequest); e.Code != wire.CodeBadRequest {
		t.Fatalf("malformed id: code %v, want bad-request", e.Code)
	}
}

// TestTraceHandler pins GET /v1/trace: the tier's own ring, filtered by
// min_ms, min_ns or id, a malformed filter refused as bad-request, and
// an empty document when the tier records nothing.
func TestTraceHandler(t *testing.T) {
	d := NewDispatcher(Config{
		Spec: ballsbins.Adaptive(), N: 64, Shards: 1, Seed: 1,
		Obs: obs.Options{SampleEvery: 1, SlowThreshold: -1},
	})
	srv := newServerFor(t, d)
	r := d.Obs()
	t0 := time.Now()
	c := r.BeginAt(5, "place", t0)
	c.StageAt("queue", t0, t0.Add(time.Millisecond))
	c.EndAt(t0.Add(4*time.Millisecond), nil)
	c = r.BeginAt(6, "place", t0)
	c.EndAt(t0.Add(100*time.Microsecond), nil)

	trace := func(query string) obs.TraceResponse {
		t.Helper()
		return decode[obs.TraceResponse](t, get(t, srv.URL+"/v1/trace"+query), http.StatusOK)
	}
	if resp := trace(""); resp.Hop != "serve" || len(resp.Ops) != 2 {
		t.Fatalf("got %+v", resp)
	}
	if resp := trace("?min_ms=1"); len(resp.Ops) != 1 || resp.Ops[0].Trace != obs.FormatTrace(5) {
		t.Fatalf("min_ms filter: %+v", resp.Ops)
	}
	if resp := trace("?min_ns=3000000"); len(resp.Ops) != 1 {
		t.Fatalf("min_ns filter: %+v", resp.Ops)
	}
	if resp := trace("?id=" + obs.FormatTrace(6)); len(resp.Ops) != 1 || resp.Ops[0].Trace != obs.FormatTrace(6) {
		t.Fatalf("id filter: %+v", resp.Ops)
	}
	for _, bad := range []string{"?min_ns=bogus", "?min_ms=-1", "?id=zz"} {
		if e := decode[ErrorResponse](t, get(t, srv.URL+"/v1/trace"+bad), http.StatusBadRequest); e.Code != wire.CodeBadRequest {
			t.Errorf("GET /v1/trace%s: code %v, want bad-request", bad, e.Code)
		}
	}

	// A tier without a recorder serves an empty document, not a panic.
	off := NewDispatcher(Config{Spec: ballsbins.Adaptive(), N: 64, Shards: 1, Seed: 1, Obs: obs.Options{Disabled: true}})
	body := readBody(t, get(t, newServerFor(t, off).URL+"/v1/trace"))
	if !strings.Contains(body, `"ops": []`) {
		t.Fatalf("disabled recorder: %s", body)
	}
}
