package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"time"

	ballsbins "repro"
	"repro/internal/cluster"
	"repro/internal/keyed"
	"repro/internal/netutil"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/wal"
	"repro/internal/wire"
)

// backendNode is one in-process bbserved: a dispatcher behind a wire
// listener and an HTTP listener on 127.0.0.1, with the daemon's default
// settings (8 shards, default queue/batch, watchdog, obs sampling) but
// -max-keys keyedMaxKeys/4.
type backendNode struct {
	d        *serve.Dispatcher
	ws       *wire.Server
	hs       *http.Server
	url      string
	wireAddr string
}

func startBackend(n int, seed uint64, tr *Tracer) (*backendNode, error) {
	d, _, err := serve.OpenDispatcher(serve.Config{Spec: ballsbins.Adaptive(), N: n, Shards: 8, Seed: seed,
		Keyed: &keyed.Config{MaxKeys: keyedMaxKeys / 4}})
	if err != nil {
		return nil, err
	}
	wln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.Close()
		return nil, err
	}
	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		wln.Close()
		d.Close()
		return nil, err
	}
	info := serve.Info{
		Protocol: d.Name(), N: n, Shards: 8, Engine: ballsbins.EngineFast.String(),
		Seed: seed, WireAddr: wln.Addr().String(),
	}
	wh := serve.NewDispatcherWire(d, info)
	ws := wire.NewServer(tr.wrapWire(wh, lvBackend), wire.ServerOptions{})
	wh.BindServer(ws)
	go ws.Serve(wln)
	hs := &http.Server{Handler: serve.NewHandlerWire(d, info, ws)}
	go hs.Serve(hln)
	return &backendNode{d: d, ws: ws, hs: hs, url: "http://" + hln.Addr().String(), wireAddr: info.WireAddr}, nil
}

// close drains like the daemon: dispatcher, then wire, then HTTP.
func (b *backendNode) close() {
	b.d.Close()
	b.ws.Close()
	b.hs.Close()
}

// proxyNode is one in-process bbproxy routing over wire backends with
// the daemon's default settings.
type proxyNode struct {
	rt       *cluster.Router
	cfg      cluster.Config
	ws       *wire.Server
	hs       *http.Server
	wbs      []*cluster.WireBackend
	url      string
	wireAddr string
}

// keyedMaxKeys is the capacity of the proxy's keyed table (-max-keys);
// each backend, which sees about a quarter of the keys, gets a quarter
// of it. The daemons' default, 2^20, lets the tables grow with every
// new key, so the heap would grow with however many requests the host
// let through in the window; at these sizes the tables fill in the
// first second of the window and idle keys are evicted from then on.
const keyedMaxKeys = 2048

// proxyConfig returns the router configuration bbproxy builds from its
// default flags: policy adaptive, or keyed[adaptive] with a durable
// keyed store in keyedDir and -max-keys keyedMaxKeys.
func proxyConfig(bks []cluster.Backend, n int, seed uint64, keyedDir string) (cluster.Config, error) {
	cfg := cluster.Config{
		Backends:       bks,
		BinsPerBackend: n,
		Seed:           seed,
		Staleness:      500 * time.Millisecond,
		HealthEvery:    time.Second,
		FailAfter:      2,
		RiseAfter:      2,
	}
	anon, d := "adaptive", 2
	if keyedDir != "" {
		kp, err := keyed.PolicyByName("adaptive", 2, 3, 0)
		if err != nil {
			return cfg, err
		}
		cfg.Keyed = &keyed.Config{Policy: kp, MaxKeys: keyedMaxKeys}
		cfg.KeyedStore = &keyed.StoreOptions{Dir: keyedDir, SnapshotEvery: keyed.DefaultSnapshotEvery, Fsync: wal.SyncInterval}
		anon, d = keyed.AnonAnalogue("adaptive", 2)
	}
	pol, err := cluster.PolicyByName(anon, d, 3, 0, 0)
	cfg.Policy = pol
	return cfg, err
}

func startProxy(backs []*backendNode, n int, seed uint64, keyedDir string, tr *Tracer) (*proxyNode, error) {
	p := &proxyNode{}
	var bks []cluster.Backend
	for _, b := range backs {
		wb, err := cluster.NewWireBackend(cluster.NewHTTPBackend(b.url), b.wireAddr, n)
		if err != nil {
			p.closeBackends()
			return nil, err
		}
		p.wbs = append(p.wbs, wb)
		bks = append(bks, tr.wrapBackend(wb))
	}
	cfg, err := proxyConfig(bks, n, seed, keyedDir)
	if err != nil {
		p.closeBackends()
		return nil, err
	}
	p.cfg = cfg
	p.rt, _, err = cluster.OpenRouter(cfg)
	if err != nil {
		p.closeBackends()
		return nil, err
	}
	served := p.rt.Policy()
	if km := p.rt.Keyed(); km != nil {
		served = "keyed[" + km.PolicyName() + "]+" + served
	}
	wln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.close()
		return nil, err
	}
	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		wln.Close()
		p.close()
		return nil, err
	}
	info := serve.Info{
		Protocol: "cluster/" + served, N: p.rt.N(), Shards: len(bks),
		Engine: ballsbins.Adaptive().Name(), Seed: seed, WireAddr: wln.Addr().String(),
	}
	wh := cluster.NewRouterWire(p.rt, info)
	p.ws = wire.NewServer(tr.wrapWire(wh, lvFront), wire.ServerOptions{})
	wh.BindServer(p.ws)
	go p.ws.Serve(wln)
	p.hs = &http.Server{Handler: tr.wrapHTTP(cluster.NewHandlerWire(p.rt, info, p.ws), lvFront)}
	go p.hs.Serve(hln)
	p.url, p.wireAddr = "http://"+hln.Addr().String(), info.WireAddr
	return p, nil
}

func (p *proxyNode) closeBackends() {
	for _, wb := range p.wbs {
		wb.Close()
	}
}

// close drains like the daemon (router, wire, HTTP) and drops the
// proxy's backend connections.
func (p *proxyNode) close() {
	p.rt.Close()
	if p.ws != nil {
		p.ws.Close()
	}
	if p.hs != nil {
		p.hs.Close()
	}
	p.closeBackends()
}

// wireTarget drives the proxy over the binary protocol.
type wireTarget struct{ c *wire.Client }

func (t wireTarget) Place(ctx context.Context, key string, bulk int) ([]int, int64, error) {
	if key != "" {
		return t.c.PlaceKeyed(ctx, key)
	}
	return t.c.Place(ctx, bulk)
}

func (t wireTarget) Remove(ctx context.Context, bin int, key string) error {
	return t.c.Remove(ctx, bin, key)
}

// httpTarget drives the proxy's HTTP API with keep-alive connections,
// carrying each request's trace id in the X-BB-Trace header.
type httpTarget struct {
	c    *http.Client
	base string
}

func newHTTPTarget(base string, conns int) httpTarget {
	return httpTarget{c: &http.Client{Transport: netutil.PooledTransport(conns, conns), Timeout: 30 * time.Second}, base: base}
}

func (t httpTarget) post(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.base+path, nil)
	if err != nil {
		return err
	}
	if id := obs.TraceFrom(ctx); id != 0 {
		req.Header.Set(obs.Header, obs.FormatTrace(id))
	}
	resp, err := t.c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("bench: POST %s: status %d: %s", path, resp.StatusCode, body)
	}
	if v == nil {
		return nil
	}
	return json.Unmarshal(body, v)
}

func (t httpTarget) Place(ctx context.Context, key string, bulk int) ([]int, int64, error) {
	path := fmt.Sprintf("/v1/place?count=%d", bulk)
	if key != "" {
		path = "/v1/place?key=" + url.QueryEscape(key)
	}
	var pr serve.PlaceResponse
	if err := t.post(ctx, path, &pr); err != nil {
		return nil, 0, err
	}
	if len(pr.Bins) == 0 {
		pr.Bins = []int{pr.Bin}
	}
	return pr.Bins, pr.Samples, nil
}

func (t httpTarget) Remove(ctx context.Context, bin int, key string) error {
	path := fmt.Sprintf("/v1/remove?bin=%d", bin)
	if key != "" {
		path += "&key=" + url.QueryEscape(key)
	}
	return t.post(ctx, path, nil)
}

// tracedTarget records the client span of every request.
type tracedTarget struct {
	Target
	tr *Tracer
}

func (t tracedTarget) Place(ctx context.Context, key string, bulk int) ([]int, int64, error) {
	t0 := t.tr.now()
	defer t.tr.record(obs.TraceFrom(ctx), lvClient, t0)
	return t.Target.Place(ctx, key, bulk)
}

func (t tracedTarget) Remove(ctx context.Context, bin int, key string) error {
	t0 := t.tr.now()
	defer t.tr.record(obs.TraceFrom(ctx), lvClient, t0)
	return t.Target.Remove(ctx, bin, key)
}

// traceID is the obs trace id of request i of a run.
func traceID(seed uint64, i uint64) uint64 { return rng.Mix(seed, i) | 1 }
