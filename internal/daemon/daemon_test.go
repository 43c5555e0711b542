package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	ballsbins "repro"
	"repro/internal/cluster"
	"repro/internal/keyed"
	"repro/internal/serve"
	"repro/internal/wal"
	"repro/internal/wire"
)

// testFlags returns the shared flags at their defaults, with the
// keyed tier durable under dir when dir is non-empty.
func testFlags(t *testing.T, dir string) *Flags {
	t.Helper()
	f := RegisterFlags(flag.NewFlagSet("test", flag.ContinueOnError))
	f.DataDir = dir
	return f
}

func keyedPolicy(t *testing.T, f *Flags) keyed.Policy {
	t.Helper()
	kp, err := keyed.PolicyByName("adaptive", 2, f.Retries, f.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	return kp
}

// tier opens one kind of serving tier for a daemon run. Its backends,
// if any, outlive the run, so a test can restart the tier over them.
type tier struct {
	name string
	n    int // global bins
	open func(t *testing.T, f *Flags) (OpenFunc, func() serve.Tier)
}

// serveTier is bbserved's tier: one keyed dispatcher.
var serveTier = tier{"serve", 64, func(t *testing.T, f *Flags) (OpenFunc, func() serve.Tier) {
	var d *serve.Dispatcher
	cfg := serve.Config{
		Spec: ballsbins.Adaptive(), N: 64, Shards: 2, Seed: 1,
		Keyed: f.Keyed(keyedPolicy(t, f)), KeyedStore: f.Store(), Obs: f.Obs(), Watch: f.Watch(),
	}
	open := func() (serve.Tier, serve.Info, *keyed.RecoveryInfo, error) {
		var rec *keyed.RecoveryInfo
		var err error
		if d, rec, err = serve.OpenDispatcher(cfg); err != nil {
			return nil, serve.Info{}, nil, err
		}
		return d, serve.Info{Protocol: d.Name(), N: d.N(), Shards: d.Shards()}, rec, nil
	}
	return open, func() serve.Tier { return d }
}}

// proxyTier is bbproxy's tier: a keyed router over three in-proc
// backends.
var proxyTier = tier{"proxy", 3 * 64, func(t *testing.T, f *Flags) (OpenFunc, func() serve.Tier) {
	const k, n = 3, 64
	bks := make([]cluster.Backend, k)
	for i := range bks {
		d := serve.NewDispatcher(serve.Config{Spec: ballsbins.Adaptive(), N: n, Shards: 2, Seed: uint64(i + 1)})
		t.Cleanup(d.Close)
		bks[i] = &cluster.InprocBackend{D: d, Label: fmt.Sprintf("b%d", i)}
	}
	policy, err := cluster.PolicyByName("greedy", 2, f.Retries, 0, f.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Config{
		Backends: bks, BinsPerBackend: n, Policy: policy, Seed: 1,
		Keyed: f.Keyed(keyedPolicy(t, f)), KeyedStore: f.Store(), Obs: f.Obs(), Watch: f.Watch(),
	}
	var rt *cluster.Router
	open := func() (serve.Tier, serve.Info, *keyed.RecoveryInfo, error) {
		var rec *keyed.RecoveryInfo
		var err error
		if rt, rec, err = cluster.OpenRouter(cfg); err != nil {
			return nil, serve.Info{}, nil, err
		}
		return rt, serve.Info{Protocol: "cluster/" + rt.Policy(), N: rt.N(), Shards: k}, rec, nil
	}
	return open, func() serve.Tier { return rt }
}}

// run is one in-process daemon lifecycle on loopback listeners.
type run struct {
	base, wireAddr string
	dump           chan os.Signal
	cancel         context.CancelFunc
	errc           chan error
}

func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// start runs the lifecycle in the background; the test cancels it with
// stop (the in-process SIGTERM).
func start(t *testing.T, f *Flags, open OpenFunc) *run {
	t.Helper()
	ln, wln := listen(t), listen(t)
	ctx, cancel := context.WithCancel(context.Background())
	r := &run{
		base: "http://" + ln.Addr().String(), wireAddr: wln.Addr().String(),
		dump: make(chan os.Signal, 1), cancel: cancel, errc: make(chan error, 1),
	}
	p := Process{
		Flags: f, Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
		HTTP: ln, Wire: wln, Dump: r.dump, Open: open,
	}
	go func() { r.errc <- p.Run(ctx) }()
	t.Cleanup(func() { r.stop(t) })
	return r
}

// stop cancels the run and waits for the lifecycle to return.
func (r *run) stop(t *testing.T) {
	t.Helper()
	r.cancel()
	if r.errc == nil {
		return
	}
	select {
	case err := <-r.errc:
		r.errc = nil
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
}

// get returns the status and body of GET path.
func (r *run) get(t *testing.T, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(r.base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

// waitReady polls /healthz until the front end serves.
func (r *run) waitReady(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if code, _ := r.get(t, "/healthz"); code == http.StatusOK {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never became ready")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// placeKeys places one ball per key over HTTP and returns each key's
// acknowledged bin.
func (r *run) placeKeys(t *testing.T, count int) map[string]int {
	t.Helper()
	bins := make(map[string]int, count)
	for i := 0; i < count; i++ {
		key := fmt.Sprintf("k%d", i)
		resp, err := http.Post(r.base+"/v1/place?key="+key, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		var pr serve.PlaceResponse
		err = json.NewDecoder(resp.Body).Decode(&pr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil {
			t.Fatalf("keyed place %s: status %d, %v", key, resp.StatusCode, err)
		}
		bins[key] = pr.Bin
	}
	return bins
}

// gated holds the open until release is closed, after signalling
// opening.
func gated(open OpenFunc, opening, release chan struct{}) OpenFunc {
	return func() (serve.Tier, serve.Info, *keyed.RecoveryInfo, error) {
		close(opening)
		<-release
		return open()
	}
}

// releaser returns a gate and its idempotent release. Register the
// release as a cleanup after start, so it runs before the run's own
// stop and a failing test never leaves the lifecycle blocked on it.
func releaser() (chan struct{}, func()) {
	ch := make(chan struct{})
	var once sync.Once
	return ch, func() { once.Do(func() { close(ch) }) }
}

// TestRecoverBeforeServe: while the tier opens, /healthz answers 503
// "recovering", and a wire HELLO sent meanwhile is answered only once
// the tier is open.
func TestRecoverBeforeServe(t *testing.T) {
	for _, tr := range []tier{serveTier, proxyTier} {
		t.Run(tr.name, func(t *testing.T) {
			f := testFlags(t, t.TempDir())
			open, _ := tr.open(t, f)
			opening := make(chan struct{})
			gate, release := releaser()
			r := start(t, f, gated(open, opening, gate))
			t.Cleanup(release)
			<-opening

			if code, body := r.get(t, "/healthz"); code != http.StatusServiceUnavailable || body != "recovering\n" {
				t.Fatalf("healthz while opening: %d %q, want 503 recovering", code, body)
			}
			type dialed struct {
				c   *wire.Client
				err error
			}
			hello := make(chan dialed, 1)
			go func() {
				c, err := wire.Dial(r.wireAddr, wire.ClientOptions{})
				hello <- dialed{c, err}
			}()
			select {
			case d := <-hello:
				t.Fatalf("wire HELLO answered before the tier opened: %+v", d)
			case <-time.After(200 * time.Millisecond):
			}
			release()
			d := <-hello
			if d.err != nil {
				t.Fatalf("wire dial after open: %v", d.err)
			}
			defer d.c.Close()
			if got := d.c.Hello().N; got != tr.n {
				t.Fatalf("HELLO n = %d, want %d", got, tr.n)
			}
			r.waitReady(t)
		})
	}
}

// closeGate holds the tier's Close open after the tier drained, so a
// test can look at the daemon in the middle of its drain.
type closeGate struct {
	serve.Tier
	closed, release chan struct{}
}

func (g closeGate) Close() {
	g.Tier.Close()
	close(g.closed)
	<-g.release
}

// TestDrainOrder: the tier drains first, while both listeners still
// answer (healthz 503, wire PING draining); after the lifecycle returns
// both listeners refuse connections and the durable tier has sealed a
// snapshot.
func TestDrainOrder(t *testing.T) {
	for _, tr := range []tier{serveTier, proxyTier} {
		t.Run(tr.name, func(t *testing.T) {
			dir := t.TempDir()
			f := testFlags(t, dir)
			open, _ := tr.open(t, f)
			closed := make(chan struct{})
			gate, release := releaser()
			gatedOpen := func() (serve.Tier, serve.Info, *keyed.RecoveryInfo, error) {
				tier, info, rec, err := open()
				return closeGate{tier, closed, gate}, info, rec, err
			}
			r := start(t, f, gatedOpen)
			t.Cleanup(release)
			r.waitReady(t)
			r.placeKeys(t, 20)
			wc, err := wire.Dial(r.wireAddr, wire.ClientOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer wc.Close()

			r.cancel()
			<-closed
			if code, body := r.get(t, "/healthz"); code != http.StatusServiceUnavailable || body != "draining\n" {
				t.Fatalf("healthz during the tier's drain: %d %q, want 503 draining", code, body)
			}
			if err := wc.Ping(context.Background()); wire.ErrCode(err) != wire.CodeDraining {
				t.Fatalf("wire PING during the tier's drain: %v, want draining", err)
			}
			release()
			r.stop(t)

			for _, addr := range []string{strings.TrimPrefix(r.base, "http://"), r.wireAddr} {
				if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
					c.Close()
					t.Errorf("%s still accepts connections after the drain", addr)
				}
			}
			snaps, _ := filepath.Glob(filepath.Join(dir, "*.snap"))
			if len(snaps) == 0 {
				t.Error("the drain sealed no snapshot")
			}
		})
	}
}

// mirror returns the keyed assignment table of a proxy run's router.
func mirror(t *testing.T, cur func() serve.Tier) keyed.Mirror {
	t.Helper()
	return cur().(*cluster.Router).Keyed().Mirror()
}

// TestTermRestart: a TERM-stopped proxy restarted over the same
// -data-dir recovers exactly the keyed assignment table it had.
func TestTermRestart(t *testing.T) {
	f := testFlags(t, t.TempDir())
	open, cur := proxyTier.open(t, f)
	r := start(t, f, open)
	r.waitReady(t)
	r.placeKeys(t, 100)
	pre := mirror(t, cur)
	r.stop(t)

	r = start(t, f, open)
	r.waitReady(t)
	if post := mirror(t, cur); !post.Equal(pre) {
		t.Fatalf("restart recovered a different table:\npre:  %+v\npost: %+v", pre, post)
	}
}

// TestCrashRestart: after an in-process kill -9 (Router.Crash) under
// -fsync always, a restart recovers every acknowledged key on the
// backend that acknowledged it.
func TestCrashRestart(t *testing.T) {
	f := testFlags(t, t.TempDir())
	f.Fsync = wal.SyncAlways
	open, cur := proxyTier.open(t, f)
	r := start(t, f, open)
	r.waitReady(t)
	acked := r.placeKeys(t, 100)
	cur().(*cluster.Router).Crash()
	r.stop(t)

	r = start(t, f, open)
	r.waitReady(t)
	post := mirror(t, cur)
	for key, bin := range acked {
		if reps := post.Keys[key]; !slices.Contains(reps, bin/64) {
			t.Errorf("key %s acknowledged on backend %d, recovered on %v", key, bin/64, reps)
		}
	}
}

// TestDumpTrigger: with -diag-dir set, one trigger on the dump channel
// (SIGQUIT in a process) writes exactly one bundle; without it the
// trigger is never consumed and no recorder is bound.
func TestDumpTrigger(t *testing.T) {
	for _, tr := range []tier{serveTier, proxyTier} {
		t.Run(tr.name, func(t *testing.T) {
			diagDir := t.TempDir()
			f := testFlags(t, "")
			f.DiagDir = diagDir
			open, _ := tr.open(t, f)
			r := start(t, f, open)
			r.waitReady(t)
			r.dump <- syscall.SIGQUIT
			deadline := time.Now().Add(10 * time.Second)
			var bundles []string
			for len(bundles) == 0 && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
				bundles, _ = filepath.Glob(filepath.Join(diagDir, "*.bbdiag"))
			}
			r.stop(t)
			if bundles, _ = filepath.Glob(filepath.Join(diagDir, "*.bbdiag")); len(bundles) != 1 {
				t.Fatalf("bundles after one trigger: %v, want exactly one", bundles)
			}

			f = testFlags(t, "")
			open, _ = tr.open(t, f)
			r = start(t, f, open)
			r.waitReady(t)
			r.dump <- syscall.SIGQUIT
			_, stats := r.get(t, "/v1/stats")
			r.stop(t)
			if len(r.dump) != 1 {
				t.Fatal("the dump trigger was consumed without -diag-dir")
			}
			if strings.Contains(stats, `"diag"`) {
				t.Fatalf("stats carry a diag block without -diag-dir: %s", stats)
			}
		})
	}
}

// TestOpenFailure: a tier that fails to open ends the lifecycle with
// its error and releases both listeners.
func TestOpenFailure(t *testing.T) {
	boom := errors.New("boom")
	ln, wln := listen(t), listen(t)
	p := Process{
		Flags: testFlags(t, ""), Logger: slog.New(slog.NewTextHandler(io.Discard, nil)), HTTP: ln, Wire: wln,
		Open: func() (serve.Tier, serve.Info, *keyed.RecoveryInfo, error) {
			return nil, serve.Info{}, nil, boom
		},
	}
	if err := p.Run(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("Run = %v, want %v", err, boom)
	}
	for _, l := range []net.Listener{ln, wln} {
		if c, err := net.DialTimeout("tcp", l.Addr().String(), time.Second); err == nil {
			c.Close()
			t.Errorf("%s still accepts connections after a failed open", l.Addr())
		}
	}
}
