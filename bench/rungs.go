package bench

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
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

// rungParams are the workload parameters the ladder runs at.
type rungParams struct {
	n         int // bins per allocator or dispatcher
	keyedBins int // bins the keyed tier assigns keys to
	seed      uint64
}

// rung is one public function timed in isolation. setup builds its
// state and returns run, which performs n operations, and done, which
// releases everything setup built. parent names the rung below it on
// the ladder; the difference is the layer's tax.
type rung struct {
	name, parent string
	setup        func(p rungParams) (run func(n int), done func(), err error)
}

// ladder lists the rungs bottom-up.
var ladder = []rung{
	{"rng_uint64n", "", rungRNG},
	{"allocator_place", "rng_uint64n", rungAllocatorPlace},
	{"allocator_churn", "allocator_place", rungAllocatorChurn},
	{"sharded_place", "allocator_place", rungShardedPlace},
	{"dispatcher_place", "allocator_place", rungDispatcherPlace},
	{"dispatcher_cycle", "allocator_churn", rungDispatcherCycle},
	{"router_place", "dispatcher_place", rungRouterPlace},
	{"wire_codec_1", "", func(p rungParams) (func(int), func(), error) { return rungCodec(1) }},
	{"wire_codec_32", "wire_codec_1", func(p rungParams) (func(int), func(), error) { return rungCodec(32) }},
	{"wire_rtt", "dispatcher_place", rungWireRTT},
	{"http_place", "dispatcher_place", rungHTTPPlace},
	{"keyed_route_hit", "", rungKeyedHit},
	{"keyed_route_miss", "keyed_route_hit", rungKeyedMiss},
	{"wal_append_never", "", func(p rungParams) (func(int), func(), error) { return rungWAL(p, wal.SyncNever) }},
	{"wal_append_interval", "wal_append_never", func(p rungParams) (func(int), func(), error) { return rungWAL(p, wal.SyncInterval) }},
	{"obs_capture", "", rungObs},
}

var allocSamples = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}

func readAllocs() (objects, bytes uint64) {
	s := append([]metrics.Sample(nil), allocSamples...)
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// runLadder times every rung at p, spending about budget on each, and
// adds rung.<name>.{ns,allocs,bytes,tax_ns} to m.
func runLadder(p rungParams, budget time.Duration, m map[string]float64) error {
	for _, r := range ladder {
		ns, allocs, bytes, err := measureRung(r, p, budget)
		if err != nil {
			return fmt.Errorf("rung %s: %w", r.name, err)
		}
		m["rung."+r.name+".ns"] = ns
		m["rung."+r.name+".allocs"] = allocs
		m["rung."+r.name+".bytes"] = bytes
		if r.parent != "" {
			m["rung."+r.name+".tax_ns"] = ns - m["rung."+r.parent+".ns"]
		}
	}
	return nil
}

// measureRung calibrates a batch size to a tenth of budget, then times
// three batches and reports the median ns/op with allocations per op
// over all three.
func measureRung(r rung, p rungParams, budget time.Duration) (ns, allocs, bytes float64, err error) {
	run, done, err := r.setup(p)
	if err != nil {
		return 0, 0, 0, err
	}
	defer done()
	n := 16
	run(n)
	for n < 1<<24 {
		t := time.Now()
		run(n)
		if time.Since(t) >= budget/10 {
			break
		}
		n *= 2
	}
	n = max(n*2, 1)
	o0, b0 := readAllocs()
	var per []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		run(n)
		per = append(per, float64(time.Since(t).Nanoseconds())/float64(n))
	}
	o1, b1 := readAllocs()
	sort.Float64s(per)
	ops := float64(3 * n)
	return per[1], float64(o1-o0) / ops, float64(b1-b0) / ops, nil
}

func noop() {}

func rungRNG(p rungParams) (func(int), func(), error) {
	r := rng.New(p.seed)
	var sink uint64
	return func(n int) {
		for i := 0; i < n; i++ {
			sink += r.Uint64n(uint64(p.n))
		}
		_ = sink
	}, noop, nil
}

func rungAllocatorPlace(p rungParams) (func(int), func(), error) {
	a := ballsbins.New(ballsbins.Adaptive(), p.n, ballsbins.WithSeed(p.seed))
	a.PlaceBatch(8 * int64(p.n))
	return func(n int) {
		for i := 0; i < n; i++ {
			a.Place()
		}
	}, noop, nil
}

// fifo is a ring of placed bins; churn removes the oldest.
type fifo struct {
	bins []int
	head int
}

func (f *fifo) swap(bin int) int {
	old := f.bins[f.head]
	f.bins[f.head] = bin
	f.head = (f.head + 1) % len(f.bins)
	return old
}

func rungAllocatorChurn(p rungParams) (func(int), func(), error) {
	a := ballsbins.New(ballsbins.Adaptive(), p.n, ballsbins.WithSeed(p.seed))
	f := &fifo{bins: make([]int, 4*p.n)}
	for i := range f.bins {
		f.bins[i], _ = a.Place()
	}
	return func(n int) {
		for i := 0; i < n; i++ {
			b, _ := a.Place()
			a.Remove(f.swap(b))
		}
	}, noop, nil
}

func rungShardedPlace(p rungParams) (func(int), func(), error) {
	sa := ballsbins.NewSharded(ballsbins.Adaptive(), p.n, 8, ballsbins.WithSeed(p.seed))
	sa.PlaceBatch(8 * int64(p.n))
	return func(n int) {
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				for i := 0; i < k; i++ {
					sa.Place()
				}
			}(n/2 + w*(n%2))
		}
		wg.Wait()
	}, noop, nil
}

func newDispatcher(n int, seed uint64) (*serve.Dispatcher, error) {
	d, _, err := serve.OpenDispatcher(serve.Config{Spec: ballsbins.Adaptive(), N: n, Shards: 8, Seed: seed})
	return d, err
}

func rungDispatcherPlace(p rungParams) (func(int), func(), error) {
	d, err := newDispatcher(p.n, p.seed)
	if err != nil {
		return nil, nil, err
	}
	ctx := context.Background()
	return func(n int) {
		for i := 0; i < n; i++ {
			d.Place(ctx)
		}
	}, d.Close, nil
}

func rungDispatcherCycle(p rungParams) (func(int), func(), error) {
	d, err := newDispatcher(p.n, p.seed)
	if err != nil {
		return nil, nil, err
	}
	ctx := context.Background()
	bins, _, err := d.PlaceMany(ctx, 1024)
	if err != nil {
		d.Close()
		return nil, nil, err
	}
	f := &fifo{bins: bins}
	return func(n int) {
		for i := 0; i < n; i++ {
			b, _, _ := d.Place(ctx)
			d.Remove(ctx, f.swap(b))
		}
	}, d.Close, nil
}

func rungRouterPlace(p rungParams) (func(int), func(), error) {
	var ds []*serve.Dispatcher
	var bks []cluster.Backend
	for i := 0; i < 4; i++ {
		d, err := newDispatcher(p.n, rng.StreamSeed(p.seed, uint64(i)))
		if err != nil {
			return nil, nil, err
		}
		ds = append(ds, d)
		bks = append(bks, &cluster.InprocBackend{D: d})
	}
	pol, err := cluster.PolicyByName("adaptive", 2, 3, 0, 0)
	if err != nil {
		return nil, nil, err
	}
	rt, _, err := cluster.OpenRouter(cluster.Config{Backends: bks, BinsPerBackend: p.n, Policy: pol, Seed: p.seed})
	if err != nil {
		return nil, nil, err
	}
	ctx := context.Background()
	return func(n int) {
			for i := 0; i < n; i++ {
				rt.Place(ctx, 1)
			}
		}, func() {
			rt.Close()
			for _, d := range ds {
				d.Close()
			}
		}, nil
}

func rungCodec(k int) (func(int), func(), error) {
	bins := make([]int, k)
	for i := range bins {
		bins[i] = 1000 + i
	}
	var reqBuf, bodyBuf, repBuf, frameBuf []byte
	return func(n int) {
		for i := 0; i < n; i++ {
			reqBuf = wire.AppendRequest(reqBuf[:0], wire.Request{Type: wire.MsgPlace, ID: uint64(i), Count: k, Trace: 0x5eed})
			req, err := wire.ParseRequest(reqBuf)
			if err != nil {
				panic(err) // the codec rejecting its own encoding is a bug
			}
			bodyBuf = wire.AppendPlaceBody(bodyBuf[:0], bins, 3)
			repBuf = wire.AppendReply(repBuf[:0], req.ID, wire.CodeOK, bodyBuf)
			frameBuf = wire.AppendFrame(frameBuf[:0], repBuf)
			rep, err := wire.ParseReply(frameBuf[8:])
			if err != nil {
				panic(err)
			}
			if _, _, err := wire.ParsePlaceBody(rep.Body); err != nil {
				panic(err)
			}
		}
	}, noop, nil
}

func rungWireRTT(p rungParams) (func(int), func(), error) {
	d, err := newDispatcher(p.n, p.seed)
	if err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.Close()
		return nil, nil, err
	}
	wh := serve.NewDispatcherWire(d, serve.Info{N: p.n, Shards: 8})
	ws := wire.NewServer(wh, wire.ServerOptions{})
	wh.BindServer(ws)
	go ws.Serve(ln)
	c, err := wire.Dial(ln.Addr().String(), wire.ClientOptions{})
	if err != nil {
		ws.Close()
		d.Close()
		return nil, nil, err
	}
	ctx := context.Background()
	return func(n int) {
			for i := 0; i < n; i++ {
				c.Place(ctx, 1)
			}
		}, func() {
			c.Close()
			ws.Close()
			d.Close()
		}, nil
}

func rungHTTPPlace(p rungParams) (func(int), func(), error) {
	d, err := newDispatcher(p.n, p.seed)
	if err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.Close()
		return nil, nil, err
	}
	hs := &http.Server{Handler: serve.NewHandler(d, serve.Info{N: p.n, Shards: 8})}
	go hs.Serve(ln)
	client := &http.Client{Transport: netutil.PooledTransport(1, 1)}
	url := "http://" + ln.Addr().String() + "/v1/place"
	return func(n int) {
			for i := 0; i < n; i++ {
				resp, err := client.Post(url, "", nil)
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}, func() {
			client.CloseIdleConnections()
			hs.Close()
			d.Close()
		}, nil
}

func rungKeyedHit(p rungParams) (func(int), func(), error) {
	km := keyed.New(keyed.Config{Bins: p.keyedBins, Seed: p.seed})
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = "k" + strconv.Itoa(i)
		if _, _, _, err := km.Route(keys[i]); err != nil {
			return nil, nil, err
		}
	}
	j := 0
	return func(n int) {
		for i := 0; i < n; i++ {
			k := keys[j%len(keys)]
			j++
			if b, _, _, err := km.Route(k); err == nil {
				km.Release(k, b)
			}
		}
	}, noop, nil
}

func rungKeyedMiss(p rungParams) (func(int), func(), error) {
	km := keyed.New(keyed.Config{Bins: p.keyedBins, Seed: p.seed})
	j := 0
	return func(n int) {
		for i := 0; i < n; i++ {
			k := "m" + strconv.Itoa(j)
			j++
			if b, _, _, err := km.Route(k); err == nil {
				km.Release(k, b)
			}
		}
	}, noop, nil
}

func rungWAL(p rungParams, fsync string) (func(int), func(), error) {
	dir, err := os.MkdirTemp("", "bbmark-wal-")
	if err != nil {
		return nil, nil, err
	}
	l, _, err := wal.Open(dir, wal.Options{Fsync: fsync})
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	payload := keyed.EncodeOp(keyed.Op{Type: keyed.OpAssign, Key: "k2-1234", To: 3})
	return func(n int) {
			for i := 0; i < n; i++ {
				l.Append(payload)
			}
		}, func() {
			l.Close(nil)
			os.RemoveAll(dir)
		}, nil
}

func rungObs(p rungParams) (func(int), func(), error) {
	rec := obs.NewRecorder(obs.Options{Hop: "bench"})
	return func(n int) {
		for i := 0; i < n; i++ {
			t0 := time.Now()
			c := rec.BeginAt(0, "place", t0)
			c.StageAt("queue", t0, t0)
			c.EndAt(time.Now(), nil)
		}
	}, noop, nil
}
