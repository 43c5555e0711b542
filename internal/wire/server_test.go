package wire

import (
	"bytes"
	"context"
	"log/slog"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
)

// gateHandler is testHandler with a PLACE that blocks until gate is
// closed. It counts the PLACEs running at once and their peak, and
// signals entered as each one reaches the gate.
type gateHandler struct {
	*testHandler
	gate    chan struct{}
	entered chan struct{}
	running atomic.Int64
	peak    atomic.Int64
}

func newGateHandler(n, places int) *gateHandler {
	return &gateHandler{
		testHandler: newTestHandler(n),
		gate:        make(chan struct{}),
		entered:     make(chan struct{}, places),
	}
}

func (h *gateHandler) Place(ctx context.Context, count int) ([]int, int64, error) {
	now := h.running.Add(1)
	for p := h.peak.Load(); now > p && !h.peak.CompareAndSwap(p, now); p = h.peak.Load() {
	}
	h.entered <- struct{}{}
	<-h.gate
	h.running.Add(-1)
	return h.testHandler.Place(ctx, count)
}

// awaitEntered waits for k PLACEs to reach the gate.
func (h *gateHandler) awaitEntered(t *testing.T, k int) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for i := 0; i < k; i++ {
		select {
		case <-h.entered:
		case <-deadline:
			t.Fatalf("%d of %d PLACEs reached the handler", i, k)
		}
	}
}

// TestServerWorkerBound pins MaxInflight as the bound on one
// connection's workers: 16 PLACEs pipelined into a handler that blocks
// run at most 4 at a time, and all 16 complete once it lets go.
func TestServerWorkerBound(t *testing.T) {
	const bound, places = 4, 16
	h := newGateHandler(64, places)
	_, addr := startServer(t, h, ServerOptions{MaxInflight: bound})
	c, err := Dial(addr, ClientOptions{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	errs := make(chan error, places)
	for i := 0; i < places; i++ {
		go func() {
			_, _, err := c.Place(context.Background(), 1)
			errs <- err
		}()
	}
	h.awaitEntered(t, bound)
	// Every PLACE is on the wire well within this window; none past the
	// bound may reach the handler while the first four hold it.
	select {
	case <-h.entered:
		t.Fatalf("a PLACE beyond MaxInflight=%d reached the handler", bound)
	case <-time.After(50 * time.Millisecond):
	}
	close(h.gate)
	for i := 0; i < places; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if p := h.peak.Load(); p > bound {
		t.Fatalf("%d PLACEs ran at once, MaxInflight is %d", p, bound)
	}
	if placed, _, _ := h.books(); placed != places {
		t.Fatalf("placed %d balls, want %d", placed, places)
	}
}

// TestServerNoHeadOfLine pins out-of-order replies on one connection:
// a PING and a REMOVE sent after a blocked PLACE both return while the
// PLACE is still blocked.
func TestServerNoHeadOfLine(t *testing.T) {
	h := newGateHandler(64, 1)
	_, addr := startServer(t, h, ServerOptions{})
	c, err := Dial(addr, ClientOptions{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	bins, _, err := c.PlaceKeyed(ctx, "seed") // a ball for the REMOVE
	if err != nil {
		t.Fatal(err)
	}

	placed := make(chan error, 1)
	go func() {
		_, _, err := c.Place(context.Background(), 1)
		placed <- err
	}()
	h.awaitEntered(t, 1)
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("ping behind a blocked PLACE: %v", err)
	}
	if err := c.Remove(ctx, bins[0], ""); err != nil {
		t.Fatalf("remove behind a blocked PLACE: %v", err)
	}
	select {
	case err := <-placed:
		t.Fatalf("the gated PLACE returned (%v) before its release", err)
	default:
	}
	close(h.gate)
	if err := <-placed; err != nil {
		t.Fatal(err)
	}
}

// TestServerWorkersExit pins the workers' lifetime: after a burst from
// 64 callers, CloseConns and Close leave no server goroutine behind.
func TestServerWorkersExit(t *testing.T) {
	before := runtime.NumGoroutine()
	h := newTestHandler(256)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(h, ServerOptions{})
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()
	c, err := Dial(ln.Addr().String(), ClientOptions{Conns: 2})
	if err != nil {
		t.Fatal(err)
	}
	const callers = 64
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				bins, _, err := c.Place(context.Background(), 1)
				if err != nil {
					t.Error(err)
					return
				}
				if err := c.Remove(context.Background(), bins[0], ""); err != nil && ErrCode(err) != CodeEmptyBin {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	c.Close()
	s.CloseConns()
	s.Close()
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, %d before the server started:\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// roundTripAllocs is what one Place+Remove cycle allocates over
// loopback, client and server together, traced or not: the bins
// testHandler returns and the bins the client decodes for its caller.
const roundTripAllocs = 2

// TestRoundTripAllocs pins the allocations of one Place+Remove cycle,
// counting the client and the server (testHandler's bins included),
// untraced and traced.
func TestRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	_, addr := startServer(t, newTestHandler(64), ServerOptions{})
	c, err := Dial(addr, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, tc := range []struct {
		name string
		ctx  context.Context
	}{
		{"untraced", context.Background()},
		{"traced", obs.WithTrace(context.Background(), 0xfeedface)},
	} {
		if got := testing.AllocsPerRun(500, roundTrip(t, c, tc.ctx)); got > roundTripAllocs {
			t.Errorf("%s: %v allocs per Place+Remove cycle, want at most %v", tc.name, got, roundTripAllocs)
		}
	}
}

// roundTrip returns one Place+Remove cycle on c under ctx.
func roundTrip(tb testing.TB, c *Client, ctx context.Context) func() {
	return func() {
		bins, _, err := c.Place(ctx, 1)
		if err != nil {
			tb.Fatal(err)
		}
		if err := c.Remove(ctx, bins[0], ""); err != nil {
			tb.Fatal(err)
		}
	}
}

// flakyListener fails its first fails accepts with EMFILE, as a
// process out of file descriptors does, then accepts as the listener
// it wraps.
type flakyListener struct {
	net.Listener
	fails atomic.Int64
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.fails.Add(-1) >= 0 {
		return nil, &net.OpError{Op: "accept", Net: "tcp", Addr: l.Addr(),
			Err: os.NewSyscallError("accept4", syscall.EMFILE)}
	}
	return l.Listener.Accept()
}

// TestServerRetriesTemporaryAccept: accepts that fail for want of file
// descriptors cost the listener nothing. Serve logs each at WARN and
// retries, and the next client is served. Close still ends Serve,
// also while it waits out a retry.
func TestServerRetriesTemporaryAccept(t *testing.T) {
	serve := func(fails int64) (*Server, *flakyListener, *lockedBuffer, chan error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		fl := &flakyListener{Listener: ln}
		fl.fails.Store(fails)
		logs := new(lockedBuffer)
		s := NewServer(newTestHandler(8), ServerOptions{Logger: slog.New(slog.NewTextHandler(logs, nil))})
		served := make(chan error, 1)
		go func() { served <- s.Serve(fl) }()
		t.Cleanup(func() { s.Close() })
		return s, fl, logs, served
	}
	const warning = "level=WARN msg=\"wire: accept failed; retrying\""

	s, fl, logs, served := serve(2)
	c, err := Dial(fl.Addr().String(), ClientOptions{Conns: 1})
	if err != nil {
		select {
		case serr := <-served:
			t.Fatalf("Serve returned %v on a temporary accept error; dial: %v", serr, err)
		default:
			t.Fatal(err)
		}
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	bins, _, err := c.Place(ctx, 1)
	if err == nil {
		err = c.Remove(ctx, bins[0], "")
	}
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(logs.String(), warning); n != 2 {
		t.Fatalf("%d accept retries logged at WARN, want 2:\n%s", n, logs.String())
	}
	s.Close()
	if err := <-served; err != nil {
		t.Fatalf("Serve after Close: %v", err)
	}

	// A listener that never recovers: Close cuts a retry's wait short.
	s, _, logs, served = serve(1 << 40)
	for !strings.Contains(logs.String(), "delay=320ms") {
		select {
		case err := <-served:
			t.Fatalf("Serve returned %v on a temporary accept error", err)
		case <-time.After(10 * time.Millisecond):
		}
	}
	start := time.Now()
	s.Close()
	if err := <-served; err != nil {
		t.Fatalf("Serve after Close: %v", err)
	}
	if d := time.Since(start); d > 200*time.Millisecond {
		t.Fatalf("Serve took %v to return after Close during a 320ms retry wait", d)
	}
}

// panicHandler is testHandler with a PLACE of 13 balls that panics on
// a worker, and a first STATS that panics inline on the reader.
type panicHandler struct {
	*testHandler
	statsPanicked atomic.Bool
}

func (h *panicHandler) Place(ctx context.Context, count int) ([]int, int64, error) {
	if count == 13 {
		panic("place of 13")
	}
	return h.testHandler.Place(ctx, count)
}

func (h *panicHandler) StatsJSON(ctx context.Context) ([]byte, error) {
	if h.statsPanicked.CompareAndSwap(false, true) {
		panic("first stats")
	}
	return h.testHandler.StatsJSON(ctx)
}

// lockedBuffer is a bytes.Buffer the server's logger and the test may
// share.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestServerSurvivesHandlerPanic: a handler panic, on a worker (PLACE)
// or inline on the reader (STATS), costs only its own request, which
// is answered CodeInternal and logged at ERROR with the stack. The
// next request on the same connection is served.
func TestServerSurvivesHandlerPanic(t *testing.T) {
	h := &panicHandler{testHandler: newTestHandler(64)}
	var logs lockedBuffer
	srv, addr := startServer(t, h, ServerOptions{Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	c, err := Dial(addr, ClientOptions{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	if _, _, err := c.Place(ctx, 13); ErrCode(err) != CodeInternal || !strings.Contains(err.Error(), "place of 13") {
		t.Fatalf("panicking PLACE answered %v, want CodeInternal", err)
	}
	if bins, _, err := c.Place(ctx, 2); err != nil || len(bins) != 2 {
		t.Fatalf("PLACE after a panic = %v, %v", bins, err)
	}
	if _, err := c.StatsJSON(ctx); ErrCode(err) != CodeInternal {
		t.Fatalf("panicking STATS answered %v, want CodeInternal", err)
	}
	if body, err := c.StatsJSON(ctx); err != nil || !strings.Contains(string(body), `"placed":2`) {
		t.Fatalf("STATS after a panic = %s, %v", body, err)
	}
	if st := srv.Stats(); st.ConnsTotal != 1 || st.ErrorReplies != 2 {
		t.Fatalf("conns opened %d, error replies %d; want 1 and 2", st.ConnsTotal, st.ErrorReplies)
	}
	out := logs.String()
	if strings.Count(out, "level=ERROR msg=\"wire: handler panicked\"") != 2 || !strings.Contains(out, "runtime/debug.Stack") {
		t.Fatalf("panics not logged at ERROR with their stacks:\n%s", out)
	}
}

// stackHandler is testHandler behind a call chain that takes about
// 16 KB of stack. It stands in for the router and dispatcher chain a
// daemon runs per request, whose stack a goroutine started per request
// used to grow again on every request.
type stackHandler struct{ *testHandler }

func (h stackHandler) Place(ctx context.Context, count int) ([]int, int64, error) {
	deepStack(15)
	return h.testHandler.Place(ctx, count)
}

func (h stackHandler) Remove(ctx context.Context, bin int, key string) error {
	deepStack(15)
	return h.testHandler.Remove(ctx, bin, key)
}

// deepStack recurses depth+1 calls deep with a 1 KB frame each.
//
//go:noinline
func deepStack(depth int) byte {
	var frame [1 << 10]byte
	frame[depth] = byte(depth)
	if depth > 0 {
		frame[0] = deepStack(depth - 1)
	}
	return frame[0] ^ frame[depth]
}

// BenchmarkServerRoundTrip times one Place+Remove cycle over loopback
// through stackHandler, on one pipelined connection.
func BenchmarkServerRoundTrip(b *testing.B) {
	_, addr := startServer(b, stackHandler{newTestHandler(1024)}, ServerOptions{})
	c, err := Dial(addr, ClientOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	cycle := roundTrip(b, c, context.Background())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}
