package wire

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testHandler is a minimal in-memory book: balls per bin, placements
// round-robin, keyed placements hashed. It gives the protocol tests an
// exact ground truth without pulling the serve tier into this package.
type testHandler struct {
	n        int
	draining atomic.Bool
	slow     time.Duration // optional per-place delay (pipelining tests)

	mu      sync.Mutex
	loads   []int
	placed  int64
	removed int64
}

func newTestHandler(n int) *testHandler {
	return &testHandler{n: n, loads: make([]int, n)}
}

func (h *testHandler) Place(ctx context.Context, count int) ([]int, int64, error) {
	if h.draining.Load() {
		return nil, 0, &Error{Code: CodeDraining, Msg: "draining"}
	}
	if count < 1 || count > MaxFrame {
		return nil, 0, &Error{Code: CodeBadRequest, Msg: "bad count"}
	}
	if h.slow > 0 {
		select {
		case <-time.After(h.slow):
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	bins := make([]int, count)
	for i := range bins {
		bin := int(h.placed) % h.n
		h.loads[bin]++
		h.placed++
		bins[i] = bin
	}
	return bins, int64(count), nil
}

func (h *testHandler) PlaceKeyed(ctx context.Context, key string) ([]int, int64, error) {
	if key == "full" {
		return nil, 0, &Error{Code: CodeFull, Msg: "no room"}
	}
	f := fnv.New32a()
	f.Write([]byte(key))
	bin := int(f.Sum32()) % h.n
	h.mu.Lock()
	h.loads[bin]++
	h.placed++
	h.mu.Unlock()
	return []int{bin}, 1, nil
}

func (h *testHandler) Remove(ctx context.Context, bin int, key string) error {
	if bin < 0 || bin >= h.n {
		return &Error{Code: CodeBadRequest, Msg: "bin out of range"}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.loads[bin] == 0 {
		return &Error{Code: CodeEmptyBin, Msg: fmt.Sprintf("bin %d is empty", bin)}
	}
	h.loads[bin]--
	h.removed++
	return nil
}

func (h *testHandler) StatsJSON(ctx context.Context) ([]byte, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return []byte(fmt.Sprintf(`{"placed":%d,"removed":%d}`, h.placed, h.removed)), nil
}

func (h *testHandler) TraceJSON(ctx context.Context, id uint64) ([]byte, error) {
	return []byte(fmt.Sprintf(`{"hop":"test","trace":"%016x","ops":[]}`, id)), nil
}

func (h *testHandler) Hello() Hello {
	return Hello{Protocol: "test", N: h.n, Shards: 1}
}

func (h *testHandler) Draining() bool { return h.draining.Load() }

func (h *testHandler) books() (placed, removed int64, balls int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, l := range h.loads {
		balls += l
	}
	return h.placed, h.removed, balls
}

// startServer boots a Server on a loopback listener and returns it
// with its address; cleanup closes it.
func startServer(t testing.TB, h Handler, opts ServerOptions) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(h, opts)
	go s.Serve(ln)
	t.Cleanup(func() { s.Close() })
	return s, ln.Addr().String()
}

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{{}, {0}, []byte("hello"), bytes.Repeat([]byte{0xab}, 4096)}
	var buf []byte
	for _, p := range payloads {
		buf = AppendFrame(buf, p)
	}
	r := bufio.NewReader(bytes.NewReader(buf))
	for i, want := range payloads {
		got, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d = %q, want %q", i, got, want)
		}
	}
	if _, err := ReadFrame(r); err == nil {
		t.Fatal("expected EOF after last frame")
	}
}

func TestFrameRejectsCorruption(t *testing.T) {
	frame := AppendFrame(nil, []byte("payload"))
	flip := append([]byte(nil), frame...)
	flip[len(flip)-1] ^= 0x01
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(flip))); err != ErrBadCRC {
		t.Fatalf("flipped payload: err = %v, want ErrBadCRC", err)
	}
	big := append([]byte(nil), frame...)
	big[3] = 0xff // length prefix now > MaxFrame
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(big))); err != ErrFrameTooLarge {
		t.Fatalf("oversize length: err = %v, want ErrFrameTooLarge", err)
	}
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame[:len(frame)-2]))); err != ErrTruncated {
		t.Fatalf("torn payload: err = %v, want ErrTruncated", err)
	}
}

func TestRequestCodecRoundTrip(t *testing.T) {
	cases := []Request{
		{Type: MsgHello, ID: 0, Version: Version},
		{Type: MsgPing, ID: 1},
		{Type: MsgPlace, ID: 2, Count: 1},
		{Type: MsgPlace, ID: 1 << 40, Count: 65536},
		{Type: MsgPlaceKeyed, ID: 3, Key: "user:42"},
		{Type: MsgPlaceKeyed, ID: 4, Key: ""},
		{Type: MsgRemove, ID: 5, Bin: 99999},
		{Type: MsgRemoveKeyed, ID: 6, Bin: 0, Key: "k"},
		{Type: MsgStats, ID: 7},
	}
	for _, want := range cases {
		got, err := ParseRequest(AppendRequest(nil, want))
		if err != nil {
			t.Fatalf("%v: %v", want.Type, err)
		}
		if got != want {
			t.Fatalf("round trip %v: got %+v, want %+v", want.Type, got, want)
		}
		// The client frames a request in place, after the frames
		// already pending: the same bytes as framing its payload.
		inPlace := appendRequestFrame([]byte("pending"), want)
		framed := AppendFrame([]byte("pending"), AppendRequest(nil, want))
		if !bytes.Equal(inPlace, framed) {
			t.Fatalf("%v framed in place = %x, want %x", want.Type, inPlace, framed)
		}
	}
}

func TestReplyCodecRoundTrip(t *testing.T) {
	bins := []int{0, 7, 99999, 3}
	body := AppendPlaceBody(nil, bins, 42)
	payload := AppendReply(nil, 77, CodeOK, body)
	rep, err := ParseReply(payload)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != 77 || rep.Code != CodeOK {
		t.Fatalf("reply = %+v", rep)
	}
	gotBins, samples, err := ParsePlaceBody(rep.Body)
	if err != nil || samples != 42 {
		t.Fatalf("place body: bins=%v samples=%d err=%v", gotBins, samples, err)
	}
	for i := range bins {
		if gotBins[i] != bins[i] {
			t.Fatalf("bins = %v, want %v", gotBins, bins)
		}
	}

	h := Hello{Version: Version, Protocol: "greedy[2]", N: 1000, Shards: 8}
	got, err := ParseHelloBody(AppendHelloBody(nil, h))
	if err != nil || got != h {
		t.Fatalf("hello round trip = %+v, %v; want %+v", got, err, h)
	}

	// Every named code round-trips through a reply and through its
	// name; a typed answer matches another only by code.
	for c := range Code(len(codes)) {
		if codes[c].name == "" {
			continue
		}
		if rep, err := ParseReply(AppendReply(nil, 1, c, nil)); err != nil || rep.Code != c {
			t.Fatalf("reply with %v = %+v, %v", c, rep, err)
		}
		name, err := c.MarshalText()
		var back Code
		if err != nil || back.UnmarshalText(name) != nil || back != c {
			t.Fatalf("%v through its name %q = %v, %v", c, name, back, err)
		}
		for d := range Code(len(codes)) {
			chain := fmt.Errorf("forwarded: %w", &Error{Code: c, Msg: "one"})
			if got := errors.Is(chain, &Error{Code: d, Msg: "another"}); got != (c == d) {
				t.Fatalf("errors.Is(%v answer, %v answer) = %v", c, d, got)
			}
		}
	}
	for _, name := range []string{"", "Code(3)", "keyed-unsupported", "FULL", "full "} {
		var c Code
		if err := c.UnmarshalText([]byte(name)); err == nil {
			t.Fatalf("unknown code name %q decoded as %v", name, c)
		}
	}
}

func TestClientServerOps(t *testing.T) {
	h := newTestHandler(64)
	_, addr := startServer(t, h, ServerOptions{})
	c, err := Dial(addr, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	if hello := c.Hello(); hello.N != 64 || hello.Protocol != "test" || hello.Version != Version {
		t.Fatalf("hello = %+v", hello)
	}
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("ping: %v", err)
	}

	bins, samples, err := c.Place(ctx, 5)
	if err != nil || len(bins) != 5 || samples != 5 {
		t.Fatalf("place 5 = %v, %d, %v", bins, samples, err)
	}
	kbins, _, err := c.PlaceKeyed(ctx, "user:1")
	if err != nil || len(kbins) != 1 {
		t.Fatalf("keyed place = %v, %v", kbins, err)
	}
	if err := c.Remove(ctx, bins[0], ""); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if err := c.Remove(ctx, kbins[0], "user:1"); err != nil {
		t.Fatalf("keyed remove: %v", err)
	}

	// Typed errors map back code-for-code.
	h.mu.Lock()
	empty := -1
	for i, l := range h.loads {
		if l == 0 {
			empty = i
			break
		}
	}
	h.mu.Unlock()
	if err := c.Remove(ctx, empty, ""); ErrCode(err) != CodeEmptyBin {
		t.Fatalf("empty bin: err = %v, want CodeEmptyBin", err)
	}
	if _, _, err := c.PlaceKeyed(ctx, "full"); ErrCode(err) != CodeFull {
		t.Fatalf("full: err = %v", err)
	}
	if err := c.Remove(ctx, 1<<20, ""); ErrCode(err) != CodeBadRequest {
		t.Fatalf("out-of-range bin: err = %v", err)
	}

	blob, err := c.StatsJSON(ctx)
	if err != nil || !bytes.Contains(blob, []byte(`"placed":6`)) {
		t.Fatalf("stats = %s, %v", blob, err)
	}

	// Draining flips PING and new placements, like /healthz + 503s.
	h.draining.Store(true)
	if err := c.Ping(ctx); ErrCode(err) != CodeDraining {
		t.Fatalf("draining ping: err = %v", err)
	}
	if _, _, err := c.Place(ctx, 1); ErrCode(err) != CodeDraining {
		t.Fatalf("draining place: err = %v", err)
	}
}

func TestHandshakeVersionMismatch(t *testing.T) {
	_, addr := startServer(t, newTestHandler(8), ServerOptions{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	req := AppendRequest(nil, Request{Type: MsgHello, ID: 0, Version: Version + 1})
	if _, err := nc.Write(AppendFrame(nil, req)); err != nil {
		t.Fatal(err)
	}
	payload, err := ReadFrame(bufio.NewReader(nc))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ParseReply(payload)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Code != CodeBadRequest {
		t.Fatalf("version mismatch reply code = %v, want CodeBadRequest", rep.Code)
	}
}

func TestGarbageDropsConnection(t *testing.T) {
	s, addr := startServer(t, newTestHandler(8), ServerOptions{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// A frame whose CRC lies is connection-fatal.
	frame := AppendFrame(nil, []byte{byte(MsgPing), 1})
	frame[4] ^= 0xff
	if _, err := nc.Write(frame); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := bufio.NewReader(nc).ReadByte(); err == nil {
		t.Fatal("server kept the connection after a CRC mismatch")
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.Stats().DecodeErrors == 0 {
		if time.Now().After(deadline) {
			t.Fatal("decode error not counted")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestStatsCounters(t *testing.T) {
	h := newTestHandler(16)
	s, addr := startServer(t, h, ServerOptions{})
	c, err := Dial(addr, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	const ops = 50
	for i := 0; i < ops; i++ {
		if _, _, err := c.Place(ctx, 1); err != nil {
			t.Fatal(err)
		}
	}
	ss := s.Stats()
	if ss.Conns != 1 || ss.ConnsTotal != 1 {
		t.Fatalf("conns = %d/%d, want 1/1", ss.Conns, ss.ConnsTotal)
	}
	if ss.FramesIn != ops+1 || ss.FramesOut != ops+1 { // +1 HELLO
		t.Fatalf("frames = %d in / %d out, want %d", ss.FramesIn, ss.FramesOut, ops+1)
	}
	cs := c.Stats()
	if cs.Requests != ops {
		t.Fatalf("client requests = %d, want %d", cs.Requests, ops)
	}
	if cs.BytesPerOp <= 0 || cs.CoalescingFactor < 1 {
		t.Fatalf("client stats = %+v", cs)
	}
}
