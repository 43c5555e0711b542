package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// ErrClientClosed is returned for calls after Close.
var ErrClientClosed = errors.New("wire: client closed")

// ErrTraceUnsupported is returned by TraceJSON when the connection
// negotiated a protocol below 3 — the peer has no TRACE message, and
// sending one would drop the connection. Callers fall back to HTTP.
var ErrTraceUnsupported = errors.New("wire: peer protocol has no TRACE message")

// errConnDead fails calls stranded on a connection that died before
// their reply arrived. The outcome of such a call is ambiguous — the
// server may or may not have applied it — exactly like an HTTP request
// whose connection dropped mid-response.
var errConnDead = errors.New("wire: connection lost")

// ClientOptions tune a Client; zero values select the defaults.
type ClientOptions struct {
	// Conns is the connection-pool size (default 1: the headline
	// configuration — one pipelined, coalescing connection).
	Conns int
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.Conns <= 0 {
		o.Conns = 1
	}
	return o
}

// Fixed limits of every client connection.
const (
	// clientDialTimeout bounds connection establishment
	// (netutil.DefaultDialTimeout's value, spelled literally here to
	// keep this package import-free).
	clientDialTimeout = 3 * time.Second
	// clientMaxInflight bounds outstanding requests, and so the frames
	// that can wait in the pending buffer behind a write.
	clientMaxInflight = 8192
)

// ClientStats snapshots a client's transport-efficiency counters: the
// coalescing factor (requests per socket write) and raw socket bytes.
type ClientStats struct {
	Requests         int64   `json:"requests"`
	Writes           int64   `json:"writes"`
	BytesOut         int64   `json:"bytes_out"`
	BytesIn          int64   `json:"bytes_in"`
	Redials          int64   `json:"redials"`
	CoalescingFactor float64 `json:"coalescing_factor"`
	BytesPerOp       float64 `json:"bytes_per_op"`
}

// Client is a pipelined, coalescing wire-protocol connection pool.
// A caller encodes its request frame straight into its connection's
// pending buffer, and the first caller to find no write in progress
// writes everything pending in one socket write, so requests that
// arrive during a write share the next one. A read loop per connection
// decodes each reply into one reused buffer and fills in the call
// waiting under its request ID, so one connection carries many
// requests in flight, answered out of order. Calls come from a pool: a
// round trip allocates only the bins Place returns, the copy of a
// STATS or TRACE body, or an *Error.
//
// Every caller returns when its ctx is done, with one exception: the
// caller that is writing the pending buffer stays in a blocked socket
// write past its ctx, until the write completes or Close ends it.
// Callers whose frames wait behind that write still return on their
// ctx.
type Client struct {
	addr string
	opts ClientOptions

	requests atomic.Int64
	writes   atomic.Int64
	framesW  atomic.Int64
	bytesOut atomic.Int64
	bytesIn  atomic.Int64
	redials  atomic.Int64

	mu     sync.Mutex
	slots  []*clientConn
	hello  Hello
	closed bool
	rr     atomic.Uint64
}

// call is one request in flight. Whoever takes a call out of its
// connection's pending map owns it next: the read loop or fail fills
// in its result and signals done once, and abandon returns it to
// callPool. A call goes back to the pool only when no other goroutine
// can reach it: after its caller has read the reply, or after abandon
// has taken it out of pending.
type call struct {
	id   uint64
	typ  MsgType       // what was sent, which says how to decode the reply
	done chan struct{} // buffer 1: the one signal of each use never blocks
	result
}

// result is a decoded reply, or the error that ended the call.
type result struct {
	bins    []int // PLACE, PLACE_KEYED
	samples int64
	body    []byte // STATS, TRACE
	err     error  // *Error for a non-OK code
}

var callPool = sync.Pool{New: func() any { return &call{done: make(chan struct{}, 1)} }}

type clientConn struct {
	c         *Client
	nc        net.Conn
	deadc     chan struct{}
	tokens    chan struct{}
	helloInfo Hello
	// version is the negotiated protocol version for this connection
	// (min of both peers); trace ids are only sent at ≥ 2.
	version int

	mu      sync.Mutex
	pending map[uint64]*call
	nextID  uint64
	dead    bool
	out     []byte // request frames not yet written
	frames  int64  // frames in out
	spare   []byte // the buffer last written, reused as the next out
	writing bool   // a caller is writing, and writes out too
}

// Dial connects to a wire server at addr (host:port), performs the
// HELLO handshake on the first connection, and returns a ready Client.
// Remaining pool connections are dialed lazily on first use.
func Dial(addr string, opts ClientOptions) (*Client, error) {
	c := &Client{addr: addr, opts: opts.withDefaults()}
	c.slots = make([]*clientConn, c.opts.Conns)
	cc, err := c.dial()
	if err != nil {
		return nil, err
	}
	c.slots[0] = cc
	c.hello = cc.helloInfo
	return c, nil
}

// ResolveAddr turns an advertised wire address into a dialable
// host:port. Servers often advertise just their listen flag (":9090"),
// so a missing host is filled from the HTTP base URL the advertisement
// came with.
func ResolveAddr(baseURL, advertised string) (string, error) {
	if advertised == "" {
		return "", errors.New("wire: no wire address advertised")
	}
	host, port, err := net.SplitHostPort(advertised)
	if err != nil {
		return "", fmt.Errorf("wire: bad advertised address %q: %w", advertised, err)
	}
	if host != "" && host != "0.0.0.0" && host != "::" {
		return advertised, nil
	}
	u, err := url.Parse(baseURL)
	if err != nil || u.Hostname() == "" {
		return "", fmt.Errorf("wire: cannot resolve host for %q from base %q", advertised, baseURL)
	}
	return net.JoinHostPort(u.Hostname(), port), nil
}

// Hello returns the server identity captured during the handshake.
func (c *Client) Hello() Hello {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hello
}

// Addr returns the dialed address.
func (c *Client) Addr() string { return c.addr }

// Stats snapshots the client's transport counters.
func (c *Client) Stats() ClientStats {
	s := ClientStats{
		Requests: c.requests.Load(),
		Writes:   c.writes.Load(),
		BytesOut: c.bytesOut.Load(),
		BytesIn:  c.bytesIn.Load(),
		Redials:  c.redials.Load(),
	}
	if s.Writes > 0 {
		s.CoalescingFactor = float64(c.framesW.Load()) / float64(s.Writes)
	}
	if s.Requests > 0 {
		s.BytesPerOp = float64(s.BytesOut+s.BytesIn) / float64(s.Requests)
	}
	return s
}

// Close tears down every pooled connection and fails outstanding
// calls.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	slots := append([]*clientConn(nil), c.slots...)
	c.mu.Unlock()
	for _, cc := range slots {
		if cc != nil {
			cc.fail(ErrClientClosed)
		}
	}
	return nil
}

// dial opens and handshakes one connection.
func (c *Client) dial() (*clientConn, error) {
	nc, err := net.DialTimeout("tcp", c.addr, clientDialTimeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	cc := &clientConn{
		c:       c,
		nc:      nc,
		deadc:   make(chan struct{}),
		tokens:  make(chan struct{}, clientMaxInflight),
		pending: make(map[uint64]*call),
	}
	// Handshake synchronously before the loops start: one HELLO frame
	// out, one reply in.
	nc.SetDeadline(time.Now().Add(clientDialTimeout))
	if _, err := nc.Write(appendRequestFrame(nil, Request{Type: MsgHello, ID: 0, Version: Version})); err != nil {
		nc.Close()
		return nil, fmt.Errorf("wire: handshake write: %w", err)
	}
	payload, err := ReadFrame(bufio.NewReader(nc))
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("wire: handshake read: %w", err)
	}
	rep, err := ParseReply(payload)
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("wire: handshake: %w", err)
	}
	if rep.Code != CodeOK {
		nc.Close()
		return nil, &Error{Code: rep.Code, Msg: string(rep.Body)}
	}
	hello, err := ParseHelloBody(rep.Body)
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("wire: handshake: %w", err)
	}
	// The server answers min(client, server): accept anything in our
	// supported range and speak the negotiated version on this
	// connection; only a server claiming a version above our own (or
	// below MinVersion) is unusable.
	if hello.Version > Version || hello.Version < MinVersion {
		nc.Close()
		return nil, fmt.Errorf("wire: server negotiated version %d, supported [%d,%d]", hello.Version, MinVersion, Version)
	}
	cc.version = hello.Version
	cc.helloInfo = hello
	nc.SetDeadline(time.Time{})
	go cc.readLoop()
	return cc, nil
}

// conn returns a live pooled connection, redialing dead slots.
func (c *Client) conn() (*clientConn, error) {
	i := int(c.rr.Add(1)) % len(c.slots)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClientClosed
	}
	cc := c.slots[i]
	if cc != nil && !cc.isDead() {
		c.mu.Unlock()
		return cc, nil
	}
	redial := cc != nil
	c.mu.Unlock()
	// Dial outside the lock; racing callers may dial the same slot
	// twice, in which case the loser's connection is torn down.
	ncc, err := c.dial()
	if err != nil {
		return nil, err
	}
	if redial {
		c.redials.Add(1)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		ncc.fail(ErrClientClosed)
		return nil, ErrClientClosed
	}
	if cur := c.slots[i]; cur != nil && !cur.isDead() {
		c.mu.Unlock()
		ncc.fail(errConnDead)
		return cur, nil
	}
	c.slots[i] = ncc
	c.hello = ncc.helloInfo
	c.mu.Unlock()
	return ncc, nil
}

// roundTrip sends req on a pooled connection and returns its reply as
// the read loop decoded it.
func (c *Client) roundTrip(ctx context.Context, req Request) result {
	cc, err := c.conn()
	if err != nil {
		return result{err: err}
	}
	if req.Type == MsgTrace && cc.version < 3 {
		// TRACE does not exist below protocol 3; an old server would
		// drop the whole connection on the unknown type.
		return result{err: ErrTraceUnsupported}
	}
	if cc.version < 2 {
		// A v1 peer rejects trailing bytes; the trace id stays local.
		req.Trace = 0
	}
	// Inflight token: bounds the pending map and buffer; released by
	// whoever takes the call out of pending.
	select {
	case cc.tokens <- struct{}{}:
	case <-cc.deadc:
		return result{err: errConnDead}
	case <-ctx.Done():
		return result{err: ctx.Err()}
	}
	ca := callPool.Get().(*call)
	ca.typ = req.Type
	if !cc.send(ca, req) {
		<-cc.tokens
		callPool.Put(ca)
		return result{err: errConnDead}
	}
	select {
	case <-ca.done:
		r := ca.result
		ca.result = result{}
		callPool.Put(ca)
		return r
	case <-ctx.Done():
		// The request may already be on the wire; its outcome is
		// ambiguous (same as cancelling an HTTP request mid-flight).
		// The read loop drops the late reply when it arrives.
		cc.abandon(ca)
		return result{err: ctx.Err()}
	}
}

// Place places count balls in one request and returns their bins and
// the probes spent. A ctx trace id (obs.WithTrace) rides along on
// connections negotiated at protocol ≥ 2.
func (c *Client) Place(ctx context.Context, count int) ([]int, int64, error) {
	r := c.roundTrip(ctx, Request{Type: MsgPlace, Count: count, Trace: obs.TraceFrom(ctx)})
	return r.bins, r.samples, r.err
}

// PlaceKeyed places one ball under a routing key.
func (c *Client) PlaceKeyed(ctx context.Context, key string) ([]int, int64, error) {
	r := c.roundTrip(ctx, Request{Type: MsgPlaceKeyed, Key: key, Trace: obs.TraceFrom(ctx)})
	return r.bins, r.samples, r.err
}

// Remove deletes one ball from bin; a non-empty key routes the removal
// through the keyed tier.
func (c *Client) Remove(ctx context.Context, bin int, key string) error {
	t := MsgRemove
	if key != "" {
		t = MsgRemoveKeyed
	}
	return c.roundTrip(ctx, Request{Type: t, Bin: bin, Key: key, Trace: obs.TraceFrom(ctx)}).err
}

// StatsJSON fetches the server's /v1/stats document over the wire.
func (c *Client) StatsJSON(ctx context.Context) ([]byte, error) {
	r := c.roundTrip(ctx, Request{Type: MsgStats})
	return r.body, r.err
}

// TraceJSON fetches the server's retained ops for one trace id (the
// GET /v1/trace?id= document) over the wire. On connections negotiated
// below protocol 3 it returns ErrTraceUnsupported without sending
// anything; callers fall back to the HTTP endpoint.
func (c *Client) TraceJSON(ctx context.Context, id uint64) ([]byte, error) {
	r := c.roundTrip(ctx, Request{Type: MsgTrace, Query: id})
	return r.body, r.err
}

// Ping checks liveness; a draining server answers CodeDraining, so
// Ping matches HTTP /healthz semantics.
func (c *Client) Ping(ctx context.Context) error {
	return c.roundTrip(ctx, Request{Type: MsgPing}).err
}

func (cc *clientConn) isDead() bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.dead
}

// send registers ca under a fresh request ID and encodes req as a
// frame at the end of the pending buffer. Unless another caller is
// already writing, it then writes everything pending, one socket write
// per round, until nothing is left. The mutex is never held across a
// write, so requests that arrive during one share the next. send
// reports false, with ca unregistered, if the connection is dead; once
// it returns true, ca is pending, and a write error fails it with the
// connection.
func (cc *clientConn) send(ca *call, req Request) bool {
	cc.mu.Lock()
	if cc.dead {
		cc.mu.Unlock()
		return false
	}
	cc.nextID++
	ca.id = cc.nextID
	cc.pending[ca.id] = ca
	req.ID = ca.id
	cc.out = appendRequestFrame(cc.out, req)
	cc.frames++
	cc.c.requests.Add(1)
	if cc.writing {
		cc.mu.Unlock()
		return true
	}
	cc.writing = true
	for cc.frames > 0 {
		buf, n := cc.out, cc.frames
		cc.out, cc.frames = cc.spare[:0], 0
		cc.mu.Unlock()
		// Counted before the write, so the stats never trail a reply a
		// caller already holds.
		cc.c.writes.Add(1)
		cc.c.framesW.Add(n)
		cc.c.bytesOut.Add(int64(len(buf)))
		_, err := cc.nc.Write(buf)
		cc.mu.Lock()
		if err != nil {
			cc.writing = false
			cc.mu.Unlock()
			cc.fail(errConnDead)
			return true
		}
		cc.spare = buf
	}
	cc.writing = false
	cc.mu.Unlock()
	return true
}

// abandon takes a cancelled call out of pending, releases its token
// and returns it to the pool: its frame was copied into the pending
// buffer, so nothing else can reach it. A call the read loop or fail
// took first is left to the garbage collector; its signal lands in
// done's buffer, where nobody reads it.
func (cc *clientConn) abandon(ca *call) {
	cc.mu.Lock()
	_, ok := cc.pending[ca.id]
	delete(cc.pending, ca.id)
	cc.mu.Unlock()
	if ok {
		<-cc.tokens
		callPool.Put(ca)
	}
}

// complete signals ca's caller and releases its token. Only the
// goroutine that took ca out of pending calls it, once.
func (cc *clientConn) complete(ca *call) {
	ca.done <- struct{}{}
	<-cc.tokens
}

// fail marks the connection dead, closes it, and fails every
// outstanding call, written or still in the pending buffer. Safe to
// call multiple times.
func (cc *clientConn) fail(err error) {
	cc.mu.Lock()
	if cc.dead {
		cc.mu.Unlock()
		return
	}
	cc.dead = true
	stranded := make([]*call, 0, len(cc.pending))
	for id, ca := range cc.pending {
		delete(cc.pending, id)
		stranded = append(stranded, ca)
	}
	cc.mu.Unlock()
	close(cc.deadc)
	cc.nc.Close()
	for _, ca := range stranded {
		ca.err = err
		cc.complete(ca)
	}
}

// readLoop is the demux. Every reply frame decodes into one reused
// buffer, and the call waiting under the reply's ID gets its result
// filled in before it is signalled. A reply whose ID is not pending
// belongs to an abandoned call and is dropped (abandon released its
// token).
func (cc *clientConn) readLoop() {
	br := bufio.NewReaderSize(cc.nc, 64<<10)
	var frame []byte
	for {
		payload, err := readFrame(br, frame)
		if err != nil {
			cc.fail(errConnDead)
			return
		}
		frame = payload
		cc.c.bytesIn.Add(int64(len(payload)) + frameHeader)
		rep, err := ParseReply(payload)
		if err != nil {
			cc.fail(errConnDead)
			return
		}
		cc.mu.Lock()
		ca, ok := cc.pending[rep.ID]
		delete(cc.pending, rep.ID)
		cc.mu.Unlock()
		if ok {
			ca.decode(rep)
			cc.complete(ca)
		}
	}
}

// decode fills in ca's result from its reply, copying only what must
// outlive the frame buffer: PLACE bins into a fresh slice, an error
// message into an *Error, a STATS or TRACE body. A successful REMOVE
// or PING copies nothing.
func (ca *call) decode(rep Reply) {
	if rep.Code != CodeOK {
		ca.err = &Error{Code: rep.Code, Msg: string(rep.Body)}
		return
	}
	switch ca.typ {
	case MsgPlace, MsgPlaceKeyed:
		ca.bins, ca.samples, ca.err = ParsePlaceBody(rep.Body)
	case MsgStats, MsgTrace:
		ca.body = append([]byte(nil), rep.Body...)
	}
}
