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
	// DialTimeout bounds connection establishment (default
	// netutil.DefaultDialTimeout's value, 3s — spelled literally here
	// to keep this package import-free).
	DialTimeout time.Duration
	// SendQueue is the per-connection submit channel depth (default
	// 4096). Full queue blocks callers — natural backpressure.
	SendQueue int
	// MaxInflight bounds outstanding requests per connection
	// (default 8192).
	MaxInflight int
	// MaxBatch caps request frames coalesced into one socket write
	// (default 256).
	MaxBatch int
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.Conns <= 0 {
		o.Conns = 1
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 3 * time.Second
	}
	if o.SendQueue <= 0 {
		o.SendQueue = 4096
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 8192
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 256
	}
	return o
}

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

// Client is a coalescing wire-protocol connection pool. Concurrent
// callers enqueue onto a per-connection send loop that packs every
// pending request into one write per flush; a demux loop matches
// replies to waiting callers by request ID, so a single connection
// carries arbitrarily many in-flight requests out of order.
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

type call struct {
	id   uint64
	req  []byte
	done chan struct{}
	code Code
	body []byte
	err  error
}

type clientConn struct {
	c         *Client
	nc        net.Conn
	sendq     chan *call
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
	nc, err := net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	cc := &clientConn{
		c:       c,
		nc:      nc,
		sendq:   make(chan *call, c.opts.SendQueue),
		deadc:   make(chan struct{}),
		tokens:  make(chan struct{}, c.opts.MaxInflight),
		pending: make(map[uint64]*call),
	}
	// Handshake synchronously before the loops start: one HELLO frame
	// out, one reply in.
	nc.SetDeadline(time.Now().Add(c.opts.DialTimeout))
	hreq := AppendRequest(nil, Request{Type: MsgHello, ID: 0, Version: Version})
	if _, err := nc.Write(AppendFrame(nil, hreq)); err != nil {
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
	go cc.sendLoop()
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

// roundTrip submits one request and waits for its reply.
func (c *Client) roundTrip(ctx context.Context, req Request) (Reply, error) {
	cc, err := c.conn()
	if err != nil {
		return Reply{}, err
	}
	if req.Type == MsgTrace && cc.version < 3 {
		// TRACE does not exist below protocol 3; an old server would
		// drop the whole connection on the unknown type.
		return Reply{}, ErrTraceUnsupported
	}
	// Inflight token: bounds pending map growth; released when the
	// call completes (reply, failure, or abandoned-then-replied).
	select {
	case cc.tokens <- struct{}{}:
	case <-cc.deadc:
		return Reply{}, errConnDead
	case <-ctx.Done():
		return Reply{}, ctx.Err()
	}
	ca := &call{done: make(chan struct{})}
	cc.mu.Lock()
	if cc.dead {
		cc.mu.Unlock()
		<-cc.tokens
		return Reply{}, errConnDead
	}
	cc.nextID++
	ca.id = cc.nextID
	cc.pending[ca.id] = ca
	cc.mu.Unlock()
	req.ID = ca.id
	if cc.version < 2 {
		// A v1 peer rejects trailing bytes; the trace id stays local.
		req.Trace = 0
	}
	ca.req = AppendRequest(nil, req)

	select {
	case cc.sendq <- ca:
		c.requests.Add(1)
	case <-cc.deadc:
		return Reply{}, errConnDead
	case <-ctx.Done():
		cc.abandon(ca)
		return Reply{}, ctx.Err()
	}
	select {
	case <-ca.done:
		if ca.err != nil {
			return Reply{}, ca.err
		}
		return Reply{ID: ca.id, Code: ca.code, Body: ca.body}, nil
	case <-ctx.Done():
		// The request may already be on the wire; its outcome is
		// ambiguous (same as cancelling an HTTP request mid-flight).
		// The demux drops the late reply when it arrives.
		cc.abandon(ca)
		return Reply{}, ctx.Err()
	}
}

// op runs a round trip and maps non-OK codes to *Error.
func (c *Client) op(ctx context.Context, req Request) ([]byte, error) {
	rep, err := c.roundTrip(ctx, req)
	if err != nil {
		return nil, err
	}
	if rep.Code != CodeOK {
		return nil, &Error{Code: rep.Code, Msg: string(rep.Body)}
	}
	return rep.Body, nil
}

// Place places count balls in one request and returns their bins and
// the probes spent. A ctx trace id (obs.WithTrace) rides along on
// connections negotiated at protocol ≥ 2.
func (c *Client) Place(ctx context.Context, count int) ([]int, int64, error) {
	body, err := c.op(ctx, Request{Type: MsgPlace, Count: count, Trace: obs.TraceFrom(ctx)})
	if err != nil {
		return nil, 0, err
	}
	return ParsePlaceBody(body)
}

// PlaceKeyed places one ball under a routing key.
func (c *Client) PlaceKeyed(ctx context.Context, key string) ([]int, int64, error) {
	body, err := c.op(ctx, Request{Type: MsgPlaceKeyed, Key: key, Trace: obs.TraceFrom(ctx)})
	if err != nil {
		return nil, 0, err
	}
	return ParsePlaceBody(body)
}

// Remove deletes one ball from bin; a non-empty key routes the removal
// through the keyed tier.
func (c *Client) Remove(ctx context.Context, bin int, key string) error {
	t := MsgRemove
	if key != "" {
		t = MsgRemoveKeyed
	}
	_, err := c.op(ctx, Request{Type: t, Bin: bin, Key: key, Trace: obs.TraceFrom(ctx)})
	return err
}

// StatsJSON fetches the server's /v1/stats document over the wire.
func (c *Client) StatsJSON(ctx context.Context) ([]byte, error) {
	return c.op(ctx, Request{Type: MsgStats})
}

// TraceJSON fetches the server's retained ops for one trace id (the
// GET /v1/trace?id= document) over the wire. On connections negotiated
// below protocol 3 it returns ErrTraceUnsupported without sending
// anything; callers fall back to the HTTP endpoint.
func (c *Client) TraceJSON(ctx context.Context, id uint64) ([]byte, error) {
	return c.op(ctx, Request{Type: MsgTrace, Query: id})
}

// Ping checks liveness; a draining server answers CodeDraining, so
// Ping matches HTTP /healthz semantics.
func (c *Client) Ping(ctx context.Context) error {
	_, err := c.op(ctx, Request{Type: MsgPing})
	return err
}

func (cc *clientConn) isDead() bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.dead
}

// abandon drops an outstanding call after caller cancellation. The
// token is released by whoever removes the call from pending — here,
// or complete via the demux/fail paths — exactly once per call; a late
// reply for an abandoned ID is dropped without touching tokens.
func (cc *clientConn) abandon(ca *call) {
	cc.mu.Lock()
	if _, ok := cc.pending[ca.id]; ok {
		delete(cc.pending, ca.id)
		cc.mu.Unlock()
		<-cc.tokens
		return
	}
	cc.mu.Unlock()
}

// complete finishes a call and releases its token.
func (cc *clientConn) complete(ca *call, rep Reply, err error) {
	ca.code = rep.Code
	ca.body = rep.Body // aliases a per-frame buffer; never reused
	ca.err = err
	close(ca.done)
	<-cc.tokens
}

// fail marks the connection dead, closes it, and fails every
// outstanding call. Queued-but-unsent calls are failed too (they are
// in pending from submission). Safe to call multiple times.
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
		cc.complete(ca, Reply{}, err)
	}
}

// sendLoop is the coalescing writer: block for one call, drain
// everything else queued, frame the lot, one write.
func (cc *clientConn) sendLoop() {
	var buf []byte
	for {
		var ca *call
		select {
		case ca = <-cc.sendq:
		case <-cc.deadc:
			return
		}
		buf = AppendFrame(buf[:0], ca.req)
		n := 1
	fill:
		for n < cc.c.opts.MaxBatch {
			select {
			case ca2 := <-cc.sendq:
				buf = AppendFrame(buf, ca2.req)
				n++
			default:
				break fill
			}
		}
		if _, err := cc.nc.Write(buf); err != nil {
			cc.fail(errConnDead)
			return
		}
		cc.c.writes.Add(1)
		cc.c.framesW.Add(int64(n))
		cc.c.bytesOut.Add(int64(len(buf)))
	}
}

// readLoop is the demux: match each reply frame's ID to its waiting
// caller. Unknown IDs are abandoned calls; their late replies are
// dropped (and their tokens released).
func (cc *clientConn) readLoop() {
	br := bufio.NewReaderSize(cc.nc, 64<<10)
	for {
		payload, err := ReadFrame(br)
		if err != nil {
			cc.fail(errConnDead)
			return
		}
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
			cc.complete(ca, rep, nil)
		}
		// Unknown ID: late reply for an abandoned call — drop it (its
		// token was already released by abandon).
	}
}
