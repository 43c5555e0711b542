package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/obs"
)

// Handler is what a wire server serves. Both tiers are served through
// serve.Handler, the front end shared with HTTP, so this package stays
// free of upward imports.
//
// A handler's error is answered with its code (ErrCode: CodeInternal
// for a chain without an *Error) and its text.
//
// A handler must not keep its ctx, or a context derived from it, past
// its return. The ctx is the serving goroutine's one obs.Scope, which
// carries the request's trace id and is re-tagged for its next
// request; it is done once the connection's reader ends.
type Handler interface {
	// Place places count balls and returns their bins plus the total
	// probes spent. count has already passed frame-level sanity but
	// not tier-level bounds — the handler owns those.
	Place(ctx context.Context, count int) ([]int, int64, error)
	// PlaceKeyed places one ball under a routing key.
	PlaceKeyed(ctx context.Context, key string) ([]int, int64, error)
	// Remove deletes one ball from bin; key is empty for unkeyed
	// removes.
	Remove(ctx context.Context, bin int, key string) error
	// StatsJSON returns the same JSON document the tier's /v1/stats
	// endpoint serves, so wire clients reuse the HTTP decode structs.
	StatsJSON(ctx context.Context) ([]byte, error)
	// TraceJSON returns the tier's retained ops for one trace id as
	// the same JSON document GET /v1/trace?id= serves (protocol ≥ 3).
	TraceJSON(ctx context.Context, id uint64) ([]byte, error)
	// Hello identifies the server for the version + n-agreement
	// handshake.
	Hello() Hello
	// Draining reports whether the tier is shutting down; PING
	// mirrors it so wire health checks match HTTP /healthz.
	Draining() bool
}

// ServerOptions tune a Server; zero values select the defaults.
type ServerOptions struct {
	// MaxInflight bounds the worker goroutines per connection, and so
	// the requests executing at once on it (default 1024). With every
	// worker busy the reader stalls, which backpressures the client
	// through TCP.
	MaxInflight int
	// Logger receives structured connection-lifecycle and decode-error
	// events (default slog.Default).
	Logger *slog.Logger
}

func (o ServerOptions) withDefaults() ServerOptions {
	if o.MaxInflight <= 0 {
		o.MaxInflight = 1024
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	return o
}

// Server accepts wire connections and dispatches decoded requests to a
// Handler. Each connection keeps long-lived workers, at most
// MaxInflight, so requests pipelined on one connection run
// concurrently and reply out of order without starting a goroutine, or
// growing a fresh stack, per request. A worker appends its reply frame
// to the connection's pending buffer, and whichever goroutine finds no
// write in progress writes everything pending in one socket write.
// The reader and each worker hand their requests one trace scope
// (obs.Scope) over the connection's context, so no context is built
// per request.
type Server struct {
	h    Handler
	opts ServerOptions
	c    counters

	mu     sync.Mutex
	ln     net.Listener
	active map[net.Conn]struct{}
	closed bool
	done   chan struct{} // closed by Close; cuts an accept retry's wait

	wg sync.WaitGroup
}

// NewServer returns a Server for h. Call Serve with a listener to
// start accepting.
func NewServer(h Handler, opts ServerOptions) *Server {
	return &Server{h: h, opts: opts.withDefaults(), active: make(map[net.Conn]struct{}), done: make(chan struct{})}
}

// Stats snapshots the server's wire counters.
func (s *Server) Stats() Stats { return s.c.snapshot() }

// Serve accepts connections on ln until Close. It returns nil after a
// clean Close, or the accept error otherwise. A temporary accept
// error, such as running out of file descriptors, is logged and
// retried as net/http's Server.Serve retries it: after 5 ms, doubling
// up to 1 s, and back to 5 ms after an accept succeeds.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("wire: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	var delay time.Duration
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			if te, ok := err.(interface{ Temporary() bool }); ok && te.Temporary() {
				delay = min(max(2*delay, 5*time.Millisecond), time.Second)
				s.opts.Logger.Warn("wire: accept failed; retrying", "err", err, "delay", delay)
				select {
				case <-time.After(delay):
				case <-s.done:
				}
				continue
			}
			return err
		}
		delay = 0
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return nil
		}
		s.active[nc] = struct{}{}
		s.mu.Unlock()
		s.c.conns.Add(1)
		s.c.connsTotal.Add(1)
		s.wg.Add(1)
		go s.serveConn(nc)
	}
}

// Close stops accepting, closes every active connection, and waits for
// each connection's reader and workers to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.done)
	ln := s.ln
	for nc := range s.active {
		nc.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	return nil
}

// CloseConns force-closes every active connection while leaving the
// listener up — a fault-injection hook for tests that assert clients
// redial and rebalance their books after a mid-stream kill.
func (s *Server) CloseConns() {
	s.mu.Lock()
	for nc := range s.active {
		nc.Close()
	}
	s.mu.Unlock()
}

func (s *Server) dropConn(nc net.Conn) {
	s.mu.Lock()
	delete(s.active, nc)
	s.mu.Unlock()
	s.c.conns.Add(-1)
	nc.Close()
}

// conn is one accepted connection: its reader, its workers and the
// reply frames they share.
type conn struct {
	s   *Server
	nc  net.Conn
	ctx context.Context

	// reqs hands a decoded request to an idle worker. It is
	// unbuffered, so a send succeeds at once only when a worker is
	// waiting on it.
	reqs    chan Request
	workers int // started so far; touched only by the reader
	wg      sync.WaitGroup

	mu      sync.Mutex
	drained sync.Cond // on mu; a write took pending, or one failed
	pending []byte    // reply frames not yet written
	frames  int64     // frames in pending
	spare   []byte    // the buffer last written, reused as the next pending
	writing bool      // a goroutine is writing, and writes pending too
	broken  bool      // a write failed; later replies are dropped
}

// maxPending bounds the reply frames a connection holds behind a write
// in progress. Past it a goroutine with a reply waits for the write to
// take them, so a client that stops reading stalls the workers, then
// the reader, and TCP pushes back instead of the buffer growing.
const maxPending = 1024

func (s *Server) serveConn(nc net.Conn) {
	defer s.wg.Done()
	defer s.dropConn(nc)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := &conn{s: s, nc: nc, ctx: ctx, reqs: make(chan Request)}
	c.drained.L = &c.mu
	c.read()
	// The reader is done: cancel stragglers (un-admitted work aborts;
	// work the dispatcher already committed completes), then wait for
	// the workers to send their last replies and exit.
	cancel()
	close(c.reqs)
	c.wg.Wait()
}

// read decodes request frames until the stream ends. HELLO, PING and
// STATS run inline; every other request goes to a worker.
func (c *conn) read() {
	s := c.s
	br := bufio.NewReaderSize(c.nc, 64<<10)
	sc := obs.NewScope(c.ctx)
	var frame, reply []byte
	for {
		// Every frame decodes into the same buffer. That is safe
		// because ParseRequest copies the key out, so no Request
		// aliases the frame.
		payload, err := readFrame(br, frame)
		if err != nil {
			// io.EOF at a frame boundary is a clean hangup; anything
			// else means the stream lost sync.
			if err == ErrBadCRC || err == ErrFrameTooLarge || err == ErrTruncated {
				s.c.decodeErrors.Add(1)
				s.opts.Logger.Warn("wire: dropping connection on frame decode error",
					"remote", c.nc.RemoteAddr(), "err", err)
			} else if err != io.EOF {
				s.opts.Logger.Debug("wire: connection read ended",
					"remote", c.nc.RemoteAddr(), "err", err)
			}
			return
		}
		frame = payload
		s.c.framesIn.Add(1)
		req, err := ParseRequest(payload)
		if err != nil {
			s.c.decodeErrors.Add(1)
			s.opts.Logger.Warn("wire: dropping connection on request decode error",
				"remote", c.nc.RemoteAddr(), "err", err)
			return
		}
		switch req.Type {
		case MsgHello, MsgPing, MsgStats:
			// Cheap control-plane requests run inline on the reader.
			reply = s.handle(sc, req, reply[:0])
			c.send(reply)
		default:
			c.dispatch(req)
		}
	}
}

// dispatch hands req to an idle worker. With none idle it starts a
// new one, or, once MaxInflight are running, waits for one to finish.
func (c *conn) dispatch(req Request) {
	select {
	case c.reqs <- req:
		return
	default:
	}
	if c.workers < c.s.opts.MaxInflight {
		c.workers++
		c.wg.Add(1)
		go c.work(req)
		return
	}
	c.reqs <- req
}

// work handles req, then each request the reader hands it, until the
// reader closes reqs. Its trace scope, its reply buffer and its grown
// stack serve every request it handles.
func (c *conn) work(req Request) {
	defer c.wg.Done()
	sc := obs.NewScope(c.ctx)
	var reply []byte
	for {
		reply = c.s.handle(sc, req, reply[:0])
		c.send(reply)
		var ok bool
		if req, ok = <-c.reqs; !ok {
			return
		}
	}
}

// send frames payload into the pending buffer, copying it, so the
// caller may reuse payload once send returns. Unless another goroutine
// is already writing, it then writes everything pending, one socket
// write per round, until nothing is left. The mutex is never held
// across a write, so replies that arrive during one share the next.
// A write error marks the connection broken, and every later reply is
// dropped, so workers never block on a dead socket.
func (c *conn) send(payload []byte) {
	c.mu.Lock()
	for c.writing && c.frames >= maxPending && !c.broken {
		c.drained.Wait()
	}
	if c.broken {
		c.mu.Unlock()
		return
	}
	c.pending = AppendFrame(c.pending, payload)
	c.frames++
	if c.writing {
		c.mu.Unlock()
		return
	}
	c.writing = true
	for c.frames > 0 {
		buf, n := c.pending, c.frames
		c.pending, c.frames = c.spare[:0], 0
		c.drained.Broadcast()
		c.mu.Unlock()
		// Counted before the write, so the stats never trail a reply
		// the client already holds.
		c.s.c.writes.Add(1)
		c.s.c.framesOut.Add(n)
		_, err := c.nc.Write(buf)
		c.mu.Lock()
		if err != nil {
			c.broken = true
			c.pending, c.frames, c.spare = nil, 0, nil
			c.drained.Broadcast()
			break
		}
		c.spare = buf
	}
	c.writing = false
	c.mu.Unlock()
}

// handle executes one request under ctx, the calling goroutine's
// scope, and appends its encoded reply payload to dst. A PLACE's bins
// are appended straight after the reply header. It runs every
// request, on a worker or inline on the reader, so a handler that
// panics is recovered here, as net/http recovers one: the request is
// answered CodeInternal, the panic is logged at ERROR with its stack,
// and the connection keeps serving.
func (s *Server) handle(ctx *obs.Scope, req Request, dst []byte) (reply []byte) {
	n := len(dst)
	defer func() {
		if p := recover(); p != nil {
			s.c.errorReplies.Add(1)
			s.opts.Logger.Error("wire: handler panicked",
				"type", req.Type, "id", req.ID, "panic", p, "stack", string(debug.Stack()))
			reply = errBody(AppendReply(dst[:n], req.ID, CodeInternal, nil), fmt.Sprintf("handler panic: %v", p))
		}
	}()
	var (
		body    []byte
		bins    []int
		samples int64
		err     error
	)
	// Propagate the trace id, or its absence, into the tier's own
	// recorder (the dispatcher or router reads it back with
	// obs.TraceFrom).
	ctx.Set(req.Trace)
	switch req.Type {
	case MsgHello:
		// Negotiate down: answer min(client, server) so a v1 peer
		// keeps its exact v1 stream; refuse only clients newer than
		// this server or older than MinVersion.
		if req.Version > Version || req.Version < MinVersion {
			err = &Error{Code: CodeBadRequest,
				Msg: fmt.Sprintf("protocol version %d outside supported [%d,%d]", req.Version, MinVersion, Version)}
			break
		}
		h := s.h.Hello()
		h.Version = min(req.Version, Version)
		body = AppendHelloBody(nil, h)
	case MsgPing:
		if s.h.Draining() {
			err = &Error{Code: CodeDraining, Msg: "draining"}
		}
	case MsgStats:
		body, err = s.h.StatsJSON(ctx)
	case MsgTrace:
		// Handled by a worker, not inline: the proxy's TraceJSON fans
		// out to its backends over the network.
		body, err = s.h.TraceJSON(ctx, req.Query)
	case MsgPlace:
		bins, samples, err = s.h.Place(ctx, req.Count)
	case MsgPlaceKeyed:
		bins, samples, err = s.h.PlaceKeyed(ctx, req.Key)
	case MsgRemove, MsgRemoveKeyed:
		err = s.h.Remove(ctx, req.Bin, req.Key)
	}
	if err != nil {
		s.c.errorReplies.Add(1)
		return errBody(AppendReply(dst, req.ID, ErrCode(err), nil), err.Error())
	}
	dst = AppendReply(dst, req.ID, CodeOK, body)
	if req.Type == MsgPlace || req.Type == MsgPlaceKeyed {
		dst = AppendPlaceBody(dst, bins, samples)
	}
	return dst
}
