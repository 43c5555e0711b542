package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"

	"repro/internal/obs"
)

// Handler is what a wire server serves. Both tiers are served through
// serve.Handler, the front end shared with HTTP, so this package stays
// free of upward imports.
//
// Handlers return *Error for typed failures; any other error is
// reported to the client as CodeInternal.
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
	// MaxInflight bounds concurrently-executing requests per
	// connection (default 1024). Beyond it the reader stalls, which
	// backpressures the client through TCP.
	MaxInflight int
	// ReplyQueue is the per-connection buffered reply channel depth
	// (default 1024).
	ReplyQueue int
	// MaxBatch caps reply frames coalesced into one socket write
	// (default 256).
	MaxBatch int
	// Logger receives structured connection-lifecycle and decode-error
	// events (default slog.Default).
	Logger *slog.Logger
}

func (o ServerOptions) withDefaults() ServerOptions {
	if o.MaxInflight <= 0 {
		o.MaxInflight = 1024
	}
	if o.ReplyQueue <= 0 {
		o.ReplyQueue = 1024
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 256
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	return o
}

// Server accepts wire connections and dispatches decoded requests to a
// Handler. Each request runs in its own goroutine (bounded by
// MaxInflight) so the dispatcher's arrival combining sees genuinely
// concurrent arrivals from a single pipelined connection.
type Server struct {
	h    Handler
	opts ServerOptions
	c    counters

	mu     sync.Mutex
	ln     net.Listener
	active map[net.Conn]struct{}
	closed bool

	wg sync.WaitGroup
}

// NewServer returns a Server for h. Call Serve with a listener to
// start accepting.
func NewServer(h Handler, opts ServerOptions) *Server {
	return &Server{h: h, opts: opts.withDefaults(), active: make(map[net.Conn]struct{})}
}

// Stats snapshots the server's wire counters.
func (s *Server) Stats() Stats { return s.c.snapshot() }

// Serve accepts connections on ln until Close. It returns nil after a
// clean Close, or the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("wire: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return err
		}
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
// their handlers to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
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

func (s *Server) serveConn(nc net.Conn) {
	defer s.wg.Done()
	defer s.dropConn(nc)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	replies := make(chan []byte, s.opts.ReplyQueue)
	writerDone := make(chan struct{})
	go s.writeLoop(nc, replies, writerDone)

	sem := make(chan struct{}, s.opts.MaxInflight)
	var inflight sync.WaitGroup
	br := bufio.NewReaderSize(nc, 64<<10)
	for {
		payload, err := ReadFrame(br)
		if err != nil {
			// io.EOF at a frame boundary is a clean hangup; anything
			// else means the stream lost sync.
			if err == ErrBadCRC || err == ErrFrameTooLarge || err == ErrTruncated {
				s.c.decodeErrors.Add(1)
				s.opts.Logger.Warn("wire: dropping connection on frame decode error",
					"remote", nc.RemoteAddr(), "err", err)
			} else if err != io.EOF {
				s.opts.Logger.Debug("wire: connection read ended",
					"remote", nc.RemoteAddr(), "err", err)
			}
			break
		}
		s.c.framesIn.Add(1)
		req, err := ParseRequest(payload)
		if err != nil {
			s.c.decodeErrors.Add(1)
			s.opts.Logger.Warn("wire: dropping connection on request decode error",
				"remote", nc.RemoteAddr(), "err", err)
			break
		}
		switch req.Type {
		case MsgHello, MsgPing, MsgStats:
			// Cheap control-plane requests run inline on the reader.
			replies <- s.handle(ctx, req)
		default:
			sem <- struct{}{}
			inflight.Add(1)
			go func(req Request) {
				defer inflight.Done()
				defer func() { <-sem }()
				replies <- s.handle(ctx, req)
			}(req)
		}
	}
	// Reader is done: cancel stragglers (un-admitted work aborts; work
	// the dispatcher already committed completes), let them enqueue
	// their replies, then release the writer.
	cancel()
	inflight.Wait()
	close(replies)
	<-writerDone
}

// writeLoop drains the reply channel into coalesced socket writes —
// the server-side twin of the client's send loop. After a write error
// it keeps draining (discarding) so handlers never block on a dead
// connection.
func (s *Server) writeLoop(nc net.Conn, replies <-chan []byte, done chan<- struct{}) {
	defer close(done)
	var buf []byte
	broken := false
	for p := range replies {
		buf = AppendFrame(buf[:0], p)
		n := 1
	fill:
		for n < s.opts.MaxBatch {
			select {
			case p2, ok := <-replies:
				if !ok {
					break fill
				}
				buf = AppendFrame(buf, p2)
				n++
			default:
				break fill
			}
		}
		if broken {
			continue
		}
		if _, err := nc.Write(buf); err != nil {
			broken = true
			continue
		}
		s.c.writes.Add(1)
		s.c.framesOut.Add(int64(n))
	}
}

// handle executes one request and returns the encoded reply payload.
func (s *Server) handle(ctx context.Context, req Request) []byte {
	var body []byte
	var err error
	if req.Trace != 0 {
		// Propagate the trace id into the tier's own recorder (the
		// dispatcher or router reads it back with obs.TraceFrom).
		ctx = obs.WithTrace(ctx, req.Trace)
	}
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
		// Dispatched on the bounded-goroutine path, not inline: the
		// proxy's TraceJSON fans out to its backends over the network.
		body, err = s.h.TraceJSON(ctx, req.Query)
	case MsgPlace:
		var bins []int
		var samples int64
		bins, samples, err = s.h.Place(ctx, req.Count)
		if err == nil {
			body = AppendPlaceBody(nil, bins, samples)
		}
	case MsgPlaceKeyed:
		var bins []int
		var samples int64
		bins, samples, err = s.h.PlaceKeyed(ctx, req.Key)
		if err == nil {
			body = AppendPlaceBody(nil, bins, samples)
		}
	case MsgRemove, MsgRemoveKeyed:
		err = s.h.Remove(ctx, req.Bin, req.Key)
	}
	if err != nil {
		s.c.errorReplies.Add(1)
		code := CodeInternal
		msg := err.Error()
		var we *Error
		if errors.As(err, &we) {
			code, msg = we.Code, we.Msg
		}
		return AppendReply(nil, req.ID, code, errBody(nil, msg))
	}
	return AppendReply(nil, req.ID, CodeOK, body)
}
