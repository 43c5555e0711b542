package wire

import (
	"bufio"
	"context"
	"errors"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestClientBlockedWriter pins the one caller a blocked socket write
// holds past its ctx. Against a peer that answers HELLO and then stops
// reading, a request far larger than the socket buffers leaves its
// caller stuck in the write. Callers whose frames queue behind it
// still return ctx.Err() at their deadline; the writer stays until
// Close ends the write, then returns an error; and every goroutine the
// client started exits.
func TestClientBlockedWriter(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	stop := make(chan struct{})
	peerErr := make(chan error, 1)
	go func() {
		peerErr <- deafPeer(ln, stop)
	}()
	before := runtime.NumGoroutine()

	c, err := Dial(ln.Addr().String(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cc := c.slots[0]
	// A small send buffer keeps the test independent of the host's
	// TCP autotuning limits.
	if err := cc.nc.(*net.TCPConn).SetWriteBuffer(64 << 10); err != nil {
		t.Fatal(err)
	}

	const writerDeadline = 50 * time.Millisecond
	wctx, wcancel := context.WithTimeout(context.Background(), writerDeadline)
	defer wcancel()
	writerErr := make(chan error, 1)
	go func() {
		_, _, err := c.PlaceKeyed(wctx, strings.Repeat("k", 4<<20))
		writerErr <- err
	}()
	// The writer has taken the pending buffer and is in its write.
	deadline := time.Now().Add(5 * time.Second)
	for {
		cc.mu.Lock()
		inWrite := cc.writing && cc.frames == 0 && len(cc.pending) == 1
		cc.mu.Unlock()
		if inWrite {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the large request never reached its socket write")
		}
		time.Sleep(time.Millisecond)
	}

	const queued, queuedDeadline = 8, 100 * time.Millisecond
	type outcome struct {
		err     error
		elapsed time.Duration
	}
	done := make(chan outcome, queued)
	for i := 0; i < queued; i++ {
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), queuedDeadline)
			defer cancel()
			start := time.Now()
			err := c.Ping(ctx)
			done <- outcome{err, time.Since(start)}
		}()
	}
	for i := 0; i < queued; i++ {
		o := <-done
		if !errors.Is(o.err, context.DeadlineExceeded) {
			t.Fatalf("a call queued behind the blocked write returned %v, want its ctx's error", o.err)
		}
		if o.elapsed > queuedDeadline+2*time.Second {
			t.Fatalf("a call queued behind the blocked write returned after %v, its deadline was %v", o.elapsed, queuedDeadline)
		}
	}
	select {
	case err := <-writerErr:
		t.Fatalf("the writer returned (%v) while its write was blocked", err)
	default:
	}

	c.Close()
	select {
	case err := <-writerErr:
		if err == nil {
			t.Fatal("the writer's request succeeded against a peer that never read it")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not end the blocked write")
	}
	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, %d before Dial:\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	if err := <-peerErr; err != nil {
		t.Fatalf("peer: %v", err)
	}
}

// deafPeer accepts one connection on ln, answers its HELLO, and then
// reads nothing more until stop is closed.
func deafPeer(ln net.Listener, stop <-chan struct{}) error {
	nc, err := ln.Accept()
	if err != nil {
		return err
	}
	defer nc.Close()
	if err := nc.(*net.TCPConn).SetReadBuffer(64 << 10); err != nil {
		return err
	}
	payload, err := ReadFrame(bufio.NewReader(nc))
	if err != nil {
		return err
	}
	req, err := ParseRequest(payload)
	if err != nil {
		return err
	}
	body := AppendHelloBody(nil, Hello{Version: Version, N: 8, Shards: 1, Protocol: "deaf"})
	if _, err := nc.Write(AppendFrame(nil, AppendReply(nil, req.ID, CodeOK, body))); err != nil {
		return err
	}
	<-stop
	return nil
}
