// Package netutil holds the small pieces of network-client plumbing
// behind the one client every tier dials another with
// (cluster.HTTPBackend): the pooled HTTP transport, the default dial
// timeout the wire protocol shares with it, and a byte-counting conn
// wrapper for measuring a client's true on-the-wire cost per operation.
package netutil

import (
	"context"
	"net"
	"net/http"
	"sync/atomic"
	"time"
)

// DefaultDialTimeout bounds connection establishment for every client
// in the system (HTTP transports and wire dials alike).
const DefaultDialTimeout = 3 * time.Second

// PooledTransport clones http.DefaultTransport with a keep-alive pool
// sized for maxIdle concurrent connections to one host — the setup
// behind cluster.NewHTTPBackendN.
// maxConns > 0 additionally caps the total connections per host
// (dials beyond it block), which is how a "single-connection" HTTP
// comparison run is forced onto one socket.
func PooledTransport(maxIdle, maxConns int) *http.Transport {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = maxIdle
	tr.MaxIdleConnsPerHost = maxIdle
	tr.MaxConnsPerHost = maxConns
	return tr
}

// ByteCounter accumulates socket-level bytes moved by a client.
type ByteCounter struct {
	In  atomic.Int64
	Out atomic.Int64
}

// Total returns bytes read plus bytes written.
func (b *ByteCounter) Total() int64 { return b.In.Load() + b.Out.Load() }

// CountConns rewires tr's dialer so every connection it opens counts
// its reads and writes into c — the measurement behind the
// client_bytes_per_op bench column (actual socket bytes, not payload
// estimates).
func CountConns(tr *http.Transport, c *ByteCounter) {
	base := tr.DialContext
	if base == nil {
		d := &net.Dialer{Timeout: DefaultDialTimeout}
		base = d.DialContext
	}
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		conn, err := base(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return &countingConn{Conn: conn, c: c}, nil
	}
}

type countingConn struct {
	net.Conn
	c *ByteCounter
}

func (cc *countingConn) Read(p []byte) (int, error) {
	n, err := cc.Conn.Read(p)
	cc.c.In.Add(int64(n))
	return n, err
}

func (cc *countingConn) Write(p []byte) (int, error) {
	n, err := cc.Conn.Write(p)
	cc.c.Out.Add(int64(n))
	return n, err
}
