// Package wire is the binary streaming protocol that closes the gap
// between the in-proc dispatcher (~375k ops/s) and the JSON-over-HTTP
// tier (~1.5k ops/s single-connection): persistent connections,
// length-prefixed CRC-guarded frames, request IDs for out-of-order
// pipelining, and batch coalescing on both ends of the socket.
//
// Framing reuses the WAL's idiom — every frame is
//
//	[4B payload len][4B CRC-32 (IEEE) of payload][payload]
//
// little-endian, with payload length bounded by MaxFrame so a corrupt
// or torn length prefix can never drive a huge allocation. A frame
// that fails its CRC or bound is connection-fatal (the stream has lost
// sync; clients redial), exactly like a torn WAL tail ends replay.
//
// The payload is a compact fixed-header + varint body:
//
//	request:  [1B msg type][uvarint request id][body...]
//	reply:    [1B MsgReply][uvarint request id][1B code][body...]
//
// Request IDs are per-connection and chosen by the client; the server
// may reply out of order (each request is handled concurrently, so a
// slow bulk PLACE does not head-of-line-block a PING behind it) and
// the client demuxes replies back to waiting callers by ID. Typed
// error codes (CodeEmptyBin, CodeKeyedUnsupported, ...) map 1:1 onto
// the HTTP tier's status semantics so both transports are
// interchangeable at equal correctness.
//
// Both ends coalesce: the server funnels replies through a per-conn
// writer that packs everything pending into one write, and Client runs
// the same loop for requests — concurrent callers enqueue onto a
// per-connection send loop that drains the queue into a single
// write/syscall per flush. The measured requests-per-write factor is
// exported as the client's coalescing factor.
package wire

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/obs"
)

// Version is the protocol version exchanged in the HELLO handshake.
// The handshake negotiates down: the server answers min(client,
// server) and refuses only clients NEWER than itself (they know
// features it cannot honor); a client likewise accepts any server
// reply ≤ its own version. Both sides then speak the negotiated
// version for the life of the connection.
//
// Version history:
//
//	1: initial protocol.
//	2: op requests may carry an optional trailing trace-id uvarint
//	   (obs propagation). The field is strictly additive — a v2 peer
//	   never sends it on a connection negotiated at 1, so v1 parsers
//	   (which reject trailing bytes) are unaffected.
//	3: TRACE request (MsgTrace): fetch a daemon's retained ops for one
//	   trace id as a JSON TraceResponse body. Same append-only rule — a
//	   v3 client never sends TRACE on a connection negotiated below 3
//	   (Client.TraceJSON returns ErrTraceUnsupported instead), and no
//	   existing message changed shape.
const Version = 3

// MinVersion is the oldest peer version still accepted.
const MinVersion = 1

// MaxFrame bounds a frame payload, mirroring wal.MaxRecord: a torn or
// corrupt length prefix is detected by bound before it can drive a
// multi-gigabyte allocation.
const MaxFrame = 1 << 24

// frameHeader is the fixed per-frame overhead: 4B length + 4B CRC-32.
const frameHeader = 8

// MsgType identifies a message within a frame payload.
type MsgType uint8

const (
	// Client → server.
	MsgHello       MsgType = 1 // body: uvarint version
	MsgPing        MsgType = 2 // body: empty
	MsgPlace       MsgType = 3 // body: uvarint count (1 = single)
	MsgPlaceKeyed  MsgType = 4 // body: string key
	MsgRemove      MsgType = 5 // body: uvarint bin
	MsgRemoveKeyed MsgType = 6 // body: uvarint bin, string key
	MsgStats       MsgType = 7 // body: empty
	MsgTrace       MsgType = 8 // body: uvarint trace id (protocol ≥ 3)

	// Server → client. The reply does not repeat the request type —
	// the client knows what it sent under each ID.
	MsgReply MsgType = 64
)

// String names the message type for diagnostics.
func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "HELLO"
	case MsgPing:
		return "PING"
	case MsgPlace:
		return "PLACE"
	case MsgPlaceKeyed:
		return "PLACE_KEYED"
	case MsgRemove:
		return "REMOVE"
	case MsgRemoveKeyed:
		return "REMOVE_KEYED"
	case MsgStats:
		return "STATS"
	case MsgTrace:
		return "TRACE"
	case MsgReply:
		return "REPLY"
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// Code is the typed result of a request, mapping 1:1 onto the HTTP
// tier's status semantics so either transport yields the same errors.
type Code uint8

const (
	CodeOK               Code = 0
	CodeEmptyBin         Code = 1 // HTTP 409: remove from an empty bin
	CodeDraining         Code = 2 // HTTP 503: server is draining
	CodeKeyedUnsupported Code = 3 // HTTP 400: engine has no keyed tier
	CodeBadRequest       Code = 4 // HTTP 400: malformed count/bin/key
	CodeBackendDown      Code = 5 // HTTP 503: proxy lost the backend mid-flight
	CodeNoBackends       Code = 6 // HTTP 503: proxy has no live backends
	CodeInternal         Code = 7 // HTTP 502/500: anything else
)

// String names the code for diagnostics.
func (c Code) String() string {
	switch c {
	case CodeOK:
		return "ok"
	case CodeEmptyBin:
		return "empty-bin"
	case CodeDraining:
		return "draining"
	case CodeKeyedUnsupported:
		return "keyed-unsupported"
	case CodeBadRequest:
		return "bad-request"
	case CodeBackendDown:
		return "backend-down"
	case CodeNoBackends:
		return "no-backends"
	case CodeInternal:
		return "internal"
	}
	return fmt.Sprintf("Code(%d)", uint8(c))
}

// Error is a typed error reply. Adapters construct these from their
// tier's sentinel errors (serve.ErrEmptyBin → CodeEmptyBin, ...) and
// clients map them back, so sentinel comparisons work across the wire.
type Error struct {
	Code Code
	Msg  string
}

func (e *Error) Error() string {
	if e.Msg == "" {
		return "wire: " + e.Code.String()
	}
	return "wire: " + e.Code.String() + ": " + e.Msg
}

// ErrCode extracts the typed code from an error chain, or CodeInternal
// if the error carries none.
func ErrCode(err error) Code {
	var we *Error
	if errors.As(err, &we) {
		return we.Code
	}
	return CodeInternal
}

// Hello is the handshake exchanged on every new connection: the client
// announces its protocol version, the server answers with its version
// plus the identity a peer needs for n-agreement — bbproxy refuses
// backends whose n differs, and it can do so from the handshake alone.
type Hello struct {
	Version  int    `json:"version"`
	Protocol string `json:"protocol"`
	N        int    `json:"n"`
	Shards   int    `json:"shards"`
}

// Stats is the server-side wire block surfaced in /v1/stats and (via
// WriteMetrics) as bb_wire_* Prometheus series.
type Stats struct {
	Conns           int64   `json:"conns"`
	ConnsTotal      int64   `json:"conns_total"`
	FramesIn        int64   `json:"frames_in"`
	FramesOut       int64   `json:"frames_out"`
	Writes          int64   `json:"writes"`
	BatchedPerWrite float64 `json:"batched_per_write"`
	DecodeErrors    int64   `json:"decode_errors"`
	ErrorReplies    int64   `json:"error_replies"`
}

// WriteMetrics renders s in Prometheus text exposition format under
// the bb_wire_* namespace. Both tiers (bbserved and bbproxy) call this
// from their /metrics handlers so the series are uniform.
func WriteMetrics(w io.Writer, s Stats) {
	obs.WriteGauge(w, "bb_wire_conns", "Open wire-protocol connections.", float64(s.Conns))
	obs.WriteCounter(w, "bb_wire_conns_opened_total", "Wire connections accepted since start.", s.ConnsTotal)
	obs.WriteCounter(w, "bb_wire_frames_in_total", "Request frames decoded.", s.FramesIn)
	obs.WriteCounter(w, "bb_wire_frames_out_total", "Reply frames sent.", s.FramesOut)
	obs.WriteCounter(w, "bb_wire_writes_total", "Socket writes (each may carry many coalesced reply frames).", s.Writes)
	obs.WriteGauge(w, "bb_wire_batched_per_write", "Mean reply frames coalesced into one socket write.", s.BatchedPerWrite)
	obs.WriteCounter(w, "bb_wire_decode_errors_total", "Connection-fatal frame decode failures (bad CRC, oversize, garbage header).", s.DecodeErrors)
	obs.WriteCounter(w, "bb_wire_error_replies_total", "Replies carrying a non-OK code.", s.ErrorReplies)
}

// counters is the lock-free backing store for Stats, shared by Server.
type counters struct {
	conns        atomic.Int64
	connsTotal   atomic.Int64
	framesIn     atomic.Int64
	framesOut    atomic.Int64
	writes       atomic.Int64
	decodeErrors atomic.Int64
	errorReplies atomic.Int64
}

func (c *counters) snapshot() Stats {
	s := Stats{
		Conns:        c.conns.Load(),
		ConnsTotal:   c.connsTotal.Load(),
		FramesIn:     c.framesIn.Load(),
		FramesOut:    c.framesOut.Load(),
		Writes:       c.writes.Load(),
		DecodeErrors: c.decodeErrors.Load(),
		ErrorReplies: c.errorReplies.Load(),
	}
	if s.Writes > 0 {
		s.BatchedPerWrite = float64(s.FramesOut) / float64(s.Writes)
	}
	return s
}
