package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Frame and payload decode errors. All of them are connection-fatal:
// once a length or checksum lies, the stream has lost sync and the
// only safe move is to drop the connection (the client redials).
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")
	ErrBadCRC        = errors.New("wire: frame CRC mismatch")
	ErrTruncated     = errors.New("wire: truncated message")
)

// AppendFrame appends one [len][crc][payload] frame to dst and returns
// the extended slice. Batching loops call this repeatedly on a reused
// buffer and issue a single write for the lot.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// appendRequestFrame encodes req as one frame at the end of dst with
// no payload buffer of its own: it reserves the header, appends the
// payload after it, then fills in the payload's length and CRC.
func appendRequestFrame(dst []byte, req Request) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, frameHeader)...)
	dst = AppendRequest(dst, req)
	payload := dst[start+frameHeader:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
	return dst
}

// ReadFrame reads one frame from r and returns its payload. Errors
// other than a clean io.EOF at a frame boundary mean the stream is
// unusable. The returned slice is freshly allocated (safe to retain).
func ReadFrame(r *bufio.Reader) ([]byte, error) { return readFrame(r, nil) }

// readFrame is ReadFrame decoding into buf's storage when it has room:
// the payload then aliases buf and is valid only until buf is reused.
// A larger frame gets a fresh slice, which the caller may keep as its
// next buf.
func readFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	// Peek the header in place: a local array handed to io.ReadFull
	// would escape, one allocation per frame. Discarding what Peek
	// returned cannot fail.
	hdr, err := r.Peek(frameHeader)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			return nil, ErrTruncated
		}
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	r.Discard(frameHeader)
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, ErrTruncated
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, ErrBadCRC
	}
	return payload, nil
}

// Request is a decoded client→server message. Only the fields relevant
// to Type are populated.
type Request struct {
	Type    MsgType
	ID      uint64
	Version int    // MsgHello
	Count   int    // MsgPlace
	Bin     int    // MsgRemove, MsgRemoveKeyed
	Key     string // MsgPlaceKeyed, MsgRemoveKeyed
	// Trace is the optional obs trace id (protocol ≥ 2). Encoded as a
	// trailing uvarint when nonzero; 0 means untraced and encodes
	// nothing, so v1 peers never see the field.
	Trace uint64
	// Query is the trace id a MsgTrace request asks for (protocol ≥ 3).
	// Unlike Trace it is part of the typed body and always encoded, so
	// it can never be confused with the optional trailing field.
	Query uint64
}

// appendHeader writes the common [type][uvarint id] request prefix.
func appendHeader(dst []byte, t MsgType, id uint64) []byte {
	dst = append(dst, byte(t))
	return binary.AppendUvarint(dst, id)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendRequest encodes req (ignoring fields irrelevant to its type)
// and appends the payload — not yet framed — to dst.
func AppendRequest(dst []byte, req Request) []byte {
	dst = appendHeader(dst, req.Type, req.ID)
	switch req.Type {
	case MsgHello:
		dst = binary.AppendUvarint(dst, uint64(req.Version))
	case MsgPlace:
		dst = binary.AppendUvarint(dst, uint64(req.Count))
	case MsgPlaceKeyed:
		dst = appendString(dst, req.Key)
	case MsgRemove:
		dst = binary.AppendUvarint(dst, uint64(req.Bin))
	case MsgRemoveKeyed:
		dst = binary.AppendUvarint(dst, uint64(req.Bin))
		dst = appendString(dst, req.Key)
	case MsgTrace:
		dst = binary.AppendUvarint(dst, req.Query)
	}
	// The trailing trace id (protocol ≥ 2). Callers must leave Trace 0
	// on connections negotiated at version 1: a v1 parser rejects any
	// trailing bytes.
	if req.Trace != 0 {
		dst = binary.AppendUvarint(dst, req.Trace)
	}
	return dst
}

// cursor is a forgiving varint reader over a payload slice.
type cursor struct {
	b  []byte
	ok bool
}

func (c *cursor) uvarint() uint64 {
	if !c.ok {
		return 0
	}
	v, n := binary.Uvarint(c.b)
	if n <= 0 {
		c.ok = false
		return 0
	}
	c.b = c.b[n:]
	return v
}

func (c *cursor) bytes(n uint64) []byte {
	if !c.ok || n > uint64(len(c.b)) {
		c.ok = false
		return nil
	}
	out := c.b[:n]
	c.b = c.b[n:]
	return out
}

func (c *cursor) str() string {
	n := c.uvarint()
	return string(c.bytes(n))
}

// ParseRequest decodes a frame payload into a Request. An error means
// the peer is speaking garbage and the connection should drop.
func ParseRequest(payload []byte) (Request, error) {
	if len(payload) == 0 {
		return Request{}, ErrTruncated
	}
	req := Request{Type: MsgType(payload[0])}
	c := &cursor{b: payload[1:], ok: true}
	req.ID = c.uvarint()
	switch req.Type {
	case MsgHello:
		req.Version = int(c.uvarint())
	case MsgPing, MsgStats:
	case MsgPlace:
		v := c.uvarint()
		if v > MaxFrame {
			return Request{}, fmt.Errorf("wire: absurd place count %d", v)
		}
		req.Count = int(v)
	case MsgPlaceKeyed:
		req.Key = c.str()
	case MsgRemove:
		req.Bin = int(c.uvarint())
	case MsgRemoveKeyed:
		req.Bin = int(c.uvarint())
		req.Key = c.str()
	case MsgTrace:
		req.Query = c.uvarint()
	default:
		return Request{}, fmt.Errorf("wire: unknown message type %d", payload[0])
	}
	// Optional trailing trace id (protocol ≥ 2). Parsed leniently —
	// the field is self-delimiting, so a v2 server accepts it from any
	// op message without per-type dispatch; bytes beyond it are still
	// a framing error.
	if c.ok && len(c.b) != 0 {
		req.Trace = c.uvarint()
	}
	if !c.ok || len(c.b) != 0 {
		return Request{}, ErrTruncated
	}
	return req, nil
}

// Reply is a decoded server→client message. Body interpretation
// depends on what the client sent under ID.
type Reply struct {
	ID   uint64
	Code Code
	Body []byte
}

// AppendReply encodes a reply payload — not yet framed — to dst.
func AppendReply(dst []byte, id uint64, code Code, body []byte) []byte {
	dst = appendHeader(dst, MsgReply, id)
	dst = append(dst, byte(code))
	return append(dst, body...)
}

// ParseReply decodes a frame payload into a Reply. The Body aliases
// the input payload.
func ParseReply(payload []byte) (Reply, error) {
	if len(payload) == 0 || MsgType(payload[0]) != MsgReply {
		return Reply{}, fmt.Errorf("wire: expected reply frame")
	}
	c := &cursor{b: payload[1:], ok: true}
	id := c.uvarint()
	if !c.ok || len(c.b) < 1 {
		return Reply{}, ErrTruncated
	}
	return Reply{ID: id, Code: Code(c.b[0]), Body: c.b[1:]}, nil
}

// AppendPlaceBody encodes a successful PLACE/PLACE_KEYED reply body:
// uvarint samples, uvarint bin count, then each bin as a uvarint.
func AppendPlaceBody(dst []byte, bins []int, samples int64) []byte {
	dst = binary.AppendUvarint(dst, uint64(samples))
	dst = binary.AppendUvarint(dst, uint64(len(bins)))
	for _, b := range bins {
		dst = binary.AppendUvarint(dst, uint64(b))
	}
	return dst
}

// ParsePlaceBody decodes a PLACE reply body.
func ParsePlaceBody(body []byte) (bins []int, samples int64, err error) {
	c := &cursor{b: body, ok: true}
	samples = int64(c.uvarint())
	n := c.uvarint()
	if !c.ok || n > uint64(len(c.b)) { // each bin takes ≥1 byte
		return nil, 0, ErrTruncated
	}
	bins = make([]int, n)
	for i := range bins {
		bins[i] = int(c.uvarint())
	}
	if !c.ok || len(c.b) != 0 {
		return nil, 0, ErrTruncated
	}
	return bins, samples, nil
}

// AppendHelloBody encodes a HELLO reply body.
func AppendHelloBody(dst []byte, h Hello) []byte {
	dst = binary.AppendUvarint(dst, uint64(h.Version))
	dst = binary.AppendUvarint(dst, uint64(h.N))
	dst = binary.AppendUvarint(dst, uint64(h.Shards))
	return appendString(dst, h.Protocol)
}

// ParseHelloBody decodes a HELLO reply body.
func ParseHelloBody(body []byte) (Hello, error) {
	c := &cursor{b: body, ok: true}
	h := Hello{
		Version: int(c.uvarint()),
		N:       int(c.uvarint()),
		Shards:  int(c.uvarint()),
	}
	h.Protocol = c.str()
	if !c.ok || len(c.b) != 0 {
		return Hello{}, ErrTruncated
	}
	return h, nil
}

// errBody renders an error reply body (just the message string bytes).
func errBody(dst []byte, msg string) []byte { return append(dst, msg...) }
