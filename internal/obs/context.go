package obs

import (
	"context"
	"strconv"
)

// Header carries the trace id hop-to-hop over HTTP: 16 lowercase hex
// digits. The wire protocol carries the same id in the optional
// trailing trace field (internal/wire, protocol version 2). It is
// spelled in Go's canonical form, so net/http's Get and Set use it
// as is instead of allocating a canonical copy per call.
const Header = "X-Bb-Trace"

type ctxKey struct{}

// WithTrace returns ctx tagged with the trace id; id 0 returns ctx
// unchanged (no allocation for the untraced path).
func WithTrace(ctx context.Context, id uint64) context.Context {
	if id == 0 {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, id)
}

// Scope is a reusable trace context: its parent context with one
// trace id held inline. Its owner, a goroutine serving one call after
// another, re-tags it between calls with Set, so tagging a call
// allocates nothing. A callee must therefore not keep a Scope, or a
// context derived from it, past its call.
//
// The id shadows any trace id on the parent, and 0 means untraced.
// Every other value, Done, Err and Deadline come from the parent, so
// WithCancel and WithTimeout on a Scope register with the parent's
// cancellation and start no goroutine.
type Scope struct {
	context.Context
	id uint64
}

// NewScope returns an untraced Scope over parent.
func NewScope(parent context.Context) *Scope { return &Scope{Context: parent} }

// Set tags the scope with trace id (0: untraced) for its next call.
func (s *Scope) Set(id uint64) { s.id = id }

// Value implements context.Context. The trace key answers the scope
// itself, so TraceFrom reads the id without boxing it.
func (s *Scope) Value(key any) any {
	if key == (ctxKey{}) {
		return s
	}
	return s.Context.Value(key)
}

// TraceFrom extracts the trace id from ctx (0 when untraced).
func TraceFrom(ctx context.Context) uint64 {
	switch v := ctx.Value(ctxKey{}).(type) {
	case uint64:
		return v
	case *Scope:
		return v.id
	}
	return 0
}

// FormatTrace renders a trace id as the canonical 16-hex-digit form.
func FormatTrace(id uint64) string {
	const hexdig = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexdig[id&0xf]
		id >>= 4
	}
	return string(b[:])
}

// ParseTrace parses a header value back into an id; malformed or
// empty values are 0 (untraced), never an error — a bad header must
// not fail the request it rides on.
func ParseTrace(s string) uint64 {
	if s == "" || len(s) > 16 {
		return 0
	}
	id, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0
	}
	return id
}
