// Package cluster is the routing tier that scales the serving
// subsystem past one node: it treats backend bbserved processes as the
// bins of a balls-into-bins process and reuses the paper's allocation
// protocols as live load-balancing policies.
//
// # Architecture
//
//	bbload ──► bbproxy ──► bbserved #0 (n bins)
//	              │  ╲───► bbserved #1 (n bins)
//	              │   ╲──► bbserved #2 (n bins)
//	           Router + Membership + LoadView
//
// Three cooperating pieces:
//
//   - Membership is the backend registry: a static slot list with
//     health-check eviction and rejoin. A backend that fails
//     consecutive health probes (or errors under live traffic) is
//     evicted from routing; it rejoins automatically after consecutive
//     successful probes. Slots are stable, so the global bin numbering
//     (slot·n + local bin) survives flaps.
//
//   - LoadView is the router's approximate knowledge of each backend's
//     load and its one book per slot: counters of the balls this
//     router placed and removed, and the last GET /v1/stats poll,
//     refreshed asynchronously on a configurable staleness window and
//     published whole with the counters' net at its send, so the load
//     is the polled balls corrected by local accounting since. This is
//     exactly the "stale information" regime of the two-choices
//     literature: decisions are made against load values up to one
//     staleness window old.
//
//   - Router picks a backend per request using a Policy — a
//     protocol.Rule, whose table gives every policy's acceptance test,
//     probe cap and bound; a protocol "retry" becomes a probe of
//     another backend against the stale load view — then forwards the request
//     over a per-backend pooled connection, failing over to another
//     backend when the chosen one errors. Anonymous and keyed places
//     share one failover loop, and one verdict reads every backend
//     answer: a healthy backend's refusal (full, empty bin) is never
//     evidence against it.
//
// Health probes, load polls and trace reads reach the backends through
// one fan-out, each call under its own timeout; a slot whose periodic
// call fails backs off on its retry clock. The probe round that
// rejoins a backend re-polls its load, and Close stops and waits for
// every round.
//
// Router implements serve.Tier, so bbproxy serves it through the same
// front end (serve.Handler, run by internal/daemon) as bbserved serves
// its dispatcher — /v1/place, /v1/remove, /v1/stats, /healthz,
// /metrics and the wire protocol — and clients and load generators
// cannot tell a proxy from a single node, except that /v1/stats
// additionally carries the aggregated cluster block (cross-backend max
// load and gap, probe counts per policy, per-backend rows) and
// GET /v1/trace/{id} gathers the backends' rings too.
package cluster

import (
	"context"

	"repro/internal/serve"
	"repro/internal/wire"
)

// Errors returned by the Router: typed answers (*wire.Error), like the
// dispatcher's, so each carries its code to every client.
var (
	// ErrNoBackends means no healthy backend was available to route to.
	ErrNoBackends error = &wire.Error{Code: wire.CodeNoBackends, Msg: "cluster: no healthy backends"}
	// ErrDraining is returned once Close has begun.
	ErrDraining error = &wire.Error{Code: wire.CodeDraining, Msg: "cluster: router draining"}
	// ErrBackendDown is returned by Remove when the backend owning the
	// target bin is currently evicted (the ball is unreachable until the
	// backend rejoins).
	ErrBackendDown error = &wire.Error{Code: wire.CodeBackendDown, Msg: "cluster: backend down"}
)

// Backend is one daemon as a client reaches it: the router's view of
// a routable serving node, and the client behind bbload and bbtop.
// Implementations must be safe for concurrent use. The three
// implementations answer alike (same bins, same codes: each returns
// the answer its transport carried, and errors.Is matches a typed
// answer by code): InprocBackend (a serve.Tier in process, used for
// single-machine routing experiments, bbload's in-process targets and
// CI), HTTPBackend (a remote daemon over HTTP) and WireBackend (the
// same over the binary protocol). Keyed operations and trace reads are
// part of every backend.
type Backend interface {
	// Name identifies the backend in stats and metrics (e.g. its URL).
	Name() string
	// Place allocates count balls and returns their backend-local bins.
	Place(ctx context.Context, count int) (bins []int, samples int64, err error)
	// Remove takes one ball out of backend-local bin. It returns
	// serve.ErrEmptyBin when the bin holds no ball.
	Remove(ctx context.Context, bin int) error
	// Stats reports the backend's serving stats view (the LoadView
	// refresh source).
	Stats(ctx context.Context) (serve.StatsView, error)
	// Health reports nil when the backend is serving. Its error is
	// only a verdict: membership reads whether it is nil.
	Health(ctx context.Context) error
	KeyedBackend
	TraceBackend
}

// KeyedBackend is a backend's keyed operations, which forward the key
// so the backend's own keyed tier (its key→shard affinity) sees it
// too — end-to-end affinity: bbproxy pins the key's backend, the
// backend pins the key's shard.
type KeyedBackend interface {
	// PlaceKey places one ball for key and returns its backend-local
	// bin.
	PlaceKey(ctx context.Context, key string) (bins []int, samples int64, err error)
	// RemoveKey removes one of key's balls from backend-local bin; key
	// "" is Remove.
	RemoveKey(ctx context.Context, bin int, key string) error
}
