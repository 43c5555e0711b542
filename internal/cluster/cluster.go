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
//     load: refreshed asynchronously from GET /v1/stats on a
//     configurable staleness window, and corrected between polls by
//     local accounting of the balls this router itself placed and
//     removed. This is exactly the "stale information" regime of the
//     two-choices literature: decisions are made against load values
//     up to one staleness window old.
//
//   - Router picks a backend per request using a Policy — the paper's
//     protocol specs transplanted to routing, where a protocol "retry"
//     becomes a probe of another backend against the stale load view
//     (see Policy for the exact mapping) — then forwards the request
//     over a per-backend pooled connection, failing over to another
//     backend when the chosen one errors. Latency is accounted in
//     internal/hdrhist histograms, both cumulative and per staleness
//     window (SnapshotAndReset).
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
	"errors"

	"repro/internal/serve"
)

// Errors returned by the Router.
var (
	// ErrNoBackends means no healthy backend was available to route to.
	ErrNoBackends = errors.New("cluster: no healthy backends")
	// ErrDraining is returned once Close has begun.
	ErrDraining = errors.New("cluster: router draining")
	// ErrBackendDown is returned by Remove when the backend owning the
	// target bin is currently evicted (the ball is unreachable until the
	// backend rejoins).
	ErrBackendDown = errors.New("cluster: backend down")
)

// Backend is one daemon as a client reaches it: the router's view of
// a routable serving node, and the client behind bbload and bbtop.
// Implementations must be safe for concurrent use. The three
// implementations answer alike (same bins, same sentinel errors):
// InprocBackend (a serve.Tier in process, used for single-machine
// routing experiments, bbload's in-process targets and CI),
// HTTPBackend (a remote daemon over HTTP) and WireBackend (the same
// over the binary protocol).
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
	// Health reports nil when the backend is serving.
	Health(ctx context.Context) error
}

// KeyedBackend is implemented by backends that accept keyed
// operations, forwarding the key so the backend's own keyed tier
// (its key→shard affinity) sees it too — end-to-end affinity:
// bbproxy pins the key's backend, the backend pins the key's shard.
// The router falls back to anonymous Place/Remove when a backend
// does not implement it.
type KeyedBackend interface {
	// PlaceKey places one ball for key and returns its backend-local
	// bin.
	PlaceKey(ctx context.Context, key string) (bins []int, samples int64, err error)
	// RemoveKey removes one of key's balls from backend-local bin.
	RemoveKey(ctx context.Context, bin int, key string) error
}
