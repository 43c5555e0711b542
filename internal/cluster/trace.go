package cluster

import (
	"context"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/watch"
)

// TraceBackend is the optional Backend capability behind cross-tier
// trace assembly and bbload's slow-op join: read the daemon's own
// retained-op ring, filtered to one trace id (id "" returns the whole
// ring — the bundle path). HTTPBackend serves it over GET /v1/trace,
// WireBackend over the TRACE message (protocol ≥ 3) with HTTP
// fallback, InprocBackend straight off the tier's recorder.
type TraceBackend interface {
	ReadTrace(ctx context.Context, id string) ([]*obs.Op, error)
}

// ReportBackend is the optional Backend capability behind the client
// tools' reports — bbload's end-of-run stamps and bbtop's frames. All
// three backends implement it.
type ReportBackend interface {
	// StatsDoc reads the daemon's stats document, either tier's (see
	// StatsResponse.KeyedBlocks and IsProxy).
	StatsDoc(ctx context.Context) (StatsResponse, error)
	// Timeseries reads the watchdog's time series: the last window
	// points (0: every retained point). A daemon without a watchdog
	// answers an empty document (Hop "").
	Timeseries(ctx context.Context, window int) (watch.SeriesResponse, error)
	// Transport reports the client's own transport counters.
	Transport() TransportStats
}

// TransportStats describes a client's transport efficiency: which
// transport carried its calls ("http" or "wire"; "" in process), the
// requests coalesced into each socket write, and the socket bytes each
// call cost.
type TransportStats struct {
	Transport        string
	CoalescingFactor float64
	BytesPerOp       float64
}

// gatherTimeout bounds each backend's trace read during assembly — a
// dead backend must not stall a diagnostic query.
const gatherTimeout = 2 * time.Second

// GatherTrace implements serve.Tier: it pulls every op recorded for
// one trace id across the whole cluster — the proxy's own ring plus
// each live backend's ring, fetched concurrently. id 0 snapshots every
// ring unfiltered for the diagnostic bundle's trace section, so a
// postmortem holds the complete cross-tier picture even for ids nobody
// asked about before the crash. sources names each ring consulted;
// backends that are down or predate the trace endpoint contribute
// nothing (a partial assembly beats a failed one during an incident).
func (rt *Router) GatherTrace(ctx context.Context, id uint64) (sources []string, ops []*obs.Op) {
	var hex string // "" reads a whole ring (TraceBackend)
	if id != 0 {
		hex = obs.FormatTrace(id)
		ops = rt.obs.OpsByTrace(hex)
	} else {
		ops = rt.obs.Ops(0)
	}
	sources = []string{"proxy"}

	var mu sync.Mutex
	var wg sync.WaitGroup
	for slot, b := range rt.cfg.Backends {
		tb, ok := b.(TraceBackend)
		if !ok || !rt.ms.IsUp(slot) {
			continue
		}
		wg.Add(1)
		go func(name string, tb TraceBackend) {
			defer wg.Done()
			cctx, cancel := context.WithTimeout(ctx, gatherTimeout)
			defer cancel()
			got, err := tb.ReadTrace(cctx, hex)
			mu.Lock()
			defer mu.Unlock()
			if err == nil {
				sources = append(sources, name)
				ops = append(ops, got...)
			}
		}(b.Name(), tb)
	}
	wg.Wait()
	return sources, ops
}
