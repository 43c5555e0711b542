package bench

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
)

// StreamConfig describes the placements a client sends: how many balls
// each carries and under which key.
type StreamConfig struct {
	// BulkMax and BulkS draw bulk sizes from Zipf(BulkS) on [1,BulkMax];
	// BulkMax <= 1 makes every placement one ball.
	BulkMax int
	BulkS   float64
	// Keys > 0 makes every placement keyed, the key drawn from Zipf(KeyS)
	// over Keys ranks. The key space is replaced every Epoch placements,
	// and during the middle fifth of each epoch a HotShare fraction of
	// placements use one hot key.
	Keys     int
	KeyS     float64
	Epoch    int
	HotShare float64
}

// Arrival is one generated placement.
type Arrival struct {
	Bulk int    // balls in the request
	Key  string // "" for anonymous placements
}

// Stream generates a deterministic placement sequence from a seed. The
// system under test sees only what Next returns.
type Stream struct {
	cfg     StreamConfig
	r       *rng.Rand
	n       int // placements drawn so far
	bulkCDF []float64
	keyCDF  []float64
}

// NewStream returns the stream for cfg and seed.
func NewStream(cfg StreamConfig, seed uint64) *Stream {
	s := &Stream{cfg: cfg, r: rng.New(rng.Mix(seed, 0x67656e))}
	if cfg.BulkMax > 1 {
		s.bulkCDF = zipfCDF(cfg.BulkMax, cfg.BulkS)
	}
	if cfg.Keys > 0 {
		s.keyCDF = zipfCDF(cfg.Keys, cfg.KeyS)
	}
	return s
}

// zipfCDF returns the cumulative distribution of Zipf(s) over ranks 1..n.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	var sum float64
	for i := range cdf {
		sum += math.Pow(float64(i+1), -s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

func (s *Stream) draw(cdf []float64) int {
	u := s.r.Float64()
	return min(sort.SearchFloat64s(cdf, u), len(cdf)-1)
}

// Next returns the next placement.
func (s *Stream) Next() Arrival {
	a := Arrival{Bulk: 1}
	if s.bulkCDF != nil {
		a.Bulk = s.draw(s.bulkCDF) + 1
	}
	if s.keyCDF != nil {
		a.Key = s.key()
	}
	s.n++
	return a
}

func (s *Stream) key() string {
	epoch, at := s.n/s.cfg.Epoch, s.n%s.cfg.Epoch
	if s.cfg.HotShare > 0 && 5*at >= 2*s.cfg.Epoch && 5*at < 3*s.cfg.Epoch && s.r.Float64() < s.cfg.HotShare {
		return "hot"
	}
	return "k" + strconv.Itoa(epoch) + "-" + strconv.Itoa(s.draw(s.keyCDF))
}

// AppendBinary appends a's canonical encoding (the determinism tests
// compare streams byte for byte).
func (a Arrival) AppendBinary(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(a.Bulk))
	dst = binary.AppendUvarint(dst, uint64(len(a.Key)))
	return append(dst, a.Key...)
}

// Target is what a closed loop drives: one client of the system.
type Target interface {
	Place(ctx context.Context, key string, bulk int) (bins []int, samples int64, err error)
	Remove(ctx context.Context, bin int, key string) error
}

// Ball is one live ball a worker holds.
type Ball struct {
	Bin int
	Key string
}

// LoopStats is what one closed-loop run measured.
type LoopStats struct {
	// Lat holds the latencies, in nanoseconds, of a uniform sample of
	// the requests begun in the measured window (at most latSample per
	// worker).
	Lat           []float64
	Attempted     int64
	Failed        int64
	PlaceFailed   int64
	Placed        int64 // balls placed (whole run, books)
	Removed       int64 // balls removed (whole run, books)
	WindowOps     int64 // balls placed + removed by requests begun in the window
	WindowBalls   int64 // balls placed by requests begun in the window
	WindowSamples int64 // samples those placements reported
	// Live holds the balls the workers still hold when the run ends.
	Live []Ball
}

const latSample = 1 << 16

// reservoir keeps a uniform random sample of at most latSample measured
// requests (Algorithm R), so a worker's memory stays fixed however many
// requests it measures.
type reservoir struct {
	r    *rng.Rand
	seen int64
	lat  []float64
}

func (s *reservoir) add(lat float64) {
	s.seen++
	if len(s.lat) < latSample {
		s.lat = append(s.lat, lat)
		return
	}
	if j := s.r.Uint64n(uint64(s.seen)); j < latSample {
		s.lat[j] = lat
	}
}

// ClosedLoop drives a Target with Workers clients that each send one
// request at a time: a worker places its stream's next arrival, then
// removes as many of its oldest balls, one request each, so the number
// of live balls stays constant. A closed loop slows down with the host
// instead of queueing work it cannot serve, so a request's latency is
// the time the system takes to serve it, not how far behind the host's
// stalls have left the schedule.
type ClosedLoop struct {
	Target  Target
	Stream  StreamConfig
	Workers int
	Seed    uint64 // seeds each worker's stream and the trace ids
	// Gate, if set, is held for reading around each request, so a meter
	// can pause the load between requests.
	Gate *sync.RWMutex
}

// Run hands the live balls out among the workers and starts them. After
// warmup it calls measure, which returns when the measured window ends;
// requests begun in between are measured, and ops reports how many ops
// those requests have completed so far. Run then stops the workers,
// waits for them, and returns the measurements.
func (l *ClosedLoop) Run(live []Ball, warmup time.Duration, measure func(ops func() int64)) LoopStats {
	type worker struct {
		stream *Stream
		q      []Ball
		lat    reservoir
		st     LoopStats
		ops    atomic.Int64 // measured ops, read by measure while it runs
	}
	ws := make([]*worker, l.Workers)
	for w := range ws {
		ws[w] = &worker{
			stream: NewStream(l.Stream, rng.StreamSeed(l.Seed, uint64(w))),
			// Allocated whole up front, so the sample does not grow the
			// heap during the window.
			lat: reservoir{r: rng.New(rng.Mix(l.Seed, 0x726573+uint64(w))), lat: make([]float64, 0, latSample)},
		}
	}
	for i, b := range live {
		wk := ws[i%len(ws)]
		wk.q = append(wk.q, b)
	}
	var stop, measuring atomic.Bool
	var wg sync.WaitGroup
	for w, wk := range ws {
		wg.Add(1)
		go func(seq uint64, wk *worker) {
			defer wg.Done()
			// call sends one request and reports whether it was measured.
			call := func(f func(ctx context.Context) error) (bool, error) {
				seq++
				ctx := obs.WithTrace(context.Background(), traceID(l.Seed, seq))
				if l.Gate != nil {
					l.Gate.RLock()
				}
				m := measuring.Load()
				start := time.Now()
				err := f(ctx)
				lat := time.Since(start)
				if l.Gate != nil {
					l.Gate.RUnlock()
				}
				if m {
					wk.lat.add(float64(lat))
				}
				wk.st.Attempted++
				if err != nil {
					wk.st.Failed++
				}
				return m, err
			}
			for !stop.Load() {
				a := wk.stream.Next()
				var bins []int
				var samples int64
				m, err := call(func(ctx context.Context) error {
					var err error
					bins, samples, err = l.Target.Place(ctx, a.Key, a.Bulk)
					if err == nil && len(bins) != a.Bulk {
						err = fmt.Errorf("bench: placed %d balls, asked for %d", len(bins), a.Bulk)
					}
					return err
				})
				if err != nil {
					wk.st.PlaceFailed++
					continue
				}
				wk.st.Placed += int64(len(bins))
				if m {
					wk.ops.Add(int64(len(bins)))
					wk.st.WindowBalls += int64(len(bins))
					wk.st.WindowSamples += samples
				}
				for _, b := range bins {
					wk.q = append(wk.q, Ball{Bin: b, Key: a.Key})
				}
				for range bins {
					b := wk.q[0]
					wk.q = wk.q[1:]
					m, err := call(func(ctx context.Context) error { return l.Target.Remove(ctx, b.Bin, b.Key) })
					if err != nil {
						// The ball's fate is unknown; keep it in the books
						// as live so the balance check reports the failure.
						wk.q = append(wk.q, b)
						continue
					}
					wk.st.Removed++
					if m {
						wk.ops.Add(1)
					}
				}
			}
		}(uint64(w)<<48, wk)
	}
	ops := func() int64 {
		var n int64
		for _, wk := range ws {
			n += wk.ops.Load()
		}
		return n
	}
	time.Sleep(warmup)
	measuring.Store(true)
	measure(ops)
	measuring.Store(false)
	stop.Store(true)
	wg.Wait()

	st := LoopStats{WindowOps: ops()}
	for _, wk := range ws {
		st.Lat = append(st.Lat, wk.lat.lat...)
		st.Attempted += wk.st.Attempted
		st.Failed += wk.st.Failed
		st.PlaceFailed += wk.st.PlaceFailed
		st.Placed += wk.st.Placed
		st.Removed += wk.st.Removed
		st.WindowBalls += wk.st.WindowBalls
		st.WindowSamples += wk.st.WindowSamples
		st.Live = append(st.Live, wk.q...)
	}
	return st
}
