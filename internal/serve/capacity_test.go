package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	ballsbins "repro"
	"repro/internal/watch"
	"repro/internal/wire"
)

// shardBalls reads every shard's live ball count.
func shardBalls(d *Dispatcher) []int64 {
	out := make([]int64, d.Shards())
	for s := range out {
		out[s] = d.ShardStats(s).Balls
	}
	return out
}

// TestDispatcherCapacity fills a threshold and a fixed[<3] dispatcher
// to capacity on both engines: each shard's rule allows 3 balls in
// each of its 32 bins, 192 in all. Past that, anonymous, keyed and bulk
// places are refused with ErrFull, with no panic and no hang; a
// refused bulk leaves every shard's balls as they were even when one
// shard had room for its chunk, and books balance; a refused keyed
// place keeps no ref for its key; once a remove frees a bin in each
// shard the next place succeeds; and churn at capacity, bulks taken
// back while other callers place, ends with the books balanced and no
// bound violated.
func TestDispatcherCapacity(t *testing.T) {
	for _, spec := range []ballsbins.Spec{ballsbins.Threshold(), ballsbins.FixedThreshold(3)} {
		for _, engine := range []ballsbins.Engine{ballsbins.EngineFast, ballsbins.EngineNaive} {
			t.Run(fmt.Sprintf("%s/%s", spec.Name(), engine), func(t *testing.T) {
				d := NewDispatcher(Config{
					Spec: spec, N: 64, Shards: 2, Seed: 1, Engine: engine, Horizon: 100,
					Watch: watch.Options{Cadence: time.Hour},
				})
				t.Cleanup(d.Close)
				ctx := context.Background()
				for range 4 {
					if _, _, err := d.PlaceKeyed(ctx, "k"); err != nil {
						t.Fatal(err)
					}
				}
				for range 400 {
					if _, _, err := d.Place(ctx); err != nil && !errors.Is(err, ErrFull) {
						t.Fatal(err)
					}
				}
				if got := d.Allocator().Balls(); got != 192 {
					t.Fatalf("filled to %d balls, want 192", got)
				}

				if _, _, err := d.Place(ctx); !errors.Is(err, ErrFull) {
					t.Fatalf("Place at capacity: %v, want ErrFull", err)
				}
				live := d.KeyedStats().LiveBalls
				if _, _, err := d.PlaceKeyed(ctx, "k"); !errors.Is(err, ErrFull) {
					t.Fatalf("PlaceKeyed at capacity: %v, want ErrFull", err)
				}
				if got := d.KeyedStats().LiveBalls; got != live {
					t.Fatalf("keyed live balls %d -> %d across a refused keyed place", live, got)
				}

				// Room for shard 0's chunk of 2 but none for shard 1's.
				for range 2 {
					if err := d.Remove(ctx, d.Allocator().ShardBase(0)); err != nil {
						t.Fatal(err)
					}
				}
				before := shardBalls(d)
				if _, _, err := d.PlaceMany(ctx, 4); !errors.Is(err, ErrFull) {
					t.Fatalf("PlaceMany at capacity: %v, want ErrFull", err)
				}
				if after := shardBalls(d); fmt.Sprint(after) != fmt.Sprint(before) {
					t.Fatalf("shard balls %v -> %v across a refused bulk", before, after)
				}
				d.Watch().Tick(time.Now())
				for _, c := range d.Watch().LastChecks() {
					if c.Invariant == "serve_books" && c.Observed != 0 {
						t.Fatalf("serve_books %d after a refused bulk", c.Observed)
					}
				}

				if err := d.Remove(ctx, d.Allocator().ShardBase(1)); err != nil {
					t.Fatal(err)
				}
				if _, _, err := d.Place(ctx); err != nil {
					t.Fatalf("Place after a remove: %v", err)
				}

				// Churn at capacity: bulks are refused and taken back
				// while other callers place and remove.
				base := d.Allocator().Balls()
				var wg sync.WaitGroup
				for w := range 4 {
					wg.Add(1)
					go func() {
						defer wg.Done()
						var mine []int
						for i := range 200 {
							bins, _, err := d.PlaceMany(ctx, 1+(w+i)%3)
							if err != nil && !errors.Is(err, ErrFull) {
								t.Error(err)
								return
							}
							mine = append(mine, bins...)
							if i%2 == 1 && len(mine) > 0 {
								if err := d.Remove(ctx, mine[0]); err != nil {
									t.Error(err)
									return
								}
								mine = mine[1:]
							}
						}
						for _, b := range mine {
							if err := d.Remove(ctx, b); err != nil {
								t.Error(err)
							}
						}
					}()
				}
				wg.Wait()
				if got := d.Allocator().Balls(); got != base {
					t.Fatalf("%d balls after churn at capacity, want %d", got, base)
				}
				d.Watch().Tick(time.Now())
				if got := d.Watch().ViolationsTotal(); got != 0 {
					t.Fatalf("violations after churn at capacity: %v", d.Watch().ViolationCounts())
				}
			})
		}
	}
}

// TestFullBulkOverEveryTransport: one 400-ball place to a threshold
// dispatcher with horizon 100 over 64 bins in 2 shards (capacity 192)
// is refused, placing nothing: ErrFull in process, 507 over HTTP and
// CodeFull over wire. The next 1-ball place succeeds, and its ball can
// be removed.
func TestFullBulkOverEveryTransport(t *testing.T) {
	d := NewDispatcher(Config{Spec: ballsbins.Threshold(), N: 64, Shards: 2, Seed: 1, Horizon: 100})
	t.Cleanup(d.Close)
	h := NewHandler(d, Info{Protocol: d.Name(), N: 64, Shards: 2})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := wire.NewServer(h, wire.ServerOptions{})
	go ws.Serve(ln)
	t.Cleanup(func() { ws.Close() })
	wc, err := wire.Dial(ln.Addr().String(), wire.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wc.Close() })
	ctx := context.Background()

	httpPlace := func(count int) (int, error) {
		resp := post(t, fmt.Sprintf("%s/v1/place?count=%d", srv.URL, count))
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("status %d", resp.StatusCode)
		}
		var pr PlaceResponse
		err := json.NewDecoder(resp.Body).Decode(&pr)
		return pr.Bin, err
	}
	for _, tr := range []struct {
		name   string
		place  func(count int) (int, error)
		full   func(err error) bool
		remove func(bin int) error
	}{
		{"inproc", func(count int) (int, error) {
			bins, _, err := d.PlaceMany(ctx, count)
			if err != nil {
				return 0, err
			}
			return bins[0], nil
		}, func(err error) bool { return errors.Is(err, ErrFull) },
			func(bin int) error { return d.Remove(ctx, bin) }},
		{"http", httpPlace, func(err error) bool {
			return err != nil && err.Error() == fmt.Sprintf("status %d", http.StatusInsufficientStorage)
		}, func(bin int) error {
			resp := post(t, fmt.Sprintf("%s/v1/remove?bin=%d", srv.URL, bin))
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("status %d", resp.StatusCode)
			}
			return nil
		}},
		{"wire", func(count int) (int, error) {
			bins, _, err := wc.Place(ctx, count)
			if err != nil {
				return 0, err
			}
			return bins[0], nil
		}, func(err error) bool { return wire.ErrCode(err) == wire.CodeFull },
			func(bin int) error { return wc.Remove(ctx, bin, "") }},
	} {
		if _, err := tr.place(400); !tr.full(err) {
			t.Fatalf("%s: 400-ball place: %v, want full", tr.name, err)
		}
		if got := d.Allocator().Balls(); got != 0 {
			t.Fatalf("%s: a refused bulk left %d balls", tr.name, got)
		}
		bin, err := tr.place(1)
		if err != nil {
			t.Fatalf("%s: 1-ball place after the refusal: %v", tr.name, err)
		}
		if err := tr.remove(bin); err != nil {
			t.Fatalf("%s: remove bin %d: %v", tr.name, bin, err)
		}
	}
}
