package bench

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"repro/internal/cluster"
	"repro/internal/keyed"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve"
)

// scriptRun is what one pass of the scripted op sequence observed.
type scriptRun struct {
	transcript []string
	books      []int64
	backendKey []int64
	mirror     keyed.Mirror
	sources    []string
}

// runScript drives a seeded, sequential sequence of anonymous, keyed
// and remove ops through a router over in-process backends (staleness
// 0, no health loop), with the backends wrapped by tr's shim when tr is
// not nil.
func runScript(t *testing.T, tr *Tracer) scriptRun {
	t.Helper()
	const n = 64
	var ds []*serve.Dispatcher
	var bks []cluster.Backend
	for i := 0; i < 3; i++ {
		d, err := newDispatcher(n, rng.StreamSeed(9, uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		ds = append(ds, d)
		bks = append(bks, tr.wrapBackend(&cluster.InprocBackend{D: d}))
	}
	pol, err := cluster.PolicyByName("adaptive", 2, 3, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rt, _, err := cluster.OpenRouter(cluster.Config{
		Backends: bks, BinsPerBackend: n, Policy: pol, Seed: 9,
		Keyed: &keyed.Config{Policy: keyed.Adaptive()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	var run scriptRun
	r := rng.New(42)
	type ball struct {
		bin int
		key string
	}
	var live []ball
	for i := 0; i < 600; i++ {
		ctx := obs.WithTrace(context.Background(), traceID(1, uint64(i)))
		var line string
		switch op := r.Intn(4); {
		case op == 0 || len(live) == 0:
			bins, _, err := rt.Place(ctx, 1+r.Intn(5))
			line = fmt.Sprint("place ", bins, err)
			for _, b := range bins {
				live = append(live, ball{bin: b})
			}
		case op == 1:
			key := "k" + strconv.Itoa(r.Intn(20))
			bins, _, err := rt.PlaceKeyed(ctx, key)
			line = fmt.Sprint("keyed ", key, bins, err)
			for _, b := range bins {
				live = append(live, ball{bin: b, key: key})
			}
		default:
			j := r.Intn(len(live))
			b := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			line = fmt.Sprint("remove ", b, rt.RemoveKeyed(ctx, b.bin, b.key))
		}
		run.transcript = append(run.transcript, line)
	}
	for _, d := range ds {
		run.books = append(run.books, d.Allocator().Balls())
		run.backendKey = append(run.backendKey, d.KeyedStats().Keys)
	}
	run.mirror = rt.Keyed().Mirror()
	run.sources, _ = rt.GatherTrace(context.Background(), 1)
	sort.Strings(run.sources) // backends answer concurrently
	return run
}

// TestShimTransparency: the traced stack returns the same bins, books
// and keyed state as the untraced one. Equal per-backend keyed tables
// show the shim forwards KeyedBackend; equal trace sources show it
// forwards TraceBackend.
func TestShimTransparency(t *testing.T) {
	plain := runScript(t, nil)
	tr := newTracer(1)
	traced := runScript(t, tr)
	if !reflect.DeepEqual(plain.transcript, traced.transcript) {
		for i := range plain.transcript {
			if plain.transcript[i] != traced.transcript[i] {
				t.Fatalf("op %d: %s untraced, %s traced", i, plain.transcript[i], traced.transcript[i])
			}
		}
	}
	if !reflect.DeepEqual(plain.books, traced.books) {
		t.Errorf("books: %v untraced, %v traced", plain.books, traced.books)
	}
	if !reflect.DeepEqual(plain.backendKey, traced.backendKey) || plain.backendKey[0]+plain.backendKey[1]+plain.backendKey[2] == 0 {
		t.Errorf("backend keyed tables: %v untraced, %v traced", plain.backendKey, traced.backendKey)
	}
	if !plain.mirror.Equal(traced.mirror) {
		t.Error("router keyed Mirror differs between the traced and untraced stacks")
	}
	if !reflect.DeepEqual(plain.sources, traced.sources) || len(plain.sources) != 4 {
		t.Errorf("trace sources: %v untraced, %v traced", plain.sources, traced.sources)
	}
	if len(tr.spans) == 0 {
		t.Error("the traced stack recorded no spans")
	}
}
