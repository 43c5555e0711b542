package bench

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// cpuSlice is the length of the slices the meter splits its window
// into for CPU time per op.
const cpuSlice = 200 * time.Millisecond

// meter measures the process's resource use over a window: CPU time
// per op from getrusage (user + sys, so client CPU counts too),
// allocations and GC CPU from runtime/metrics, the heap each garbage
// collection in the window found live, and the host's speed.
type meter struct {
	t0   time.Time
	cpu0 time.Duration
	s0   []metrics.Sample
	ops  func() int64 // ops completed in the window so far
	// gate is held for reading around each unit of the load's work (one
	// request, one Run); the meter holds it for writing while it times
	// the reference kernel, so the kernel times the host, not the load.
	gate *sync.RWMutex
	stop chan struct{}
	done chan struct{}
	// Written by the sampler, read after done closes: live holds the
	// live heap, in MB, of each collection the sampler saw; cpuPerOp
	// the CPU nanoseconds per op of each slice that completed an op;
	// ref the reference kernel's times, in nanoseconds.
	live     []float64
	cpuPerOp []float64
	ref      []float64
}

// meterReading is what a meter measured.
type meterReading struct {
	wall       time.Duration
	cpuPerOp   float64
	allocBytes float64
	allocs     float64
	gcCPUFrac  float64
	heapLiveMB float64
	speed      float64 // speedFactor of the window's kernel times
}

var meterNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readMeter() []metrics.Sample {
	s := make([]metrics.Sample, len(meterNames))
	for i, n := range meterNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// startMeter opens a window now; ops reports the ops completed since,
// and the load holds gate for reading around each unit of its work.
// Its sampler goroutine polls the runtime every 20 ms, records the
// live heap of every collection that completed since the last poll,
// times the reference kernel every refEvery, and closes a CPU slice
// every cpuSlice; it runs until end.
func startMeter(ops func() int64, gate *sync.RWMutex) *meter {
	m := &meter{t0: time.Now(), cpu0: cpuTime(), s0: readMeter(), ops: ops, gate: gate,
		stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		cycles := s[0].Value.Uint64()
		sliceAt, cpu0, ops0 := m.t0, m.cpu0, int64(0)
		refAt := m.t0
		var kernel time.Duration // kernel time in the current slice
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case now := <-t.C:
				if now.Sub(refAt) >= refEvery {
					m.gate.Lock()
					d := refKernel()
					m.gate.Unlock()
					m.ref = append(m.ref, float64(d))
					kernel += d
					refAt = now
				}
				metrics.Read(s)
				if c := s[0].Value.Uint64(); c != cycles {
					cycles = c
					m.live = append(m.live, float64(s[1].Value.Uint64())/(1<<20))
				}
				if now.Sub(sliceAt) < cpuSlice {
					continue
				}
				cpu, n := cpuTime(), m.ops()
				if n > ops0 {
					m.cpuPerOp = append(m.cpuPerOp, float64(cpu-cpu0-kernel)/float64(n-ops0))
				}
				sliceAt, cpu0, ops0, kernel = now, cpu, n, 0
			}
		}
	}()
	return m
}

// end closes the window and returns what it measured. CPU per op is
// the median over the window's slices: the guest is not told when its
// host stops it, so a stop counts as CPU time of whatever was running,
// and the median skips the slices a stop hit. The live heap is the
// median over the window's collections, which, unlike their maximum or
// the heap in use, does not depend on when a collection happened to
// start. A window without a collection collects once at its end. The
// reported CPU excludes the reference kernel's; the speed factor is for
// the caller to apply.
func (m *meter) end() meterReading {
	close(m.stop)
	<-m.done
	s1 := readMeter()
	r := meterReading{
		wall:       time.Since(m.t0),
		cpuPerOp:   median(m.cpuPerOp),
		allocBytes: float64(s1[0].Value.Uint64() - m.s0[0].Value.Uint64()),
		allocs:     float64(s1[1].Value.Uint64() - m.s0[1].Value.Uint64()),
		gcCPUFrac:  ratio(s1[2].Value.Float64()-m.s0[2].Value.Float64(), s1[3].Value.Float64()-m.s0[3].Value.Float64()),
		speed:      speedFactor(m.ref),
	}
	if len(m.cpuPerOp) == 0 {
		cpu := float64(cpuTime() - m.cpu0)
		for _, d := range m.ref {
			cpu -= d
		}
		r.cpuPerOp = ratio(cpu, float64(m.ops()))
	}
	if len(m.live) == 0 {
		runtime.GC()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		m.live = append(m.live, float64(s[0].Value.Uint64())/(1<<20))
	}
	r.heapLiveMB = median(m.live)
	return r
}
