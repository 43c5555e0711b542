package bench

import (
	"sync"
	"syscall"
	"time"
)

// The calibration VM's CPUs run up to 1.6x slower or faster for minutes
// at a time as its neighbours' load comes and goes, so a raw time
// measures the host as much as the program. Every end-to-end time is
// therefore scaled to a reference host speed: the benchmark times a
// fixed reference kernel with its own load paused, and multiplies the
// time it measured by refNominal over the kernel's median time.
const (
	// refNominal is the kernel's median time on the calibration VM, so
	// scaled times read close to raw ones there.
	refNominal = 115 * time.Microsecond
	refEvery   = 50 * time.Millisecond // kernel period while the load runs
	refRounds  = 100                   // pipe round trips per kernel run
)

// refPipe is the kernel's pipe, opened once and kept open for the
// process's life.
var refPipe = sync.OnceValues(func() ([2]int, error) {
	var p [2]int
	err := syscall.Pipe2(p[:], syscall.O_CLOEXEC)
	return p, err
})

// refKernel writes and reads back 64 bytes through a pipe refRounds
// times and returns how long that took. Of the kernels tried (random
// memory access, an ALU chain, a two-choice placement loop, bare
// syscalls, pipe round trips) this one's slowdowns tracked the
// workloads' most closely (README.md, "Scaling to the host's speed"). A
// kernel that fails reports refNominal, which leaves times unscaled.
func refKernel() time.Duration {
	p, err := refPipe()
	if err != nil {
		return refNominal
	}
	var buf [64]byte
	t := time.Now()
	for range refRounds {
		if _, err := syscall.Write(p[1], buf[:]); err != nil {
			return refNominal
		}
		if _, err := syscall.Read(p[0], buf[:]); err != nil {
			return refNominal
		}
	}
	return time.Since(t)
}

// speedFactor is what a time measured while the kernel took times (in
// nanoseconds) is multiplied by to read at the reference speed.
func speedFactor(times []float64) float64 {
	if len(times) == 0 {
		return 1
	}
	return float64(refNominal) / median(times)
}
