package main

import (
	"math"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Even CPU time is not a steady ruler on a shared host. Neighbours on the
// same cores (hyper-thread siblings, shared caches) slow every instruction
// the process runs, and between runs minutes apart the same campaign mix
// cost 14% more CPU with no steal at all. So the benchmark carries its own
// ruler: a calibrator goroutine runs a fixed reference kernel, which is
// the benchmark's own code and never changes with the program, every
// calibrateEvery, and times it on its own thread's CPU clock. Every
// gated time is then divided by the median kernel time of the run and
// multiplied by refKernelNominal: CPU time at the speed the host had when
// the nominal figure was measured. A program change moves the op cost but
// not the kernel, so it still shows in full; a slower host moves both.

const (
	// calibrateEvery is how often the calibrator runs the kernel; at about
	// 2 ms a run that is 2% of one CPU.
	calibrateEvery = 100 * time.Millisecond
	// refKernelNominal is about the kernel's median CPU time on the 2-vCPU
	// Xeon virtual machine the benchmark was built on, so that the scaled
	// figures read close to that machine's CPU milliseconds.
	refKernelNominal = 2 * time.Millisecond
)

// cal is the process's calibrator, started by main before any work.
var cal calibrator

type calibrator struct {
	// mu is held while the kernel runs, so that cpuTime never reads the
	// process clock with part of a kernel run in it.
	mu      sync.Mutex
	spent   time.Duration   // thread CPU time of every kernel run so far
	samples []time.Duration // thread CPU time of each kernel run
	sink    uint64
	stop    chan struct{}
	done    chan struct{}
}

// start runs the kernel every calibrateEvery until halt.
func (c *calibrator) start() {
	c.stop, c.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(c.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		t := time.NewTicker(calibrateEvery)
		defer t.Stop()
		for {
			c.once()
			select {
			case <-t.C:
			case <-c.stop:
				return
			}
		}
	}()
}

// once runs and times the kernel a single time.
func (c *calibrator) once() {
	c.mu.Lock()
	defer c.mu.Unlock()
	t0 := threadCPUTime()
	c.sink += refKernel()
	d := threadCPUTime() - t0
	c.spent += d
	c.samples = append(c.samples, d)
}

// halt stops the calibrator and waits for it to end.
func (c *calibrator) halt() {
	if c.stop != nil {
		close(c.stop)
		<-c.done
	}
}

// scale is refKernelNominal over the median kernel time so far: the factor
// that turns this host's CPU time into CPU time at nominal speed (1 when
// the calibrator has not run).
func (c *calibrator) scale() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.samples) == 0 {
		return 1
	}
	s := append([]time.Duration(nil), c.samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(refKernelNominal) / float64(s[len(s)/2])
}

// medianKernel is the median kernel time so far, for the run record.
func (c *calibrator) medianKernel() time.Duration {
	return time.Duration(float64(refKernelNominal) / c.scale())
}

// cpuTime reads the process's CPU clock — user and system time of every
// thread, the Go runtime's own (GC, scheduler) included — less the time
// the calibrator spent running its kernel.
func cpuTime() time.Duration {
	cal.mu.Lock()
	defer cal.mu.Unlock()
	return clock(clockProcessCPUTimeID) - cal.spent
}

const (
	clockProcessCPUTimeID = 2
	clockThreadCPUTimeID  = 3
)

func threadCPUTime() time.Duration { return clock(clockThreadCPUTimeID) }

// clock reads a CPU clock. The guest kernel charges no stolen time to it
// (paravirtual steal-time accounting).
func clock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// refKernel is a fixed piece of work shaped like the program's own:
// string-keyed maps, sorting, small allocations, pointer chasing within
// and beyond the caches, and dense floating-point elimination. It returns
// a checksum so none of it can be optimised away.
func refKernel() uint64 {
	var h uint64 = 14695981039346656037
	mix := func(v uint64) { h = (h ^ v) * 1099511628211 }

	keys := make([]string, 512)
	m := make(map[string]int, len(keys))
	for i := range keys {
		keys[i] = "ev:" + strconv.Itoa(i*7919%4099)
		m[keys[i]] = i
	}
	for r := 0; r < 8; r++ {
		for _, k := range keys {
			mix(uint64(m[k]))
		}
	}
	sort.Strings(keys)
	mix(uint64(len(keys[0])))

	xs := make([]float64, 4096)
	x := 0.3
	for i := range xs {
		x = 3.99 * x * (1 - x)
		xs[i] = x
	}
	sort.Float64s(xs)
	mix(math.Float64bits(xs[len(xs)/2]))

	type node struct {
		next *node
		v    int
	}
	var head *node
	for i := 0; i < 4096; i++ {
		head = &node{head, i}
	}
	for n := head; n != nil; n = n.next {
		mix(uint64(n.v))
	}

	const n = 48
	a := make([]float64, n*n)
	for i := range a {
		a[i] = xs[(i*37)%len(xs)]
	}
	for i := 0; i < n; i++ {
		a[i*n+i] += n // diagonally dominant: no pivoting needed
	}
	for k := 0; k < n; k++ {
		for i := k + 1; i < n; i++ {
			f := a[i*n+k] / a[k*n+k]
			for j := k; j < n; j++ {
				a[i*n+j] -= f * a[k*n+j]
			}
		}
	}
	mix(math.Float64bits(a[n*n-1]))

	var p int32
	for i := 0; i < 5000; i++ {
		p = chaseRing[p]
	}
	mix(uint64(p))
	return h
}

// chaseRing is one random cycle through 4 MiB of indices (Sattolo's
// shuffle), built once: a walk along it misses the caches at every step
// once neighbours have evicted it, as the program's pointer structures do.
var chaseRing = func() []int32 {
	ring := make([]int32, 1<<20)
	for i := range ring {
		ring[i] = int32(i)
	}
	x := uint64(88172645463325252)
	for i := len(ring) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		ring[i], ring[j] = ring[j], ring[i]
	}
	return ring
}()
