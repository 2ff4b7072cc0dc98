package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed correction.
//
// The benchmark host is a share of a machine that other work also uses, and
// its speed drifts over minutes (cache and memory contention, preempted
// virtual CPUs): the same block of simulator work can take twice as long in
// one minute as in the next. A run therefore times a
// fixed reference kernel — code of the benchmark's own that calls nothing in
// the repository — before its first block and after every block, and scales
// each block's times by
//
//	refNominal / (mean of the two reference timings around it)
//
// and the set-up time by refNominal / (median of all the timings).
//
// Times are thus reported in seconds of a nominal host, one on which the
// reference pass takes refNominal; on an idle development host the factor is
// close to 1. A change to the simulator does not move the reference, so it
// moves the corrected figures exactly as it moves the raw ones.
//
// CPU seconds are corrected by the CPU time of the passes rather than their
// wall time: a preempted virtual CPU stretches wall time but not CPU time,
// while cache and memory contention stretch both.
//
// The kernel mixes what the simulator spends its time on: dependent random
// reads and writes over a working set larger than a core's private caches,
// hash-map updates and page-sized copies. Its array lives outside the Go heap
// and its map is small, so it does not raise the collector's heap goal; it
// allocates nothing, so the collector neither runs for it nor scans it, and
// the simulator's heap cannot slow it down. Each pass first sweeps its array
// once, untimed, so what the previous block left in the caches does not
// change the timed part.
const (
	refNominal = 20 * time.Millisecond
	refWords   = 4 << 20 // 32 MB working set
	refKeys    = 1 << 12
	refIters   = 400000
)

type hostRef struct {
	arr  []uint64
	m    map[uint64]uint64
	sink uint64
	// rssMB is the resident memory the kernel adds to the process; it is
	// taken off max_rss_MB.
	rssMB float64
}

func newHostRef() (*hostRef, error) {
	// The process is small and still growing here, so its peak resident set
	// grows by exactly what the kernel touches.
	before := maxRSSMB()
	mem, err := syscall.Mmap(-1, 0, refWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("reference kernel memory: %w", err)
	}
	h := &hostRef{arr: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), refWords), m: make(map[uint64]uint64, refKeys)}
	for k := uint64(0); k < refKeys; k++ {
		h.m[k] = k
	}
	h.pass()
	h.rssMB = maxRSSMB() - before
	return h, nil
}

// refPass is the host wall and CPU seconds of one reference pass.
type refPass struct{ wall, cpu float64 }

// pass runs the kernel once and times its timed part.
func (h *hostRef) pass() refPass {
	// The thread's CPU clock is only meaningful while the pass keeps to one
	// thread.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for _, v := range h.arr {
		h.sink += v
	}
	c0 := cpuClock(clockThreadCPU)
	t0 := time.Now()
	x := uint64(88172645463325252)
	mask := uint64(len(h.arr) - 1)
	var page [512]uint64
	for i := 0; i < refIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		h.arr[x&mask] += x
		h.sink += h.arr[(x>>20)&mask]
		if i%8 == 0 {
			h.m[x&(refKeys-1)] += uint64(i)
		}
		if i%64 == 0 {
			o := (x >> 40) & (mask - uint64(len(page)))
			copy(page[:], h.arr[o:o+uint64(len(page))])
			h.sink += page[x&uint64(len(page)-1)]
		}
	}
	return refPass{wall: time.Since(t0).Seconds(), cpu: cpuClock(clockThreadCPU) - c0}
}

// scales returns the factors that turn host wall and CPU seconds measured
// between two reference passes into nominal seconds.
func scales(before, after refPass) (wall, cpu float64) {
	n := 2 * refNominal.Seconds()
	return n / (before.wall + after.wall), n / (before.cpu + after.cpu)
}

const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// cpuClock reads a CPU-time clock in seconds. Unlike getrusage, whose user
// and system times follow the scheduler tick, it is exact to the
// nanosecond, which matters for blocks and passes of a few milliseconds.
func cpuClock(id uintptr) float64 {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return math.NaN()
	}
	return float64(ts.Nano()) / 1e9
}
