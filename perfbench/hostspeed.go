package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The reference host is a shared VM whose speed drifts by tens of percent
// from minute to minute, moving host-time figures with it. A served run
// therefore times a fixed kernel that uses none of the repository's code
// right before each server's set-up, and scales that server's host-time
// figures to the speed the kernel has on the reference host: a figure
// measured while the host ran 20% slow is reported as it would have read
// at the reference speed. The heap is not scaled. The raw figures are
// printed beside the scaled ones. The simulator's host cost is not scaled
// (see runSim).
//
// The kernel runs in a child process (this binary with -hostspeed), so
// the state the program under test leaves in this process — its heap,
// the collector's work on it, its caches — cannot slow the kernel and be
// credited back to the program. What this process spends on the CPU
// while the child runs is printed as kernel_parent_cpu_frac: work the
// program left running that would still compete with the kernel.

const (
	kernelBytes = 16 << 20 // larger than a core's L2, so the walk feels the shared cache
	kernelIters = 1 << 20  // per goroutine
	// kernelNominal is the kernel's usual duration on the reference host
	// (2 Intel Xeon vCPUs, Go 1.24, GOMAXPROCS 2).
	kernelNominal = 8 * time.Millisecond
)

// kernelTimings is how many times the child times the kernel; it reports
// the median, so one run that the host's scheduler interrupted does not
// set the figure.
const kernelTimings = 3

// hostSpeedMode is the child's side: it times the kernel and prints the
// median duration in nanoseconds. The buffer is outside the Go heap and
// touched once first, so the kernel never pays a page fault; the kernel
// runs once untimed so a cold cache does not count either.
func hostSpeedMode() {
	buf, err := syscall.Mmap(-1, 0, kernelBytes, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: mmap kernel buffer:", err)
		os.Exit(1)
	}
	for i := 0; i < len(buf); i += 4096 {
		buf[i] = 1
	}
	runKernel(buf)
	ns := make([]float64, kernelTimings)
	for i := range ns {
		t0 := time.Now()
		runKernel(buf)
		ns[i] = float64(time.Since(t0).Nanoseconds())
	}
	fmt.Println(int64(median(ns)))
}

// hostMeter times the kernel for one benchmark run and tallies what this
// process spent on the CPU while the kernel ran.
type hostMeter struct {
	wall, parentCPU time.Duration
}

// slowdown times the kernel in a child process and returns its duration
// over the nominal: above 1 when the host runs slow. No server is
// running when it is called, and a collection runs first.
func (m *hostMeter) slowdown() (float64, error) {
	runtime.GC()
	self, err := os.Executable()
	if err != nil {
		return 0, fmt.Errorf("host-speed kernel: %w", err)
	}
	cpu0, t0 := cpuTime(), time.Now()
	out, err := exec.Command(self, "-hostspeed").Output()
	m.wall += time.Since(t0)
	m.parentCPU += cpuTime() - cpu0
	if err != nil {
		return 0, fmt.Errorf("host-speed kernel: %w", err)
	}
	ns, err := strconv.ParseInt(strings.TrimSpace(string(out)), 10, 64)
	if err != nil || ns <= 0 {
		return 0, fmt.Errorf("host-speed kernel printed %q", out)
	}
	return float64(ns) / float64(kernelNominal), nil
}

// parentCPUFrac is this process's CPU time while its kernel children ran,
// over their wall time.
func (m *hostMeter) parentCPUFrac() float64 {
	return ratio(m.parentCPU.Seconds(), m.wall.Seconds())
}

func runKernel(buf []byte) {
	n := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(part []byte) { // each goroutine walks its own share
			defer wg.Done()
			x, size := uint64(len(part)), uint64(len(part))
			for i := 0; i < kernelIters; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				part[(x>>24)%size]++
			}
		}(buf[g*kernelBytes/n : (g+1)*kernelBytes/n])
	}
	wg.Wait()
}
